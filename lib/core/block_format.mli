(** On-medium block layout (Figure 1).

    Records are packed from the front of the block; an index of 16-bit
    record footprints grows backwards from the trailer, so a block can be
    scanned forwards (cumulative offsets) or backwards (index walk) — the
    property Figure 1 is about. The 12-byte trailer holds a magic, format
    version, flags, record count, data-byte count and a CRC-32 of the whole
    block, which is how corruption (section 2.3.2) is detected.

    Bit 15 of an index footprint marks a record whose entry continues in a
    later block ("a log entry may also be fragmented over more than one
    block", section 2.1 footnote 7). *)

type record = {
  header : Header.t;
  payload : string;  (** this fragment's client bytes *)
  continues : bool;  (** entry continues in a later block *)
  offset : int;  (** byte offset of the record in its block *)
  index : int;  (** record position within the block, 0-based *)
}

val trailer_bytes : int
(** 12. *)

val index_entry_bytes : int
(** 2 per record. *)

(** Classification of a raw device block. *)
type status =
  | Valid of record array
  | Invalidated  (** all-1s: the server burned it (section 2.3.2) *)
  | Corrupt  (** bad magic or checksum: random garbage was written *)

val classify : bytes -> status

val parse : bytes -> (record array, Errors.t) result
(** [classify] folded into a result ([Invalidated]/[Corrupt] become
    errors). *)

val is_forced : bytes -> bool
(** True if the block image carries the forced-flush trailer flag — set on
    blocks burned by an explicit force and on NVRAM-staged tail images, both
    of which mark a durability point recovery may rely on. *)

val first_timestamp : record array -> int64 option
(** The block's time-search key (section 2.1): the timestamp of the first
    entry that {e starts} in the block, i.e. its first start record. A
    leading continuation belongs to an entry begun in an earlier block, so
    it is skipped. The writer stamps every block's first start record, so
    [None] means the block holds no entry start (it is one fragment of a
    larger entry) or breaks that rule. Timestamps increase in write order,
    so keys are monotone across blocks. *)

(** Accumulates records for the block being written (the in-memory tail). *)
module Builder : sig
  type t

  val create : block_size:int -> t
  val block_size : t -> int
  val count : t -> int
  val is_empty : t -> bool

  val has_start : t -> bool
  (** Whether a start record (not a continuation) has been staged. *)

  val free_bytes : t -> int
  (** Bytes available for the next record's header + payload (the 2-byte
      index slot is already accounted for). *)

  val add : t -> Header.t -> continues:bool -> string -> (unit, Errors.t) result
  (** Fails with [Entry_too_large] if the record does not fit. *)

  val records : t -> record array
  (** Parsed view of the partial block, for reads of the unflushed tail. *)

  val data_bytes : t -> int
  val padding_if_finished : t -> int
  (** Wasted bytes a forced flush of this partial block would burn. *)

  val finish : ?forced:bool -> t -> bytes
  (** Serializes to a full block image (free space zeroed, index + trailer +
      CRC appended). The builder may keep being used only after a
      {!Builder.reset}. *)

  val reset : t -> unit

  val load : t -> record array -> (unit, Errors.t) result
  (** Re-populates an empty builder from previously parsed records — used
      when recovery restores the tail block from NVRAM. *)
end

val max_payload_in_empty_block : block_size:int -> header:Header.t -> int
(** How much payload a single record with [header] can carry in a fresh
    block — the fragmentation threshold used by the writer. *)
