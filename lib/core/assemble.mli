(** Reassembly of fragmented entries.

    An entry that overflows its block continues as version-3 records in later
    blocks (possibly on the next volume). Fragments of one log file never
    interleave — the writer defers entrymap emission to guarantee it — so the
    continuation of a record is the {e next} version-3 record carrying the
    same log-file id. *)

type position = State.position = { vol : int; block : int; rec_index : int }

val compare_position : position -> position -> int

val pp_position : Format.formatter -> position -> unit

val entry_at :
  State.t -> position -> (Header.t * string * position, Errors.t) result
(** [entry_at st pos] reads the full entry whose {e start} record is at
    [pos]: returns its header, the concatenated payload, and the position of
    its last fragment. Errors:
    - [Bad_record] if [pos] does not name a start record;
    - [Corrupt_block] if a fragment's block was lost to corruption;
    - [No_entry] if the final fragments were never written (crash while the
      entry was in flight) — callers treat the entry as nonexistent. *)

val start_of :
  State.t -> position -> (position, Errors.t) result
(** [start_of st pos] walks a continuation record at [pos] back to the start
    record of its entry (identity on start records). *)
