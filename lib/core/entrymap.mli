(** Entrymap log entries and the pending (in-memory) bitmaps (section 2.1).

    A level-[l] entrymap entry is appended at the start of every block whose
    index is a multiple of N^l and describes the preceding N^l blocks: for
    each log file with entries in that range, an N-bit bitmap of which of the
    N sub-groups contain them. The entries across levels form the degree-N
    search tree of Figure 2.

    Between boundaries the same information accumulates in memory as
    {e pending} bitmaps — one per level — which (a) become the next entrymap
    entries and (b) serve lookups in the not-yet-mapped recent region. The
    paper's crash-recovery step "reconstruct missing entrymap information"
    (section 2.3.1) rebuilds exactly these. *)

(** {1 On-medium encoding} *)

type entry = {
  level : int;  (** 1-based *)
  base : int;  (** first block of the covered range [\[base, base + N^level)] *)
  maps : (Ids.logfile * Bitmap.t) list;  (** sorted by id *)
}

val encode : entry -> string
val decode : fanout:int -> string -> (entry, Errors.t) result

val find : fanout:int -> string -> Ids.logfile -> Bitmap.t option
(** The bitmap of log file [id] in an encoded entry (one {!decode}
    accepts): a binary search of its fixed-size records, sorted by id. *)

val entry_overhead_bytes : fanout:int -> files:int -> int
(** Encoded size for [files] maps — the [a·(N/8 + c)] term of the
    section 3.5 overhead analysis. *)

(** {1 Pending bitmaps} *)

module Pending : sig
  type t

  val create : fanout:int -> levels:int -> t
  val levels : t -> int
  val fanout : t -> int

  val note_block : t -> block:int -> Ids.logfile list -> unit
  (** [note_block t ~block files] records that the (just flushed) device
      block [block] contains entries of each of [files] (already expanded to
      include ancestors, excluding the root and internal-exempt files). If a
      level's stored range does not contain [block] (a boundary was skipped
      by bad-block displacement), that level resets to [block]'s range,
      dropping the stale range — the locate fallback covers it. *)

  val seed : t -> level:int -> block:int -> Ids.logfile list -> unit
  (** Like {!note_block} but touching a single level — used by recovery when
      level-[l] information is rebuilt from level-[l-1] entrymap entries
      rather than from raw blocks (section 2.3.1 / Figure 4). *)

  val retarget : t -> level:int -> block:int -> unit
  (** Point [level]'s accumulating range at the one containing [block],
      clearing its maps if that is a change. Recovery MUST call this even
      when it has nothing to seed (every block of the range invalidated):
      a level left at its initial base would otherwise claim authoritative
      empty coverage of a range whose truth lives in a written entrymap
      entry, hiding those blocks from every log. *)

  val due_at : t -> block:int -> int list
  (** Levels whose entrymap entry must be emitted when block [block] opens:
      all [l] with [block mod N^l = 0], in ascending order, capped at
      [levels]. *)

  val take : t -> level:int -> boundary:int -> entry option
  (** [take t ~level ~boundary] returns the entrymap entry to write at block
      [boundary] (covering [\[boundary - N^level, boundary)]) and resets that
      level's pending range to start at [boundary]. [None] if the range had
      no entries or the stored range is stale. *)

  val query : t -> level:int -> base:int -> Ids.logfile -> Bitmap.t option
  (** The pending bitmap for [base]'s range at [level], if that is the range
      currently accumulating. Returns an empty bitmap for files without
      entries (the range is covered; the file just has nothing there). *)

  val covers : t -> level:int -> base:int -> bool
  val files_at : t -> level:int -> Ids.logfile list
end
