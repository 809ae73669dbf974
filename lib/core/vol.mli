(** Per-volume runtime state: the cached device, the pending entrymap
    bitmaps, and the in-memory tail block under construction.

    The tail block is "virtual": reads of its planned index are served from
    the builder, which is how "read requests for recent data ... are likely
    to be satisfied from the file server's in-memory cache" (section 2.1)
    holds even before the block reaches the medium. *)

type t = {
  hdr : Volume.header;
  dev : Worm.Block_io.t;  (** raw device *)
  cache : Blockcache.Cache.t;
  io : Worm.Block_io.t;  (** cached view — all normal traffic goes here *)
  pending : Entrymap.Pending.t;
  tail : Block_format.Builder.t;
  mutable tail_index : int;  (** planned device index of the open tail *)
  mutable tail_open : bool;
  mutable sealed : bool;  (** full; no further appends *)
  mutable online : bool;
      (** mounted and readable; old volumes of a sequence may be shelved
          (section 2.1) and remounted on demand *)
  read_gen : int ref;
      (** Bumped on every block invalidation — the only event that can make
          a memoized fact about settled storage stale. {!Read_memo} entries
          are stamped with this and lazily dropped when it moves. *)
}

val make : config:Config.t -> hdr:Volume.header -> Worm.Block_io.t -> t
(** Wraps a device whose header block is already written/validated. Each
    volume has its own block cache; {!Server.metrics_json} sums their
    counters across the sequence. *)

val levels : t -> int
val fanout : t -> int
val pow_fanout : t -> int -> int

val device_frontier : t -> int
(** Next device block an append would use (queries the device; falls back to
    [tail_index] bookkeeping when the device cannot report). *)

val written_limit : t -> int
(** One past the highest block readable right now: the tail's planned index
    + 1 if the tail is open and non-empty, else the device frontier. *)

(** How a block looks to the log layer. *)
type view =
  | Records of Block_format.record array
  | Invalid  (** invalidated (all 1s) — skip it *)
  | Corrupted  (** garbage: data loss per section 2.3.2 *)
  | Missing  (** never written *)

val view_block : t -> int -> view
(** [view_block t idx]: index 0 (the volume header) reads as [Invalid] (not
    log data); the open tail's index is served from the builder. *)

val first_timestamp : t -> int -> int64 option
(** Time-search key of block [idx] ({!Block_format.first_timestamp}), if
    the block is valid and holds an entry start. *)
