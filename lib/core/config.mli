(** Log-server configuration. *)

type t = {
  block_size : int;
      (** Device block size in bytes. The paper's measurements use 1 KB. *)
  fanout : int;
      (** N: entrymap bitmap width / search-tree degree. Section 3 concludes
          16–32 is the sweet spot; the measurements use 16. *)
  cache_blocks : int;  (** block-cache capacity (buffer pool size) *)
  nvram_tail : bool;
      (** Stage the tail block in battery-backed RAM (section 2.3.1). When
          false, a forced write burns the remainder of the current block. *)
  timestamp_all : bool;
      (** Timestamp every entry (the paper's full 14-byte header), not just
          the mandatory first-entry-per-block ones. *)
  breaker_threshold : int;
      (** Device append errors tolerated before the {!Breaker} trips the
          server into degraded (read-only) mode; [<= 0] disables tripping.
          Reset the budget with [clio admin breaker --reset]. *)
  locate_memo : bool;
      (** Memoize decoded entrymap entries and confirmed locate results so
          repeated descents over settled storage touch no device blocks. *)
  read_ahead_blocks : int;
      (** How many predicted blocks a cursor prefetches in one batched device
          read when it crosses a block boundary; [0] disables read-ahead. *)
  repl_batch_blocks : int;
      (** How many settled blocks a replication shipper packs into one
          [Repl_blocks] message when streaming a catch-up gap — the batch is
          read off the primary's device in one [read_many] call. *)
}

val default : t
(** 1 KB blocks, N = 16, 1024-block cache, NVRAM tail on,
    timestamps on — the configuration of the paper's section 3.2/3.3
    measurements — plus an 8-error breaker budget, locate memoization on,
    and 8-block cursor read-ahead. *)

val validate : t -> (t, Errors.t) result
(** Checks structural constraints (fanout ≥ 2, block size large enough for a
    maximal header plus trailer, etc.). *)

val levels : t -> capacity:int -> int
(** Number of entrymap levels worth maintaining for a volume of [capacity]
    blocks: the smallest L with N^L ≥ capacity (at least 1). *)

val pow_fanout : t -> int -> int
(** [pow_fanout t l] is N^l (no overflow guard; l is small). *)
