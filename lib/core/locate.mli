(** Locating the blocks that hold a log file's entries (section 2.1).

    The entrymap log entries form a degree-N search tree (Figure 2); walking
    it finds the nearest block before/after a given position that contains
    entries of a given log file in ~(N−1)·log_N d bitmap examinations, the
    cost curve of Figure 3.

    Sources of bitmap information, in order:
    - the in-memory pending maps for each level's currently accumulating
      range (the recent region, usually cache-resident);
    - entrymap entries read from their well-known blocks, with a small
      forward slack scan for entries displaced by invalidated blocks or
      in-flight appends (section 2.3.2);
    - when an entry is missing entirely, the conservative fallback: treat
      the bitmap as all-ones and search the level below, degenerating to a
      raw block scan at level 1 — "at the cost of some additional searching
      of the lower levels of the entrymap search tree". *)

val read_map :
  State.t -> Vol.t -> level:int -> boundary:int -> (Entrymap.entry option, Errors.t) result
(** The entrymap entry due at block [boundary] (covering
    [\[boundary − N^level, boundary)]), scanning up to 4 blocks forward
    (the slack window of section 2.3.2) for a displaced copy. [Ok None]
    when absent. *)

val block_contains : State.t -> Vol.t -> log:Ids.logfile -> int -> bool
(** Ground truth: does block [idx] hold any record belonging to [log]
    (sublog membership included)? Reads the block. *)

val prev_block :
  State.t -> Vol.t -> log:Ids.logfile -> before:int -> (int option, Errors.t) result
(** Greatest data block index strictly below [before] containing entries of
    [log] on this volume, including the open tail block. *)

val next_block :
  State.t -> Vol.t -> log:Ids.logfile -> from:int -> (int option, Errors.t) result
(** Smallest data block index ≥ [from] containing entries of [log]. *)
