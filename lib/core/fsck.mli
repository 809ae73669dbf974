(** Volume-sequence verifier ("fsck" for log files).

    Walks every block of every mounted volume, classifying it, checking the
    structural invariants the rest of the system relies on, and
    cross-checking the entrymap search tree against ground truth. Used by
    the CLI's [fsck] command and by tests as a deep post-condition.

    Checks performed:
    - block 0 of each volume decodes as a volume header with the right
      index and chain links;
    - every other written block classifies as valid log data or cleanly
      invalidated — corrupt blocks are reported, not fatal;
    - the first start record of every valid block carries a timestamp;
    - block keys ({!Block_format.first_timestamp}, the time search's key)
      are nondecreasing in device order;
    - every entry reassembles (fragment chains resolve), except a possible
      truncated in-flight entry at the very end;
    - every log-file id appearing in a record exists in the catalog;
    - for each log file, the entrymap-driven locate agrees with an
      exhaustive scan at every block position (optional: expensive). *)

type report = {
  volumes : int;
  blocks_scanned : int;
  valid_blocks : int;
  invalidated_blocks : int;
  corrupt_blocks : (int * int) list;  (** (volume, block) *)
  entries : int;
  truncated_entries : int;  (** dangling in-flight entries (crash residue) *)
  errors : string list;  (** invariant violations — empty on a healthy store *)
}

val pp_report : Format.formatter -> report -> unit

val check : ?verify_entrymap:bool -> State.t -> (report, Errors.t) result
(** [check st] never fails on media damage (that lands in the report);
    [Error] only for internal problems. [verify_entrymap] (default false)
    adds the O(blocks · logfiles) locate-vs-scan cross-check. *)

val is_healthy : report -> bool
(** No corrupt blocks and no invariant violations. *)
