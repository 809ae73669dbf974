(** Server initialization after a crash (sections 2.3.1 and 3.4).

    The three steps the paper describes, per mounted volume:
    + locate the most recently written block — by querying the device, or by
      binary search when the device cannot report (~log₂ V probes);
    + reconstruct the missing (pending) entrymap information by examining
      recently written blocks: raw blocks for level 1, then the level-(l−1)
      entrymap entries for each level l — on average (N·log_N b)/2 block
      examinations (Figure 4);
    + read the catalog log file to rebuild the log-file descriptor table.

    Additionally: garbage blocks found past the last valid block (a crashed
    writer sprayed junk) are invalidated and queued for the bad-block log,
    and a tail block staged in battery-backed RAM is restored. The same
    steps also run in place on a live read replica ({!catch_up}). *)

val find_frontier : State.t -> Worm.Block_io.t -> int
(** Next unwritten block index; counts probes in
    [stats.frontier_probe_reads]. *)

val rebuild_pending : State.t -> Vol.t -> unit
(** Reconstructs the volume's pending entrymap bitmaps; counts block
    examinations in [stats.recovery_blocks_examined]. *)

val catch_up : State.t -> devices:Worm.Block_io.t list -> (unit, Errors.t) result
(** Brings a live state up to its devices (in volume order, a prefix of
    them attached): mounts new volumes, advances frontiers, rebuilds pending
    bits, settles the virtual tail and continues the catalog replay. Reads
    nothing when no frontier and no NVRAM image changed; never writes. *)

val recover :
  config:Config.t ->
  clock:Sim.Clock.t ->
  ?nvram:Worm.Nvram.t ->
  alloc_volume:(vol_index:int -> (Worm.Block_io.t, Errors.t) result) ->
  devices:Worm.Block_io.t list ->
  unit ->
  (State.t, Errors.t) result
(** Full server initialization from the volume-sequence devices (any order;
    sorted by the volume index in their headers): header validation,
    garbage quarantine, then {!catch_up}'s steps. Devices may be [[]]. *)
