(** Timing wrapper: charges seek + transfer costs to a simulated clock.

    Models the head position of the underlying drive (the paper notes the
    seek time "typically dominates the cost of reading a block" on optical
    disk, section 3.3.1) and supports the separate read/write head
    configuration recommended in section 3.3.1: with [separate_heads] the
    write head stays parked at the frontier, so appends never pay a seek back
    from the last read position. *)

type t

val create :
  clock:Sim.Clock.t ->
  model:Sim.Seek_model.t ->
  ?separate_heads:bool ->
  Block_io.t ->
  t
(** Device time is accounted here only: {!busy_us} and {!seeks}. *)

val io : t -> Block_io.t
(** The wrapped device: same semantics, plus time accounting. *)

val busy_us : t -> int64
(** Total device time charged so far (also advanced on the clock). *)

val head_position : t -> int
(** Current read-head block position. *)

val seeks : t -> int
(** Head movements charged so far: one per single-block read/write, one per
    contiguous run served by the batched [read_many] path. *)
