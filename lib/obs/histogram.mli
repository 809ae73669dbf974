(** Log-scaled histogram for latency and size samples.

    Non-negative integer samples (microseconds, bytes, counts) are binned
    exactly below 32 and into power-of-two octaves with 16 sub-buckets each
    above, bounding the relative quantile error at ~6% while keeping
    [record] a handful of integer operations — cheap enough to leave on in
    the hot write path. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Add one sample. Negative values clamp to 0. *)

val count : t -> int
val sum : t -> int
val min_value : t -> int
(** 0 when empty. *)

val max_value : t -> int
val mean : t -> float
(** nan when empty. *)

val percentile : t -> float -> float
(** [percentile t 0.99]: estimated sample value at quantile [q] in [0,1],
    linearly interpolated within the containing bucket. The estimate is
    monotone in [q] and lies within [\[min_value t, max_value t\]]. nan
    when empty. *)

val reset : t -> unit

val to_json : t -> Json.t
(** [{"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,
    "p99":..}] — the schema every latency field of the metrics export and
    the [BENCH_*.json] files share. *)

val pp : Format.formatter -> t -> unit
(** One-line human rendering: [count=12 mean=3.1us p50=2 p90=7 p99=11 max=14]. *)
