(** Segmented, scan-resistant block cache over a log device — the paper's
    shared "buffer pool".

    Clio was built as an extension of an existing file server precisely to
    reuse its block cache (section 2); the whole performance analysis of
    section 3.3 is phrased in terms of which entrymap and data blocks are
    cached. A single flat LRU serves that analysis poorly: one sequential
    cursor scan evicts the hot entrymap interior nodes every other locate
    depends on. This cache therefore splits residency into

    - a {e meta} partition for entrymap/metadata blocks (never displaced by
      data traffic), and
    - a {e data} partition run as a segmented LRU: first touch lands in a
      probation segment, a second touch promotes to a protected segment, and
      the protected victim is demoted back to probation. A one-pass scan
      churns probation only.

    The cache presents the same {!Worm.Block_io.t} interface downstream
    (including a batched [read_many] that forwards misses to the device in
    one call), so server code is oblivious to caching. Because the medium is
    write-once, cached blocks can never go stale — except through
    invalidation, which evicts. *)

type t

(** Which partition a block belongs in. *)
type partition = Meta | Data

(** Per-partition counters, for {!Server.metrics_json} and benches. *)
type segment_stats = {
  meta_hits : int;
  meta_misses : int;
  data_hits : int;
  data_misses : int;
  meta_resident : int;
  probation_resident : int;
  protected_resident : int;
  meta_evictions : int;
  data_evictions : int;
  promotions : int;  (** probation → protected moves (second touches) *)
}

val create :
  ?capacity_blocks:int ->
  ?meta_blocks:int ->
  ?classify:(bytes -> partition) ->
  Worm.Block_io.t ->
  t
(** [capacity_blocks] defaults to 1024 (1 MB of 1 KB blocks) and is split
    between the partitions: [meta_blocks] (default 1/8th) for the meta side,
    the rest for data, itself split evenly between probation and protected.
    [classify] decides a fetched/appended block's partition (default:
    everything [Data]). The cache's counters live only here: read them with
    {!hits}, {!misses} and {!segments} (the [cache] section of
    {!Server.metrics_json}). *)

val io : t -> Worm.Block_io.t
(** The caching view. Appended blocks are inserted into the cache on the way
    down (the paper's "log entry in the block cache" write path). Reads
    return a private copy: mutating a returned block never corrupts the
    cache's resident buffer. *)

val hits : t -> int
(** Resident hits in either partition: [meta_hits + data_hits]. *)

val misses : t -> int
(** Lookups that went to the device, counted before the read (a failed
    device read is a miss of no partition). *)

val resident : t -> int

val segments : t -> segment_stats

val contains : t -> int -> bool
(** True if block [idx] is cached in any partition (does not promote). *)

val preload : t -> int -> (unit, Worm.Block_io.error) result
(** Force block [idx] into the cache — used by benchmarks that measure the
    fully-cached costs of Table 1. *)

val drop : t -> unit
(** Empty every partition (cold-cache experiments). *)

val reset_counters : t -> unit
