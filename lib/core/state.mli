(** Whole-server mutable context shared by the writer, reader and recovery
    paths. {!Server} is the public facade over this. *)

(** Pre-resolved latency/size histogram handles for the hot paths (resolved
    once in {!make}; bumping one is a record write, no name lookup). *)
type probes = {
  h_append : Obs.Histogram.t;
  h_force : Obs.Histogram.t;
  h_flush : Obs.Histogram.t;
  h_locate : Obs.Histogram.t;
  h_read : Obs.Histogram.t;
  h_time_search : Obs.Histogram.t;
  h_recover : Obs.Histogram.t;
  h_entry_bytes : Obs.Histogram.t;
  h_batch : Obs.Histogram.t;  (** entries per {!Server.append_batch} call *)
}

(** Replication role of this server over its volume sequence. Every server
    boots (and recovers) as [Primary] at epoch 1; {!Repl.Replica} demotes
    its rebuilt servers to [Replica], promotion mints [Primary] with the
    next epoch, and a primary whose shipment is refused with
    [Errors.Stale_epoch] marks itself [Fenced]. Replica and Fenced roles
    refuse every write with [Errors.Not_primary] carrying the hint. *)
type role =
  | Primary of { epoch : int }
  | Replica of { epoch : int; primary_hint : string }
  | Fenced of { epoch : int; hint : string }

val role_name : role -> string
(** ["primary"] / ["replica"] / ["fenced"] — the metrics rendering. *)

val role_epoch : role -> int

(** A record position, re-exported as {!Assemble.position}. *)
type position = { vol : int; block : int; rec_index : int }

type t = {
  config : Config.t;
  clock : Sim.Clock.t;
  catalog : Catalog.t;
  stats : Stats.t;
  obs : Obs.t;  (** metrics registry + tracer, clocked by [clock] *)
  probes : probes;
  read_memo : Read_memo.t;
      (** memoized entrymap decodes + per-log skip index; staleness is
          handled via each volume's [read_gen] (see {!Vol.t}) *)
  nvram : Worm.Nvram.t option;
  alloc_volume : vol_index:int -> (Worm.Block_io.t, Errors.t) result;
      (** hands out a fresh device when the active volume fills *)
  mutable vols : Vol.t array;  (** oldest first; the last is active *)
  mutable last_ts : int64;  (** enforces strictly monotonic timestamps *)
  mutable badblock_queue : int list;
      (** bad blocks awaiting a record in the bad-block log *)
  mutable seq_uid : int64;
  mutable next_vol_uid : int64;
  mutable in_entry : bool;
      (** an entry's fragments are being appended; entrymap emission must
          wait so fragments of one log file never interleave *)
  deferred_emissions : (Vol.t * Entrymap.entry) Queue.t;
      (** entrymap entries captured at their boundary, awaiting emission
          (FIFO, oldest first). Captured eagerly — the covered range is
          complete the moment its boundary block opens — and written as soon
          as no entry is mid-flight. A queue, not a list: a long run of
          boundary blocks appends one entry per level and list-append made
          that O(n²). *)
  mutable auto_mount : bool;
      (** remount shelved volumes transparently when a read needs them
          (section 2.1's "on demand ... automatically"); when false, such
          reads fail with [Volume_offline] *)
  mutable mounts : int;  (** automatic remounts performed *)
  breaker : Breaker.t;
      (** error-budget circuit breaker for the write paths; volatile —
          recovery starts a fresh (closed) breaker *)
  mutable role : role;
      (** replication role; volatile — the replication layer re-asserts it
          after every recovery *)
  mutable repl_lag_blocks : int;
      (** primary-side gauge: settled blocks the furthest-behind replica has
          not acknowledged, as of the last shipper sync *)
  mutable catalog_resume : position;
      (** where catalog replay continues ({!Recovery.catch_up}) *)
}

val make :
  config:Config.t ->
  clock:Sim.Clock.t ->
  ?nvram:Worm.Nvram.t ->
  alloc_volume:(vol_index:int -> (Worm.Block_io.t, Errors.t) result) ->
  unit ->
  t
(** A context with no volumes yet; the caller attaches them. *)

val active : t -> (Vol.t, Errors.t) result
val vol : t -> int -> (Vol.t, Errors.t) result
val nvols : t -> int

val fresh_ts : t -> int64
(** Strictly-increasing timestamp from the clock. *)

val fresh_vol_uid : t -> int64

val expand_members : t -> Header.t -> Ids.logfile list
(** The log-file ids whose entrymap bitmaps a record with this header must
    set: declared members plus all their ancestors, minus the root and the
    entrymap log itself (paper footnote 6), deduplicated. *)
