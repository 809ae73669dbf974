(** The Clio log service: public facade.

    A [Server.t] manages one volume sequence on one or more write-once
    devices and serves {e log files}: named, readable, append-only files
    organized in a sublog hierarchy and accessed much like conventional
    files (section 2). All state outside the devices (and optional NVRAM) is
    volatile: {!recover} rebuilds it, and the property tests assert the
    rebuilt server is observationally identical.

    Example:
    {[
      let clock = Sim.Clock.simulated () in
      let alloc ~vol_index:_ = Ok (Worm.Mem_device.io (Worm.Mem_device.create ())) in
      let srv = Server.create ~clock ~alloc_volume:alloc () |> Result.get_ok in
      let log = Server.create_log srv "/mail/smith" |> Result.get_ok in
      let _ts = Server.append srv ~log "a message" in
      ...
    ]} *)

type t

(** {1 Lifecycle} *)

val create :
  ?config:Config.t ->
  clock:Sim.Clock.t ->
  ?nvram:Worm.Nvram.t ->
  alloc_volume:(vol_index:int -> (Worm.Block_io.t, Errors.t) result) ->
  unit ->
  (t, Errors.t) result
(** Start a brand-new volume sequence; volume 0 is allocated immediately. *)

val recover :
  ?config:Config.t ->
  clock:Sim.Clock.t ->
  ?nvram:Worm.Nvram.t ->
  alloc_volume:(vol_index:int -> (Worm.Block_io.t, Errors.t) result) ->
  devices:Worm.Block_io.t list ->
  unit ->
  (t, Errors.t) result
(** Reboot from existing volumes (section 2.3.1). With no devices the
    server holds no volumes until {!catch_up} attaches some. *)

val catch_up : t -> devices:Worm.Block_io.t list -> (unit, Errors.t) result
(** Recovery in place ({!Recovery.catch_up}) for a server whose devices
    someone else writes (a read replica): cache, memo, catalog and open
    cursors survive, and unchanged devices cost no read. *)

(** {1 Naming and the catalog} *)

val create_log : ?perms:int -> t -> string -> (Ids.logfile, Errors.t) result
(** [create_log t "/mail/smith"] creates a sublog under "/mail" (which must
    exist). Creating under "/" makes a top-level log file. *)

val ensure_log : ?perms:int -> t -> string -> (Ids.logfile, Errors.t) result
(** Like {!create_log} but creates missing intermediate components and
    succeeds if the log already exists. *)

val resolve : t -> string -> (Ids.logfile, Errors.t) result
val path_of : t -> Ids.logfile -> string
val descriptor : t -> Ids.logfile -> Catalog.descriptor option
val list_logs : t -> string -> (Catalog.descriptor list, Errors.t) result
(** Children of a log file, internal files excluded. *)

val set_perms : t -> log:Ids.logfile -> int -> (unit, Errors.t) result

(** {1 Writing} *)

val append :
  ?extra_members:Ids.logfile list ->
  ?force:bool ->
  t ->
  log:Ids.logfile ->
  string ->
  (int64 option, Errors.t) result
(** Append one entry. Returns the server timestamp it was tagged with (which
    uniquely identifies it, section 2.1) — [None] only when the
    configuration disables per-entry timestamps and the entry did not start
    a block. [force] makes the write synchronous (transaction-commit
    semantics, section 2.3.1). [extra_members] adds the entry to additional
    log files beyond [log] and its ancestors. *)

(** One entry of an {!append_batch} call. *)
type batch_item = {
  log : Ids.logfile;
  extra_members : Ids.logfile list;
  payload : string;
}

val append_batch :
  ?force:bool -> t -> batch_item list -> (int64 option list, Errors.t) result
(** Append many entries — possibly for different log files — in one call,
    applied in arrival order with group-commit semantics: entries share the
    staged tail block, and [force] issues a single durability point after
    the whole batch (instead of one per entry). Every item is validated
    before anything is staged, so a bad target rejects the batch atomically;
    a device failure mid-batch leaves the already-staged prefix, exactly as
    separate appends interrupted at that point would. Returns the assigned
    timestamps, one per item, in order. The staged bytes are identical to
    the same entries sent through {!append} one by one. *)

val append_path :
  ?extra_members:Ids.logfile list ->
  ?force:bool ->
  t ->
  path:string ->
  string ->
  (int64 option, Errors.t) result
(** [resolve] + [append], creating the log file if needed. *)

val force : t -> (unit, Errors.t) result

(** {1 Degraded mode}

    Every mutating entry point ({!append}, {!append_batch}, {!append_path},
    {!create_log}, {!ensure_log}, {!set_perms}, {!force}) spends one unit of
    an error budget each time it fails with a device error. When the budget
    ({!Config.breaker_threshold}, default 8) is exhausted, the breaker trips
    and the server enters degraded (read-only) mode: subsequent writes are
    refused up front with [Errors.Degraded], while reads, locate and
    timestamp search keep working. The breaker is volatile — {!recover}
    starts closed — and an operator can inspect/reset it via these accessors
    or [clio admin breaker]. *)

val breaker : t -> Breaker.t

val reset_breaker : t -> unit
(** Close the breaker and zero the current error budget (cumulative totals
    in the metrics are preserved). *)

val trip_breaker : t -> unit
(** Force the breaker open (operator drill / testing). *)

(** {1 Replication role}

    Service-level replication (lib/repl) demotes a recovered server to
    [Replica] so every mutating entry point answers [Errors.Not_primary]
    with a redirect hint, while reads, locate and time search keep working
    against the locally applied volume bytes. Promotion re-asserts
    [Primary] at the next epoch; a primary fenced by a newer epoch is
    marked [Fenced] and also refuses writes. The role is volatile state —
    every {!create}/{!recover} starts as [Primary] at epoch 1 and the
    replication layer re-asserts the real role afterwards. *)

val role : t -> State.role
val set_role : t -> State.role -> unit

val epoch : t -> int
(** The epoch of the current role. *)

val repl_lag_blocks : t -> int
(** Primary-side gauge: settled blocks the furthest-behind replica had not
    acknowledged at the last shipper sync (0 when not shipping). *)

val set_repl_lag_blocks : t -> int -> unit

(** {1 Reading} *)

val cursor_start : t -> log:Ids.logfile -> Reader.cursor
val cursor_end : t -> log:Ids.logfile -> (Reader.cursor, Errors.t) result
val cursor_at : t -> log:Ids.logfile -> Assemble.position -> Reader.cursor
val cursor_at_time : t -> log:Ids.logfile -> int64 -> (Reader.cursor, Errors.t) result
(** Positioned so that [next] yields entries from (block-resolution) time
    [ts] onwards and [prev] yields earlier ones. *)

val next : Reader.cursor -> (Reader.entry option, Errors.t) result
val prev : Reader.cursor -> (Reader.entry option, Errors.t) result

val first_entry : t -> log:Ids.logfile -> (Reader.entry option, Errors.t) result
val last_entry : t -> log:Ids.logfile -> (Reader.entry option, Errors.t) result

val entry_at_or_after : t -> log:Ids.logfile -> int64 -> (Reader.entry option, Errors.t) result
val entry_before : t -> log:Ids.logfile -> int64 -> (Reader.entry option, Errors.t) result

val fold_entries :
  t ->
  log:Ids.logfile ->
  ?from:Assemble.position ->
  init:'a ->
  ('a -> Reader.entry -> 'a) ->
  ('a, Errors.t) result
(** Forward fold over every entry of a log file. *)

(** {1 Maintenance and introspection} *)

val scrub_block : t -> vol:int -> block:int -> (unit, Errors.t) result
(** Invalidate a corrupted block (overwrite with 1s) so scans skip it
    cleanly (section 2.3.2). Refuses to scrub valid blocks. *)

val set_volume_offline : t -> vol:int -> (unit, Errors.t) result
(** Shelve an older volume of the sequence (section 2.1). The active volume
    cannot be shelved. With auto-mounting (the default) a later read that
    needs it remounts it transparently; otherwise such reads fail with
    [Volume_offline]. *)

val set_volume_online : t -> vol:int -> (unit, Errors.t) result
val volume_online : t -> vol:int -> bool
val set_auto_mount : t -> bool -> unit
val auto_mounts : t -> int
(** Number of transparent remounts performed so far. *)

val fsck : ?verify_entrymap:bool -> t -> (Fsck.report, Errors.t) result
(** Deep structural verification; see {!Fsck}. *)

val stats : t -> Stats.t
val config : t -> Config.t
val nvols : t -> int
val volume_blocks_used : t -> int
(** Total device blocks consumed across the sequence (incl. headers). *)

val state : t -> State.t
(** Escape hatch for benchmarks and tests that need the internals. *)

(** {1 Observability}

    Every server carries an {!Obs.t}: latency histograms on the hot paths
    (append/force/flush/locate/read/time-search/recover), breaker and RPC
    counters, and an off-by-default span tracer clocked by the server's
    {!Sim.Clock}. Enable tracing with {!set_tracing}. Cache and device
    counts stay in their own components; {!metrics_obj} joins them in. *)

val obs : t -> Obs.t
val metrics : t -> Obs.Metrics.t

val segment_totals : t -> Blockcache.Cache.segment_stats
(** Per-partition cache counters (meta / probation / protected) summed over
    all mounted volumes. *)

val repl_obj : t -> Obs.Json.t
(** The ["repl"] section of {!metrics_obj}: role, epoch, lag and the
    shipping counters. [clio repl status --json] prints exactly this. *)

val metrics_obj : t -> Obs.Json.t
(** The full metrics document: the registry's counters/gauges/histograms
    plus ["stats"] (the {!Stats.t} fields), ["cache"] (hit/miss/resident
    and per-partition counters summed over volumes), ["read_memo"]
    (memoized-fact residency), ["device"] (op counts summed over volumes),
    ["volumes"], ["breaker"] (degraded-mode state) and ["repl"]
    ({!repl_obj}). Each count appears in one section only. [clio_cli stats
    --json] and the BENCH_*.json files embed exactly this object. *)

val metrics_json : t -> string
(** {!metrics_obj} pretty-printed. *)

val dump_metrics : Format.formatter -> t -> unit
(** Human rendering of the same data. *)

val set_tracing : t -> bool -> unit
val tracing : t -> bool

val set_trace_sink : t -> (string -> unit) option -> unit
(** Stream finished spans as JSONL lines in addition to the in-memory ring. *)

val trace_spans : t -> Obs.Trace.span list
val trace_jsonl : t -> string
val clear_trace : t -> unit

val dump_trace : Format.formatter -> t -> unit
(** Human rendering: start offset, indent by depth, name, duration. *)
