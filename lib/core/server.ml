type t = State.t

let ( let* ) = Errors.( let* )

(* ------------------------------- lifecycle ------------------------------ *)

let create ?(config = Config.default) ~clock ?nvram ~alloc_volume () =
  let* config = Config.validate config in
  let st = State.make ~config ~clock ?nvram ~alloc_volume () in
  let* () = Writer.init_sequence st in
  Ok st

let recover ?(config = Config.default) ~clock ?nvram ~alloc_volume ~devices () =
  Recovery.recover ~config ~clock ?nvram ~alloc_volume ~devices ()

let catch_up = Recovery.catch_up

(* ----------------------------- degraded mode ----------------------------- *)

(* Every mutating entry point passes through [write_guarded]: a tripped
   breaker refuses the write with [Degraded] before anything is staged, and
   a device error escaping a write spends one unit of the error budget
   (possibly tripping the breaker for the *next* write — the failing call
   itself still reports its device error, which is more actionable). Routine
   WORM housekeeping — a bad block successfully invalidated and retried —
   never surfaces as a device error, so it costs no budget. *)

let breaker st = st.State.breaker

(* Role gate: only a primary accepts writes. The check precedes the breaker
   so a replica's refusal always carries the redirect hint, whatever the
   local breaker state. *)
let write_guarded st f =
  match st.State.role with
  | State.Replica { primary_hint; _ } -> Error (Errors.Not_primary primary_hint)
  | State.Fenced { hint; _ } -> Error (Errors.Not_primary hint)
  | State.Primary _ ->
    if Breaker.is_open st.State.breaker then begin
      Breaker.record_rejected st.State.breaker;
      Error Errors.Degraded
    end
    else begin
      let r = f () in
      (match r with
      | Error (Errors.Device _) -> Breaker.record_error st.State.breaker
      | _ -> ());
      r
    end

let reset_breaker st = Breaker.reset (breaker st)
let trip_breaker st = Breaker.trip (breaker st)

(* ------------------------------ replication ----------------------------- *)

let role st = st.State.role
let set_role st role = st.State.role <- role
let epoch st = State.role_epoch st.State.role
let repl_lag_blocks st = st.State.repl_lag_blocks
let set_repl_lag_blocks st lag = st.State.repl_lag_blocks <- max 0 lag

(* --------------------------------- naming ------------------------------- *)

let resolve st path =
  let* d = Catalog.resolve_path st.State.catalog path in
  Ok d.Catalog.id

let path_of st id = Catalog.path_of st.State.catalog id
let descriptor st id = Catalog.find st.State.catalog id

let list_logs st path =
  let* d = Catalog.resolve_path st.State.catalog path in
  Ok
    (List.filter
       (fun c -> not (Ids.is_internal c.Catalog.id))
       (Catalog.children st.State.catalog d.Catalog.id))

let split_parent path =
  match String.rindex_opt path '/' with
  | None -> Error (Errors.Invalid_name path)
  | Some i ->
    let parent = if i = 0 then "/" else String.sub path 0 i in
    let name = String.sub path (i + 1) (String.length path - i - 1) in
    if name = "" then Error (Errors.Invalid_name path) else Ok (parent, name)

let create_log_inner ?(perms = 0o644) st path =
  let* parent_path, name = split_parent path in
  let* parent = Catalog.resolve_path st.State.catalog parent_path in
  let* name = Catalog.validate_name name in
  if Catalog.lookup_child st.State.catalog parent.Catalog.id name <> None then
    Error (Errors.Log_exists path)
  else begin
    let* id = Catalog.next_free_id st.State.catalog in
    let d =
      {
        Catalog.id;
        parent = parent.Catalog.id;
        name;
        perms;
        created = State.fresh_ts st;
      }
    in
    let* () = Writer.log_catalog_op st (Catalog.Create d) in
    (* Catalog changes are metadata: make them durable immediately so a
       crash cannot orphan entries of a freshly created log file. *)
    let* () = Writer.force st in
    Ok id
  end

let ensure_log_inner ?(perms = 0o644) st path =
  let components = String.split_on_char '/' path |> List.filter (fun s -> s <> "") in
  if components = [] then Error (Errors.Invalid_name path)
  else begin
    let rec walk prefix = function
      | [] -> resolve st prefix
      | comp :: rest ->
        let here = if prefix = "/" then "/" ^ comp else prefix ^ "/" ^ comp in
        let* () =
          match Catalog.resolve_path st.State.catalog here with
          | Ok _ -> Ok ()
          | Error (Errors.No_such_log _) ->
            let* _id = create_log_inner ~perms st here in
            Ok ()
          | Error _ as e -> e
        in
        walk here rest
    in
    walk "/" components
  end

let create_log ?perms st path = write_guarded st (fun () -> create_log_inner ?perms st path)
let ensure_log ?perms st path = write_guarded st (fun () -> ensure_log_inner ?perms st path)

let set_perms st ~log perms =
  write_guarded st (fun () ->
      let* () =
        Writer.log_catalog_op st (Catalog.Set_perms { id = log; perms; at = State.fresh_ts st })
      in
      Writer.force st)

(* --------------------------------- writing ------------------------------ *)

let validate_append_target st ~log extra_members =
  let check id =
    if not (Ids.valid id) then Error (Errors.Bad_record "invalid log file id")
    else if id = Ids.root then Error (Errors.Bad_record "cannot append to the volume sequence log")
    else if Ids.is_internal id then Error (Errors.Bad_record "cannot append to an internal log file")
    else if not (Catalog.exists st.State.catalog id) then
      Error (Errors.No_such_log (string_of_int id))
    else Ok ()
  in
  let* () = check log in
  List.fold_left
    (fun acc id ->
      let* () = acc in
      check id)
    (Ok ()) extra_members

let append_inner ?(extra_members = []) ?(force = false) st ~log payload =
  let* () = validate_append_target st ~log extra_members in
  let timestamp =
    if st.State.config.Config.timestamp_all then Some (State.fresh_ts st) else None
  in
  let header = Header.make ?timestamp ~extra_members log in
  let* active = State.active st in
  let max_payload0 =
    Block_format.max_payload_in_empty_block
      ~block_size:active.Vol.hdr.Volume.block_size ~header
  in
  if max_payload0 < 1 && String.length payload > 0 then
    Error (Errors.Entry_too_large (String.length payload))
  else begin
    let* () = Writer.append_entry st ~header payload in
    st.State.stats.Stats.entries_appended <- st.State.stats.Stats.entries_appended + 1;
    let* () = if force then Writer.force st else Ok () in
    Ok header.Header.timestamp
  end

let append ?extra_members ?force st ~log payload =
  write_guarded st (fun () -> append_inner ?extra_members ?force st ~log payload)

let append_path ?extra_members ?force st ~path payload =
  write_guarded st (fun () ->
      let* log = ensure_log_inner st path in
      append_inner ?extra_members ?force st ~log payload)

type batch_item = {
  log : Ids.logfile;
  extra_members : Ids.logfile list;
  payload : string;
}

(* Group commit: validate every item up front so a bad target rejects the
   whole batch with nothing staged, then stage all entries back to back
   and force once at the end. Timestamps are assigned in arrival order, so
   interleaved appends to different log files keep their relative order. A
   device failure mid-batch aborts the remaining items; already-staged
   entries survive, exactly as separate appends interrupted at the same
   point would. *)
let append_batch_inner ?(force = false) st items =
  let* () =
    List.fold_left
      (fun acc { log; extra_members; payload } ->
        let* () = acc in
        let* () = validate_append_target st ~log extra_members in
        let header = Header.make ~extra_members log in
        let* active = State.active st in
        let max_payload0 =
          Block_format.max_payload_in_empty_block
            ~block_size:active.Vol.hdr.Volume.block_size ~header
        in
        if max_payload0 < 1 && String.length payload > 0 then
          Error (Errors.Entry_too_large (String.length payload))
        else Ok ())
      (Ok ()) items
  in
  let* timestamps =
    Writer.append_batch st
      (List.map (fun { log; extra_members; payload } -> (log, extra_members, payload)) items)
  in
  st.State.stats.Stats.entries_appended <-
    st.State.stats.Stats.entries_appended + List.length items;
  let* () = if force then Writer.force st else Ok () in
  Ok timestamps

let append_batch ?force st items =
  write_guarded st (fun () -> append_batch_inner ?force st items)

let force st = write_guarded st (fun () -> Writer.force st)

(* --------------------------------- reading ------------------------------ *)

let cursor_start st ~log = Reader.at_start st ~log
let cursor_end st ~log = Reader.at_end st ~log
let cursor_at st ~log pos = Reader.at_position st ~log pos

let cursor_at_time st ~log ts =
  let* pos = Time_index.seek st ts in
  Ok (Reader.at_position st ~log pos)

let next = Reader.next
let prev = Reader.prev

let first_entry st ~log = Reader.next (cursor_start st ~log)

let last_entry st ~log =
  let* c = cursor_end st ~log in
  Reader.prev c

let entry_at_or_after st ~log ts = Time_index.first_at_or_after st ~log ts
let entry_before st ~log ts = Time_index.last_before st ~log ts

let fold_entries st ~log ?from ~init f =
  let c =
    match from with
    | Some pos -> Reader.at_position st ~log pos
    | None -> Reader.at_start st ~log
  in
  let rec loop acc =
    let* e = Reader.next c in
    match e with None -> Ok acc | Some e -> loop (f acc e)
  in
  loop init

(* ------------------------------ maintenance ----------------------------- *)

let scrub_block st ~vol ~block =
  let* v = State.vol st vol in
  match Vol.view_block v block with
  | Vol.Corrupted ->
    let* () = Errors.of_dev (v.Vol.io.Worm.Block_io.invalidate block) in
    st.State.badblock_queue <- block :: st.State.badblock_queue;
    Ok ()
  | Vol.Invalid -> Ok ()
  | Vol.Records _ -> Error (Errors.Bad_record "refusing to scrub a valid block")
  | Vol.Missing -> Error (Errors.Bad_record "refusing to scrub an unwritten block")

let set_volume_offline st ~vol =
  if vol < 0 || vol >= State.nvols st then Error (Errors.Volume_offline vol)
  else if vol = State.nvols st - 1 then
    Error (Errors.Bad_record "cannot shelve the active volume")
  else begin
    st.State.vols.(vol).Vol.online <- false;
    Ok ()
  end

let set_volume_online st ~vol =
  if vol < 0 || vol >= State.nvols st then Error (Errors.Volume_offline vol)
  else begin
    st.State.vols.(vol).Vol.online <- true;
    Ok ()
  end

let volume_online st ~vol =
  vol >= 0 && vol < State.nvols st && st.State.vols.(vol).Vol.online

let set_auto_mount st flag = st.State.auto_mount <- flag
let auto_mounts st = st.State.mounts

let fsck ?verify_entrymap st = Fsck.check ?verify_entrymap st

let stats st = st.State.stats
let config st = st.State.config
let nvols st = State.nvols st

let volume_blocks_used st =
  Array.fold_left
    (fun acc v -> acc + Vol.device_frontier v)
    0 st.State.vols

let state st = st

(* ----------------------------- observability ----------------------------- *)

let obs st = st.State.obs
let metrics st = st.State.obs.Obs.metrics

let set_tracing st flag = Obs.Trace.set_enabled st.State.obs.Obs.trace flag
let tracing st = Obs.Trace.enabled st.State.obs.Obs.trace
let set_trace_sink st sink = Obs.Trace.set_sink st.State.obs.Obs.trace sink
let trace_spans st = Obs.Trace.spans st.State.obs.Obs.trace
let trace_jsonl st = Obs.Trace.to_jsonl st.State.obs.Obs.trace
let clear_trace st = Obs.Trace.clear st.State.obs.Obs.trace

let cache_totals st =
  Array.fold_left
    (fun (h, m, r) v ->
      let c = v.Vol.cache in
      (h + Blockcache.Cache.hits c, m + Blockcache.Cache.misses c, r + Blockcache.Cache.resident c))
    (0, 0, 0) st.State.vols

(* Per-partition aggregate across all mounted volumes' segmented caches. *)
let segment_totals st =
  Array.fold_left
    (fun (acc : Blockcache.Cache.segment_stats) v ->
      let s = Blockcache.Cache.segments v.Vol.cache in
      {
        Blockcache.Cache.meta_hits = acc.meta_hits + s.Blockcache.Cache.meta_hits;
        meta_misses = acc.meta_misses + s.Blockcache.Cache.meta_misses;
        data_hits = acc.data_hits + s.Blockcache.Cache.data_hits;
        data_misses = acc.data_misses + s.Blockcache.Cache.data_misses;
        meta_resident = acc.meta_resident + s.Blockcache.Cache.meta_resident;
        probation_resident = acc.probation_resident + s.Blockcache.Cache.probation_resident;
        protected_resident = acc.protected_resident + s.Blockcache.Cache.protected_resident;
        meta_evictions = acc.meta_evictions + s.Blockcache.Cache.meta_evictions;
        data_evictions = acc.data_evictions + s.Blockcache.Cache.data_evictions;
        promotions = acc.promotions + s.Blockcache.Cache.promotions;
      })
    {
      Blockcache.Cache.meta_hits = 0;
      meta_misses = 0;
      data_hits = 0;
      data_misses = 0;
      meta_resident = 0;
      probation_resident = 0;
      protected_resident = 0;
      meta_evictions = 0;
      data_evictions = 0;
      promotions = 0;
    }
    st.State.vols

let device_totals st =
  let acc = Worm.Dev_stats.create () in
  Array.iter
    (fun v ->
      let d = v.Vol.dev.Worm.Block_io.stats in
      acc.Worm.Dev_stats.reads <- acc.Worm.Dev_stats.reads + d.Worm.Dev_stats.reads;
      acc.Worm.Dev_stats.appends <- acc.Worm.Dev_stats.appends + d.Worm.Dev_stats.appends;
      acc.Worm.Dev_stats.invalidates <-
        acc.Worm.Dev_stats.invalidates + d.Worm.Dev_stats.invalidates;
      acc.Worm.Dev_stats.frontier_queries <-
        acc.Worm.Dev_stats.frontier_queries + d.Worm.Dev_stats.frontier_queries;
      acc.Worm.Dev_stats.bytes_read <- acc.Worm.Dev_stats.bytes_read + d.Worm.Dev_stats.bytes_read;
      acc.Worm.Dev_stats.bytes_written <-
        acc.Worm.Dev_stats.bytes_written + d.Worm.Dev_stats.bytes_written)
    st.State.vols;
  acc

let repl_obj st =
  let open Obs.Json in
  let s = st.State.stats in
  Obj
    [
      ("role", Str (State.role_name st.State.role));
      ("epoch", Int (State.role_epoch st.State.role));
      ("lag_blocks", Int st.State.repl_lag_blocks);
      ("blocks_shipped", Int s.Stats.repl_blocks_shipped);
      ("blocks_applied", Int s.Stats.repl_blocks_applied);
      ("tail_ships", Int s.Stats.repl_tail_ships);
      ("tail_applies", Int s.Stats.repl_tail_applies);
      ("catchup_rounds", Int s.Stats.repl_catchup_rounds);
      ("epoch_rejects", Int s.Stats.repl_epoch_rejects);
    ]

(* One schema for every export path ([clio_cli stats --json], BENCH_*.json,
   the RPC metrics call): the registry's counters/gauges/histograms plus the
   derived cache, device and volume sections. *)
let metrics_obj st =
  let open Obs.Json in
  let hits, misses, resident = cache_totals st in
  let d = device_totals st in
  match Obs.Metrics.to_json (metrics st) with
  | Obj fields ->
    Obj
      (fields
      @ [
          ("stats", Stats.to_json st.State.stats);
          ( "cache",
            let s = segment_totals st in
            Obj
              [
                ("hits", Int hits);
                ("misses", Int misses);
                ("resident", Int resident);
                ("meta_hits", Int s.Blockcache.Cache.meta_hits);
                ("meta_misses", Int s.Blockcache.Cache.meta_misses);
                ("data_hits", Int s.Blockcache.Cache.data_hits);
                ("data_misses", Int s.Blockcache.Cache.data_misses);
                ("meta_resident", Int s.Blockcache.Cache.meta_resident);
                ("probation_resident", Int s.Blockcache.Cache.probation_resident);
                ("protected_resident", Int s.Blockcache.Cache.protected_resident);
                ("meta_evictions", Int s.Blockcache.Cache.meta_evictions);
                ("data_evictions", Int s.Blockcache.Cache.data_evictions);
                ("promotions", Int s.Blockcache.Cache.promotions);
              ] );
          ("read_memo", Obj [ ("resident", Int (Read_memo.resident st.State.read_memo)) ]);
          ( "device",
            Obj
              [
                ("reads", Int d.Worm.Dev_stats.reads);
                ("appends", Int d.Worm.Dev_stats.appends);
                ("invalidates", Int d.Worm.Dev_stats.invalidates);
                ("frontier_queries", Int d.Worm.Dev_stats.frontier_queries);
                ("bytes_read", Int d.Worm.Dev_stats.bytes_read);
                ("bytes_written", Int d.Worm.Dev_stats.bytes_written);
              ] );
          ( "volumes",
            Obj [ ("count", Int (nvols st)); ("blocks_used", Int (volume_blocks_used st)) ] );
          ("breaker", Breaker.to_json st.State.breaker);
          ("repl", repl_obj st);
        ])
  | other -> other

let metrics_json st = Obs.Json.to_string_pretty (metrics_obj st)

let dump_metrics ppf st =
  Obs.Metrics.pp ppf (metrics st);
  let hits, misses, resident = cache_totals st in
  let s = segment_totals st in
  Format.fprintf ppf
    "@\ncache: hits=%d misses=%d resident=%d (meta %d/%d, probation %d, protected %d, promotions %d)"
    hits misses resident s.Blockcache.Cache.meta_hits s.Blockcache.Cache.meta_misses
    s.Blockcache.Cache.probation_resident s.Blockcache.Cache.protected_resident
    s.Blockcache.Cache.promotions;
  Format.fprintf ppf "@\nread_memo: resident=%d" (Read_memo.resident st.State.read_memo);
  let d = device_totals st in
  Format.fprintf ppf "@\ndevice: %a" Worm.Dev_stats.pp d;
  Format.fprintf ppf "@\nbreaker: %a" Breaker.pp st.State.breaker

let dump_trace ppf st =
  List.iter
    (fun (s : Obs.Trace.span) ->
      Format.fprintf ppf "+%-10d %s%s (%d us)@\n" s.Obs.Trace.start_us
        (String.make (2 * s.Obs.Trace.depth) ' ')
        s.Obs.Trace.name s.Obs.Trace.dur_us)
    (trace_spans st)
