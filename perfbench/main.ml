(* Client-to-device benchmark of the Clio log service.

     main.exe --workload ingest|lookup|mixed-replica --seed N --seconds S --trace 0|1

   With --trace 0 one untraced run prints every end-to-end metric by
   name, with its unit and clock domain, then one JSON line holding the
   end-to-end metrics listed in BENCHMARK.json. With --trace 1 an
   untraced and a traced run of S/2 seconds each print the per-layer
   metrics, the per-layer self times and the tracing overhead, then one
   JSON line holding the per-layer metrics. The exit code is 1 when any
   correctness check failed. *)

open Perfbench

let usage =
  "main.exe --workload ingest|lookup|mixed-replica --seed N --seconds S --trace 0|1"

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " ingest, lookup or mixed-replica");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " length of the measured phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

(* The end-to-end run sets up several times and reports the median
   set-up time; the per-layer runs set up once. *)
let run ~traced ~search ~setups ~fill s =
  let phase = { Workloads.seconds = s; traced; setups; fill } in
  let seed = Int64.of_int !seed in
  match !workload with
  | "ingest" -> Workloads.ingest ~seed phase ~search
  | "lookup" -> Workloads.lookup ~seed phase
  | "mixed-replica" -> Workloads.mixed ~seed ~blocks:Workloads.mixed_blocks phase
  | w ->
    prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
    exit 2

(* ---------- printing ---------- *)

type metric = { name : string; value : float; unit : string; clock : string; note : string }

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let json_metrics ms =
  String.concat ","
    (List.map
       (fun m -> Printf.sprintf {|"%s":{"value":%.17g,"unit":"%s"}|} m.name m.value m.unit)
       ms)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-38s %14.4f %-10s %-8s %s\n" m.name m.value m.unit m.clock m.note)
    ms

let print_result (o : Workloads.outcome) ms =
  let c = o.ctx in
  let ms =
    List.map
      (fun m ->
        if Float.is_finite m.value then m
        else begin
          Workloads.fail c (Printf.sprintf "metric %s is not a finite number" m.name);
          { m with value = 0. }
        end)
      ms
  in
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) (List.rev c.errors);
  Printf.printf "%s\n%!"
    (Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} (c.failed = 0)
       c.attempted c.failed (json_metrics ms));
  exit (if c.failed = 0 then 0 else 1)

(* Refused percentiles, printed after the table. *)
let refused = ref []

let pct_metric name s q ~unit =
  if s = [||] then None
  else
    match Derived.percentile (Derived.sort s) q with
    | Ok p ->
      Some { name; value = p.value; unit; clock = "modeled"; note = Printf.sprintf "n=%d, %d beyond" p.n p.beyond }
    | Error why ->
      refused := (name, why) :: !refused;
      None

(* ---------- end to end ---------- *)

let end_to_end () =
  (* About 1 to 3.5 s of set-ups: each is timed over a few calibration
     windows only, so the median needs many of the short ones. *)
  let setups = match !workload with "ingest" -> 21 | "lookup" -> 5 | _ -> 7 in
  let o = run ~traced:false ~search:true ~setups ~fill:true !seconds in
  let c = o.ctx in
  let v = Workloads.values in
  let kinds = Workloads.kind_values c in
  let all = kinds Workloads.all_kinds in
  let setup_s = Derived.middle (List.map (fun (t : Speed.timing) -> t.norm_s) o.setup) in
  let setup_wall_s = Derived.middle (List.map (fun (t : Speed.timing) -> t.wall_s) o.setup) in
  let ops_per_s = div (fi o.ops) o.norm_s in
  let opt = List.filter_map Fun.id in
  let headline =
    opt
      [
        Some
          {
            name = "ops_per_s";
            value = ops_per_s;
            unit = "1/s";
            clock = "wall";
            note = Printf.sprintf "%d ops in %.2f s at reference speed" o.ops o.norm_s;
          };
        Some
          {
            name = "latency_mean_ms";
            value = div (Array.fold_left ( +. ) 0. all) (fi (Array.length all));
            unit = "ms";
            clock = "modeled";
            note = Printf.sprintf "n=%d" (Array.length all);
          };
        (* A gated metric: a run that cannot report it fails. *)
        (match pct_metric "latency_p99_ms" all 0.99 ~unit:"ms" with
        | Some _ as m -> m
        | None ->
          Workloads.fail c
            ("latency_p99_ms " ^ Option.value ~default:"refused: no samples" (List.assoc_opt "latency_p99_ms" !refused));
          None);
        Some
          {
            name = "space_amp";
            value = Derived.middle o.space_amp;
            unit = "ratio";
            clock = "count";
            note = Printf.sprintf "medium bytes / client payload bytes, median of %d stores" (List.length o.space_amp);
          };
        Some
          {
            name = "heap_live_mb";
            value = o.heap_live_mb;
            unit = "MiB";
            clock = "count";
            note = "live heap after a full GC, at the end of the measured phase";
          };
        Some
          {
            name = "setup_s";
            value = setup_s;
            unit = "s";
            clock = "wall";
            note = Printf.sprintf "median of %d set-ups at reference speed" (List.length o.setup);
          };
      ]
  in
  let detail =
    opt
      [
        Some
          {
            name = "ops_per_wall_s";
            value = div (fi o.ops) o.wall_s;
            unit = "1/s";
            clock = "wall";
            note = Printf.sprintf "%d ops in %.2f s as measured" o.ops o.wall_s;
          };
        Some
          {
            name = "setup_wall_s";
            value = setup_wall_s;
            unit = "s";
            clock = "wall";
            note = "median of the same set-ups as measured";
          };
        Some
          {
            name = "machine_speed";
            value = o.speed;
            unit = "ratio";
            clock = "wall";
            note = "calibration loop speed in the measured phase, median over rounds; 1 = reference";
          };
        pct_metric "latency_p50_ms" all 0.5 ~unit:"ms";
        pct_metric "append_p50_ms" (kinds [ "append" ]) 0.5 ~unit:"ms";
        pct_metric "append_p99_ms" (kinds [ "append" ]) 0.99 ~unit:"ms";
        pct_metric "lookup_p50_ms" (kinds Workloads.reads) 0.5 ~unit:"ms";
        pct_metric "lookup_p99_ms" (kinds Workloads.reads) 0.99 ~unit:"ms";
        pct_metric "scan_p50_ms" (kinds [ "scan" ]) 0.5 ~unit:"ms";
        pct_metric "scan_p90_ms" (kinds [ "scan" ]) 0.9 ~unit:"ms";
        pct_metric "issue_lag_p99_ms" (v o.issue_lag_ms) 0.99 ~unit:"ms";
        Some
          {
            name = "recovery_ms";
            value = Derived.middle o.recovery_us /. 1000.;
            unit = "ms";
            clock = "modeled";
            note = Printf.sprintf "Server.recover on a store's final devices, median of %d" (List.length o.recovery_us);
          };
        Option.map
          (fun r -> { name = "ingest_max_rate"; value = r; unit = "appends/s"; clock = "modeled"; note = "p99 <= 50 ms, backlog bounded" })
          o.max_rate;
        Some
          {
            name = "error_rate";
            value = div (fi c.failed) (fi c.attempted);
            unit = "ratio";
            clock = "count";
            note = Printf.sprintf "%d of %d" c.failed c.attempted;
          };
      ]
  in
  let by_kind =
    List.concat_map
      (fun k ->
        opt
          [
            pct_metric (k ^ "_p50_ms") (kinds [ k ]) 0.5 ~unit:"ms";
            pct_metric (k ^ "_p90_ms") (kinds [ k ]) 0.9 ~unit:"ms";
          ])
      (List.filter (fun k -> Hashtbl.mem c.kinds k) Workloads.all_kinds)
  in
  print_table (Printf.sprintf "workload %s, seed %d: end-to-end" !workload !seed) (headline @ detail @ by_kind);
  List.iter (fun (name, why) -> Printf.printf "  %-38s %s\n" name why) (List.rev !refused);
  print_result o headline

(* ---------- per layer ---------- *)

let codec_ns_per_msg pairs =
  if pairs = [] then 0.
  else begin
    let replay () =
      List.iter
        (fun (req, resp) ->
          (match Uio.Message.decode_request req with
          | Ok r -> ignore (Sys.opaque_identity (Uio.Message.encode_request r))
          | Error _ -> ());
          match Uio.Message.decode_response resp with
          | Ok r -> ignore (Sys.opaque_identity (Uio.Message.encode_response r))
          | Error _ -> ())
        pairs
    in
    let t0 = Tracer.wall_ns () in
    let reps = ref 0 in
    while Int64.sub (Tracer.wall_ns ()) t0 < 200_000_000L do
      replay ();
      incr reps
    done;
    Int64.to_float (Int64.sub (Tracer.wall_ns ()) t0) /. fi (2 * List.length pairs * !reps)
  end

let per_layer () =
  let half = !seconds /. 2. in
  let plain = run ~traced:false ~search:false ~setups:1 ~fill:false half in
  let o = run ~traced:true ~search:false ~setups:1 ~fill:false half in
  let c = o.ctx and x = o.delta in
  let tr = c.tr in
  let d = Workloads.counters_add x.prim tr.replica in
  let per_recovery f = div (fi (List.fold_left (fun acc r -> acc + f r) 0 o.recovery)) (fi (List.length o.recovery)) in
  let s = d.stats in
  let ops = fi o.ops in
  let self layer = Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt tr.self_ns layer)) /. 1000. in
  let client_kb = fi s.bytes_client /. 1024. in
  let seg = d.seg in
  let m name unit clock value = { name; value; unit; clock; note = "" } in
  let ms =
    [
      m "client.self_us_per_op" "us/op" "wall" (div (self "uio.client") ops);
      m "client.retries" "count" "count" (fi x.retries);
      m "transport.round_trips_per_op" "count/op" "count" (div (fi x.rt) ops);
      m "transport.bytes_per_op" "B/op" "count" (div (fi x.wire_bytes) ops);
      m "transport.ipc_share" "ratio" "modeled" (div (Int64.to_float tr.ipc_us) (Int64.to_float tr.latency_us));
      m "message.codec_ns_per_msg" "ns/msg" "wall" (codec_ns_per_msg o.ctx.st.capture.pairs);
      m "rpc_server.self_us_per_op" "us/op" "wall" (div (self "uio.rpc_server") ops);
      m "rpc_server.cursor_expired" "count" "count" (fi c.cursor_expired);
      m "writer.overhead_bytes_per_kb" "B/KiB" "count" (div (fi (Clio.Stats.overhead_bytes s)) client_kb);
      m "writer.entrymap_bytes_per_kb" "B/KiB" "count" (div (fi s.bytes_entrymap) client_kb);
      m "writer.padding_bytes" "B" "count" (fi s.bytes_padding);
      m "writer.forces" "count" "count" (fi s.forces);
      m "writer.nvram_syncs" "count" "count" (fi s.nvram_syncs);
      m "time_index.probe_reads_per_seek" "count/seek" "count" (div (fi s.time_probe_reads) (fi d.time_seeks));
      m "locate.entrymap_examined_per_locate" "count/locate" "count" (div (fi s.entrymap_records_examined) (fi d.locates));
      m "locate.block_reads_per_locate" "count/locate" "count" (div (fi s.locate_block_reads) (fi d.locates));
      m "locate.fallback_blocks_scanned" "count" "count" (fi s.fallback_blocks_scanned);
      m "read_memo.locate_hits_per_op" "count/op" "count" (div (fi s.locate_memo_hits) ops);
      m "read_memo.entrymap_hits_per_op" "count/op" "count" (div (fi s.entrymap_memo_hits) ops);
      m "reader.device_reads_per_entry" "count/entry" "count" (div (fi x.dev_reads) (fi s.entries_read));
      m "reader.readahead_blocks_per_batch" "count/batch" "count" (div (fi s.readahead_blocks) (fi s.readahead_batches));
      m "recovery.blocks_examined" "count" "count" (per_recovery (fun r -> r.recovery_blocks_examined));
      m "recovery.frontier_probe_reads" "count" "count" (per_recovery (fun r -> r.frontier_probe_reads));
      m "cache.data_hit_ratio" "ratio" "count" (div (fi seg.data_hits) (fi (seg.data_hits + seg.data_misses)));
      m "cache.meta_hit_ratio" "ratio" "count" (div (fi seg.meta_hits) (fi (seg.meta_hits + seg.meta_misses)));
      m "cache.data_evictions" "count" "count" (fi seg.data_evictions);
      m "cache.promotions" "count" "count" (fi seg.promotions);
      m "device.reads_per_op" "count/op" "count" (div (fi x.dev_reads) ops);
      m "device.seeks_per_op" "count/op" "count" (div (fi x.seeks) ops);
      m "device.busy_share" "ratio" "modeled" (div (fi x.busy) (fi x.clock));
      m "device.bytes_written_per_client_byte" "ratio" "count" (div (fi x.bytes_written) (fi x.payload));
      m "device.flushes" "count" "count" (fi x.flushes);
      m "device.self_us_per_op" "us/op" "wall" (div (self Derived.device_layer) ops);
      m "shipper.blocks_per_sync" "count/sync" "count" (div (fi s.repl_blocks_shipped) (fi tr.syncs));
      m "shipper.round_trips_per_sync" "count/sync" "count" (div (fi tr.ship_rt) (fi tr.syncs));
      m "replica.device_reads_per_read" "count/read" "count" (div (fi tr.replica_dev_reads) (fi tr.replica_reads));
      m "replica.self_us_per_read" "us/read" "wall" (div (Int64.to_float tr.replica_self_ns /. 1000.) (fi tr.replica_reads));
      m "trace.ops_per_s_ratio" "ratio" "wall" (div (div ops o.norm_s) (div (fi plain.ops) plain.norm_s));
    ]
  in
  print_table
    (Printf.sprintf "workload %s, seed %d: per layer (traced run, %d ops in %.2f s)" !workload !seed o.ops o.wall_s)
    ms;
  Printf.printf "modeled ledger over %d client requests: latency %Ld us = ipc %Ld + device %Ld + ticks %Ld\n"
    tr.requests tr.latency_us tr.ipc_us tr.device_us tr.tick_us;
  Printf.printf "wall self time per layer (client requests, us/op):\n";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tr.self_ns []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "  %-20s %10.2f\n" k (div (Int64.to_float v /. 1000.) ops));
  (try Sys.mkdir ".perfbench_out" 0o755 with Sys_error _ -> ());
  Tracer.write_jsonl c.st.tracer
    (Printf.sprintf ".perfbench_out/trace-%s-%d.jsonl" !workload !seed);
  (* Fold the untraced run's checks into the verdict too. *)
  c.errors <- c.errors @ plain.ctx.errors;
  c.failed <- c.failed + plain.ctx.failed;
  c.attempted <- c.attempted + plain.ctx.attempted;
  print_result o ms

let () =
  if !workload = "" then begin
    prerr_endline usage;
    exit 2
  end;
  if !trace = 0 then end_to_end () else per_layer ()
