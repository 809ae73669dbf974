(* Read-path overhaul proof: cold vs warm locate curves (the locate memo
   must drive repeated descents to zero device reads), sequential-scan
   throughput with batched read-ahead on the timed device (fewer seeks for
   the same blocks), and probe counts of the time search on a store whose
   entries fragment. Writes BENCH_read.json; CI asserts warm < cold device
   reads, that the read-ahead run issues fewer seeks, and that no seek
   probes more than fanout x levels blocks. *)

let dev_reads_of_fixture (f : Util.fixture) =
  List.fold_left
    (fun acc d -> acc + (Worm.Mem_device.io d).Worm.Block_io.stats.Worm.Dev_stats.reads)
    0
    !(f.Util.devices)

(* Drop only the block cache, keeping the memo: the "warm" rows measure what
   the memo buys once buffers are gone. *)
let drop_block_cache_only srv =
  let st = Clio.Server.state srv in
  Array.iter (fun v -> Blockcache.Cache.drop v.Clio.Vol.cache) st.Clio.State.vols

(* ------------------------ cold vs warm locates ------------------------ *)

let locate_rows () =
  Util.subsection "locate: cold descent vs memoized repeat (device reads)";
  let distances = if Util.quick () then [ 10; 200 ] else [ 10; 100; 1_000; 10_000 ] in
  let fanout = 16 in
  let p = Util.build_planted ~fanout ~block_size:256 ~distances () in
  let srv = p.Util.f.Util.srv in
  let columns =
    [ "d (blocks)"; "cold dev reads"; "cold examined"; "warm dev reads"; "memo hits" ]
  in
  let measure log =
    let st = Clio.Server.state srv in
    let v = Util.ok (Clio.State.active st) in
    Util.ok (Clio.Locate.prev_block st v ~log ~before:max_int)
  in
  let rows =
    List.map
      (fun (_, d_act, log) ->
        (* Fully cold: no block cache, no memo. *)
        Util.drop_caches srv;
        let r0 = dev_reads_of_fixture p.Util.f in
        let s0 = Clio.Stats.snapshot (Clio.Server.stats srv) in
        let found_cold = measure log in
        let cold_reads = dev_reads_of_fixture p.Util.f - r0 in
        let cold_examined =
          (Clio.Server.stats srv).Clio.Stats.entrymap_records_examined
          - s0.Clio.Stats.entrymap_records_examined
        in
        (* Warm memo, cold buffers: the repeat must not touch the device. *)
        drop_block_cache_only srv;
        let r1 = dev_reads_of_fixture p.Util.f in
        let h0 = (Clio.Server.stats srv).Clio.Stats.locate_memo_hits in
        let found_warm = measure log in
        let warm_reads = dev_reads_of_fixture p.Util.f - r1 in
        let memo_hits = (Clio.Server.stats srv).Clio.Stats.locate_memo_hits - h0 in
        assert (found_cold = found_warm);
        (d_act, cold_reads, cold_examined, warm_reads, memo_hits))
      p.Util.targets
  in
  Util.table ~columns
    (List.map
       (fun (d, cr, ce, wr, mh) ->
         [ string_of_int d; string_of_int cr; string_of_int ce; string_of_int wr;
           string_of_int mh ])
       rows);
  print_endline
    "  (a warm repeat answers from the skip index: zero device reads even with\n\
    \   the block cache emptied - the paper's fully-cached locate, made durable\n\
    \   against buffer churn)";
  ( srv,
    List.map
      (fun (d, cr, ce, wr, mh) ->
        Obs.Json.Obj
          [
            ("phase", Obs.Json.Str "locate");
            ("distance_blocks", Obs.Json.Int d);
            ("cold_device_reads", Obs.Json.Int cr);
            ("cold_entrymap_examined", Obs.Json.Int ce);
            ("warm_device_reads", Obs.Json.Int wr);
            ("memo_hits", Obs.Json.Int mh);
          ])
      rows )

(* --------------------- sequential scan + read-ahead --------------------- *)

(* Identical deterministic workload on a seek-charging device, scanned end to
   end through the cursor; only [read_ahead_blocks] differs between runs. A
   small cache forces the scan to the device, which is where batching pays:
   the timed device charges one seek per contiguous run. *)
let build_scan ~read_ahead ~entries =
  let block_size = 256 in
  let capacity = entries + (entries / 8) + 256 in
  let clock = Sim.Clock.simulated () in
  let base = Worm.Mem_device.create ~block_size ~capacity () in
  let timed =
    Worm.Timed_device.create ~clock ~model:Sim.Seek_model.optical (Worm.Mem_device.io base)
  in
  let alloc ~vol_index:_ = Ok (Worm.Timed_device.io timed) in
  let config =
    {
      Clio.Config.default with
      block_size;
      cache_blocks = 32;
      read_ahead_blocks = read_ahead;
    }
  in
  let srv = Util.ok (Clio.Server.create ~config ~clock ~alloc_volume:alloc ()) in
  let data = Util.ok (Clio.Server.ensure_log srv "/data") in
  let filler = String.make 170 'd' in
  for i = 1 to entries do
    ignore (Util.ok (Clio.Server.append srv ~log:data (filler ^ string_of_int i)))
  done;
  ignore (Util.ok (Clio.Server.force srv));
  (srv, timed, data)

let scan_row ~read_ahead ~entries =
  let srv, timed, data = build_scan ~read_ahead ~entries in
  Util.drop_caches srv;
  let st = Clio.Server.state srv in
  let r0 =
    Array.fold_left
      (fun acc v -> acc + v.Clio.Vol.dev.Worm.Block_io.stats.Worm.Dev_stats.reads)
      0 st.Clio.State.vols
  in
  let seeks0 = Worm.Timed_device.seeks timed in
  let busy0 = Worm.Timed_device.busy_us timed in
  let n =
    Util.ok (Clio.Server.fold_entries srv ~log:data ~init:0 (fun acc _ -> acc + 1))
  in
  let seeks = Worm.Timed_device.seeks timed - seeks0 in
  let busy_ms = Int64.to_float (Int64.sub (Worm.Timed_device.busy_us timed) busy0) /. 1000.0 in
  let reads =
    Array.fold_left
      (fun acc v -> acc + v.Clio.Vol.dev.Worm.Block_io.stats.Worm.Dev_stats.reads)
      0 st.Clio.State.vols
    - r0
  in
  let s = Clio.Server.stats srv in
  (read_ahead, n, seeks, busy_ms, reads, s.Clio.Stats.readahead_batches,
   s.Clio.Stats.readahead_blocks)

let scan_rows () =
  Util.subsection "sequential scan: batched read-ahead vs block-at-a-time (timed device)";
  let entries = if Util.quick () then 400 else 4_000 in
  let runs = [ scan_row ~read_ahead:0 ~entries; scan_row ~read_ahead:8 ~entries ] in
  let columns =
    [ "read-ahead"; "entries"; "seeks"; "modeled time"; "dev reads"; "batches"; "prefetched" ]
  in
  Util.table ~columns
    (List.map
       (fun (ra, n, seeks, busy_ms, reads, batches, blocks) ->
         [
           string_of_int ra;
           string_of_int n;
           string_of_int seeks;
           Printf.sprintf "%.1f ms" busy_ms;
           string_of_int reads;
           string_of_int batches;
           string_of_int blocks;
         ])
       runs);
  (match runs with
  | [ (_, _, s0, b0, _, _, _); (_, _, s1, b1, _, _, _) ] ->
    Printf.printf "  read-ahead=8: %.1fx fewer seeks, %.1fx less modeled device time\n"
      (float_of_int s0 /. float_of_int (max 1 s1))
      (b0 /. Float.max 0.001 b1)
  | _ -> ());
  List.map
    (fun (ra, n, seeks, busy_ms, reads, batches, blocks) ->
      Obs.Json.Obj
        [
          ("phase", Obs.Json.Str "scan");
          ("read_ahead_blocks", Obs.Json.Int ra);
          ("entries", Obs.Json.Int n);
          ("seeks", Obs.Json.Int seeks);
          ("busy_ms", Obs.Json.Float busy_ms);
          ("device_reads", Obs.Json.Int reads);
          ("readahead_batches", Obs.Json.Int batches);
          ("readahead_blocks", Obs.Json.Int blocks);
        ])
    runs

(* ------------------------ time search on fragments ------------------------ *)

(* Entries of 100-400 B in 256 B blocks: most blocks open with a continuation
   of the entry before, so they are keyed by the first entry that starts in
   them rather than by record 0. Each seek starts with the block cache and
   memo dropped, so a probe is a device read unless the seek revisits a
   block. *)
let seek_row ~entries =
  let f = Util.make_fixture ~capacity:((entries * 2) + 256) ~cache_blocks:64 () in
  let srv = f.Util.srv in
  let log = Util.ok (Clio.Server.ensure_log srv "/fragmented") in
  let stamps =
    Array.init entries (fun i ->
        Sim.Clock.advance f.Util.clock 100L;
        let len = 100 + (i * 7919 mod 301) in
        let payload = Printf.sprintf "%05d" i ^ String.make (len - 5) 'f' in
        Option.get (Util.ok (Clio.Server.append srv ~log payload)))
  in
  ignore (Util.ok (Clio.Server.force srv));
  let st = Clio.Server.state srv in
  let v = Util.ok (Clio.State.active st) in
  let blocks = Clio.Vol.written_limit v - 1 in
  let opens = ref 0 in
  for b = 1 to blocks do
    match Clio.Vol.view_block v b with
    | Clio.Vol.Records recs when Array.length recs > 0 ->
      if not (Clio.Header.is_start recs.(0).Clio.Block_format.header) then incr opens
    | _ -> ()
  done;
  let seeks = 16 in
  let probes = ref 0 and max_probes = ref 0 and reads = ref 0 in
  for k = 0 to seeks - 1 do
    let i = (k * entries / seeks) + (entries / (2 * seeks)) in
    Util.drop_caches srv;
    let p0 = (Clio.Server.stats srv).Clio.Stats.time_probe_reads in
    let r0 = dev_reads_of_fixture f in
    ignore (Util.ok (Clio.Time_index.seek st stamps.(i)));
    let p = (Clio.Server.stats srv).Clio.Stats.time_probe_reads - p0 in
    probes := !probes + p;
    max_probes := max !max_probes p;
    reads := !reads + (dev_reads_of_fixture f - r0);
    let e = Option.get (Util.ok (Clio.Server.entry_at_or_after srv ~log stamps.(i))) in
    assert (String.sub e.Clio.Reader.payload 0 5 = Printf.sprintf "%05d" i)
  done;
  ( entries,
    blocks,
    Clio.Vol.fanout v,
    Clio.Vol.levels v,
    float_of_int !probes /. float_of_int seeks,
    !max_probes,
    float_of_int !reads /. float_of_int seeks,
    float_of_int !opens /. float_of_int (max 1 blocks) )

let seek_rows () =
  Util.subsection "time search on a fragmented store: probes per cold seek";
  let sizes = if Util.quick () then [ 1_000; 8_000 ] else [ 8_000; 32_000 ] in
  let rows = List.map (fun entries -> seek_row ~entries) sizes in
  let columns =
    [ "entries"; "blocks"; "fanout x levels"; "probes/seek"; "max probes"; "dev reads/seek";
      "cont. share" ]
  in
  Util.table ~columns
    (List.map
       (fun (n, b, fo, lv, p, mp, r, c) ->
         [ string_of_int n; string_of_int b; Printf.sprintf "%d x %d" fo lv;
           Printf.sprintf "%.1f" p; string_of_int mp; Printf.sprintf "%.1f" r;
           Printf.sprintf "%.2f" c ])
       rows);
  print_endline
    "  (every block holding an entry start is keyed by that entry's timestamp,\n\
    \   so each probe reads one block even when most blocks open mid-entry)";
  List.map
    (fun (n, b, fo, lv, p, mp, r, c) ->
      Obs.Json.Obj
        [
          ("phase", Obs.Json.Str "seek");
          ("entries", Obs.Json.Int n);
          ("blocks", Obs.Json.Int b);
          ("fanout", Obs.Json.Int fo);
          ("levels", Obs.Json.Int lv);
          ("probe_reads_per_seek", Obs.Json.Float p);
          ("max_probe_reads", Obs.Json.Int mp);
          ("device_reads_per_seek", Obs.Json.Float r);
          ("continuation_share", Obs.Json.Float c);
        ])
    rows

let run () =
  Util.section
    "READ PATH - segmented cache, locate memoization, batched read-ahead, time search";
  let srv, locate_json = locate_rows () in
  let scan_json = scan_rows () in
  let seek_json = seek_rows () in
  Util.emit_bench_json ~name:"read" ~rows:(locate_json @ scan_json @ seek_json) srv
