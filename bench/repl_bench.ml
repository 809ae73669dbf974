(* Replication: what the lag costs and what batching buys back. The
   shipped unit is the verbatim device block, so replication traffic is
   pure block streaming and its cost is round-trip bound — exactly the
   IPC-floor story of the paper's section 3, replayed over [Repl_blocks].

   Three phases:
     lag      - a replica synced after every burst; rows sweep the batch
                size at the paper's two IPC latencies and report the worst
                observed lag plus the round trips and modeled time spent
                keeping up.
     catchup  - the replica is offline for the whole write phase, then one
                drain ships the entire backlog; throughput is the settled
                backlog over the modeled wall time.
     read     - the replica's device reads for one fold of a sparse log
                after a 1-block shipment, at two volume sizes. The replica
                catches its one server up in place, so the cost is the
                shipped block plus at most one entrymap descent, whatever
                the volume size.

   Every row re-verifies the invariants CI enforces: the replica's volumes
   byte-identical to the primary's ([diverged] = false) and no block ever
   shipped twice below a received ack ([reshipped] = 0). *)

type row = {
  phase : string;
  batch_blocks : int;
  ipc_us : int64;
  blocks : int;  (** settled blocks shipped to the replica *)
  round_trips : int;
  modeled_ms : float;
  max_lag : int;
  reshipped : int;
  diverged : bool;
}

let capacity = 65536

let mk_replica config =
  Repl.Replica.create ~config ~nvram:(Worm.Nvram.create ())
    ~clock:(Sim.Clock.simulated ())
    ~alloc:(fun ~vol_index:_ ->
      Ok
        (Worm.Mem_device.io
           (Worm.Mem_device.create ~block_size:config.Clio.Config.block_size ~capacity ())))
    ~primary_hint:"bench-primary" ()

let io_image (io : Worm.Block_io.t) =
  let frontier = match io.Worm.Block_io.frontier () with Some x -> x | None -> 0 in
  List.init frontier (fun i ->
      match io.Worm.Block_io.read i with Ok b -> Bytes.to_string b | Error _ -> "<err>")

let check_diverged devices r =
  let prim = List.map Worm.Mem_device.io !devices in
  if List.length prim <> Repl.Replica.nvols r then true
  else
    List.exists
      (fun (i, pio) ->
        match Repl.Replica.device r i with
        | None -> true
        | Some rio -> io_image pio <> io_image rio)
      (List.mapi (fun i pio -> (i, pio)) prim)

let settled_blocks srv =
  let st = Clio.Server.state srv in
  Array.fold_left (fun acc v -> acc + Clio.Vol.device_frontier v) 0 st.Clio.State.vols

let payload i = Printf.sprintf "entry %06d: fifty bytes of log data, padded out...." i

let drain sh srv =
  let rec go k =
    Repl.Shipper.sync sh;
    if Clio.Server.repl_lag_blocks srv > 0 && k < 100 then go (k + 1)
  in
  go 0

(* [bursts] bursts of [per_burst] entries; sync after each burst when
   [sync_each], else only one drain at the end (the catch-up phase). *)
let run_one ~phase ~batch_blocks ~ipc_us ~bursts ~per_burst ~sync_each =
  let config =
    { Clio.Config.default with block_size = 256; repl_batch_blocks = batch_blocks }
  in
  let clock = Sim.Clock.simulated () in
  let devices = ref [] in
  let alloc ~vol_index:_ =
    let d = Worm.Mem_device.create ~block_size:256 ~capacity () in
    devices := !devices @ [ d ];
    Ok (Worm.Mem_device.io d)
  in
  let srv =
    Util.ok (Clio.Server.create ~config ~clock ~nvram:(Worm.Nvram.create ()) ~alloc_volume:alloc ())
  in
  let log = Util.ok (Clio.Server.create_log srv "/bench") in
  let r = mk_replica config in
  let transport = Uio.Transport.local ~latency_us:ipc_us ~clock (Repl.Replica.handler r) in
  let sh = Repl.Shipper.create srv [ ("replica", transport) ] in
  let before = Uio.Transport.counters transport in
  let sim0 = Sim.Clock.peek clock in
  let max_lag = ref 0 in
  let n = ref 0 in
  for _ = 1 to bursts do
    for _ = 1 to per_burst do
      incr n;
      ignore (Util.ok (Clio.Server.append srv ~log (payload !n)))
    done;
    ignore (Util.ok (Clio.Server.force srv));
    let lag = settled_blocks srv - Repl.Replica.blocks_applied r in
    if lag > !max_lag then max_lag := lag;
    if sync_each then drain sh srv
  done;
  drain sh srv;
  let after = Uio.Transport.counters transport in
  let d = Uio.Transport.diff ~after ~before in
  ( srv,
    {
      phase;
      batch_blocks;
      ipc_us;
      blocks = settled_blocks srv;
      round_trips = d.Uio.Transport.round_trips;
      modeled_ms = Int64.to_float (Int64.sub (Sim.Clock.peek clock) sim0) /. 1000.0;
      max_lag = !max_lag;
      reshipped = Repl.Shipper.reshipped sh;
      diverged = check_diverged devices r;
    } )

type read_row = {
  vol_blocks : int;  (** settled blocks on the volume before the shipment *)
  fanout : int;
  levels : int;
  shipped : int;  (** blocks in the shipment before the measured fold *)
  warm_reads : int;  (** device reads of a repeated fold, no shipment between *)
  fold_reads : int;  (** device reads of the fold after the shipment *)
  read_reshipped : int;
  read_diverged : bool;
}

let replica_reads r =
  List.fold_left
    (fun acc i ->
      match Repl.Replica.device r i with
      | Some d -> acc + d.Worm.Block_io.stats.Worm.Dev_stats.reads
      | None -> acc)
    0
    (List.init (Repl.Replica.nvols r) Fun.id)

(* A bulk log fills one block per entry; a sparse log gets an entry every
   50 blocks. The replica is converged and has folded the sparse log once
   before the measured shipment. *)
let read_one ~blocks =
  let config = { Clio.Config.default with block_size = 256 } in
  let clock = Sim.Clock.simulated () in
  let devices = ref [] in
  let alloc ~vol_index:_ =
    let d = Worm.Mem_device.create ~block_size:256 ~capacity () in
    devices := !devices @ [ d ];
    Ok (Worm.Mem_device.io d)
  in
  let srv =
    Util.ok (Clio.Server.create ~config ~clock ~nvram:(Worm.Nvram.create ()) ~alloc_volume:alloc ())
  in
  let bulk = Util.ok (Clio.Server.create_log srv "/bulk") in
  let sparse = Util.ok (Clio.Server.create_log srv "/sparse") in
  let r = mk_replica config in
  let transport = Uio.Transport.local ~latency_us:1000L ~clock (Repl.Replica.handler r) in
  let sh = Repl.Shipper.create srv [ ("replica", transport) ] in
  let bulk_entry () = ignore (Util.ok (Clio.Server.append srv ~log:bulk (String.make 200 'b'))) in
  let n = ref 0 in
  while settled_blocks srv < blocks do
    incr n;
    if !n mod 50 = 0 then ignore (Util.ok (Clio.Server.append srv ~log:sparse (payload !n)));
    bulk_entry ()
  done;
  ignore (Util.ok (Clio.Server.force srv));
  drain sh srv;
  let fold () =
    let before = replica_reads r in
    let rsrv = Util.ok (Repl.Replica.server r) in
    ignore (Util.ok (Clio.Server.fold_entries rsrv ~log:sparse ~init:0 (fun k _ -> k + 1)));
    replica_reads r - before
  in
  ignore (fold ());
  let warm_reads = fold () in
  let vol_blocks = settled_blocks srv in
  while settled_blocks srv = vol_blocks do
    bulk_entry ()
  done;
  let applied = Repl.Replica.blocks_applied r in
  drain sh srv;
  let shipped = Repl.Replica.blocks_applied r - applied in
  let fold_reads = fold () in
  let v = Util.ok (Clio.State.active (Clio.Server.state srv)) in
  {
    vol_blocks;
    fanout = Clio.Vol.fanout v;
    levels = Clio.Vol.levels v;
    shipped;
    warm_reads;
    fold_reads;
    read_reshipped = Repl.Shipper.reshipped sh;
    read_diverged = check_diverged devices r;
  }

let run () =
  Util.section "REPLICATION - lag vs batch size, catch-up throughput, read cost";
  let quick = Util.quick () in
  let bursts = if quick then 6 else 20 in
  let per_burst = if quick then 50 else 200 in
  let batches = if quick then [ 8; 32 ] else [ 1; 8; 32; 128 ] in
  let ipcs = [ 1000L; 3000L ] in
  let lag_runs =
    List.concat_map
      (fun batch_blocks ->
        List.map
          (fun ipc_us ->
            run_one ~phase:"lag" ~batch_blocks ~ipc_us ~bursts ~per_burst ~sync_each:true)
          ipcs)
      batches
  in
  let catchup_runs =
    List.map
      (fun ipc_us ->
        run_one ~phase:"catchup" ~batch_blocks:32 ~ipc_us ~bursts ~per_burst ~sync_each:false)
      ipcs
  in
  let runs = lag_runs @ catchup_runs in
  let rows = List.map snd runs in
  let catchup_rows = List.map snd catchup_runs in
  let columns =
    [ "phase"; "batch"; "IPC"; "blocks"; "round trips"; "modeled"; "max lag"; "reshipped"; "ok" ]
  in
  Util.table ~columns
    (List.map
       (fun r ->
         [
           r.phase;
           string_of_int r.batch_blocks;
           Printf.sprintf "%.1f ms" (Int64.to_float r.ipc_us /. 1000.0);
           string_of_int r.blocks;
           string_of_int r.round_trips;
           Printf.sprintf "%.1f ms" r.modeled_ms;
           string_of_int r.max_lag;
           string_of_int r.reshipped;
           (if r.diverged then "DIVERGED" else "byte-identical");
         ])
       rows);
  List.iter
    (fun r ->
      if r.diverged then failwith "replication bench: replica diverged from primary";
      if r.reshipped <> 0 then failwith "replication bench: acked blocks were re-shipped")
    rows;
  (match catchup_rows with
  | r :: _ when r.modeled_ms > 0.0 ->
    Printf.printf "  catch-up throughput at %.1f ms IPC: %.0f blocks/s (modeled)\n"
      (Int64.to_float r.ipc_us /. 1000.0)
      (float_of_int r.blocks /. (r.modeled_ms /. 1000.0))
  | _ -> ());
  let read_rows = List.map (fun blocks -> read_one ~blocks) [ 200; 3000 ] in
  Util.table
    ~columns:
      [ "volume blocks"; "shipped"; "warm fold reads"; "fold reads after shipment"; "fanout x levels" ]
    (List.map
       (fun r ->
         [
           string_of_int r.vol_blocks;
           string_of_int r.shipped;
           string_of_int r.warm_reads;
           string_of_int r.fold_reads;
           string_of_int (r.fanout * r.levels);
         ])
       read_rows);
  List.iter
    (fun r ->
      if r.read_diverged then failwith "replication bench: replica diverged from primary")
    read_rows;
  (* JSON export for CI: one row object per table row; the validator
     asserts no row diverged, reshipped stays 0 and the larger volume's
     read row costs at most fanout x levels more than the smaller's. The
     embedded metrics come from the last lag run's primary, whose "repl"
     section carries the ship/lag counters. *)
  let metrics_srv = fst (List.nth runs (List.length lag_runs - 1)) in
  let json_rows =
    List.map
      (fun r ->
        Obs.Json.Obj
          [
            ("phase", Obs.Json.Str r.phase);
            ("batch_blocks", Obs.Json.Int r.batch_blocks);
            ("ipc_us", Obs.Json.Int (Int64.to_int r.ipc_us));
            ("blocks", Obs.Json.Int r.blocks);
            ("round_trips", Obs.Json.Int r.round_trips);
            ("modeled_ms", Obs.Json.Float r.modeled_ms);
            ("max_lag", Obs.Json.Int r.max_lag);
            ("reshipped", Obs.Json.Int r.reshipped);
            ("diverged", Obs.Json.Bool r.diverged);
          ])
      rows
    @ List.map
        (fun r ->
          Obs.Json.Obj
            [
              ("phase", Obs.Json.Str "read");
              ("blocks", Obs.Json.Int r.vol_blocks);
              ("fanout", Obs.Json.Int r.fanout);
              ("levels", Obs.Json.Int r.levels);
              ("shipped_blocks", Obs.Json.Int r.shipped);
              ("warm_device_reads", Obs.Json.Int r.warm_reads);
              ("fold_device_reads", Obs.Json.Int r.fold_reads);
              ("reshipped", Obs.Json.Int r.read_reshipped);
              ("diverged", Obs.Json.Bool r.read_diverged);
            ])
        read_rows
  in
  Util.emit_bench_json ~name:"repl" ~rows:json_rows metrics_srv
