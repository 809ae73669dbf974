(* End-to-end fault-tolerance soak: the full client/transport/server stack
   under a lossy transport (drops, duplicates, delays, resets) and faulty
   devices, across a fixed list of seeds. The invariant everything here
   defends: every acknowledged append is readable exactly once after
   recovery, with the timestamp it was acknowledged with — and a chaos run
   whose faults are transport-only leaves volumes byte-identical to a
   fault-free run of the same operations.

   Everything is deterministic per seed (Sim.Rng drives the fault schedule,
   the jitter and the workload), so a failure message carries the seed and
   replays exactly. *)

open Testkit

(* The CI seed list: fixed, so chaos runs are reproducible in CI and a
   violation names the seed that found it. *)
let seeds = List.init 60 (fun i -> Int64.of_int ((7919 * i) + 12345))

(* Patient retry policy for soaks: chaos may eat many attempts in a row and
   every operation must eventually be acknowledged. *)
let soak_retry =
  {
    Uio.Client.max_attempts = 10_000;
    deadline_us = 1_000_000_000_000L;
    base_backoff_us = 200L;
    max_backoff_us = 5_000L;
  }

(* ----------------------------- workload ----------------------------- *)

type op = { to_a : bool; data : string; force : bool }

(* The op list is computed from the seed BEFORE any faults happen, so the
   applied-operation sequence — and therefore every server timestamp — is
   identical between a chaos run and a fault-free run. *)
let ops_of_seed seed =
  let rng = Sim.Rng.create seed in
  let n = 40 + Sim.Rng.int rng 40 in
  List.init n (fun i ->
      let to_a = Sim.Rng.bool rng in
      let len = Sim.Rng.int rng 80 in
      let data =
        Printf.sprintf "s%Ld-%d-%s" seed i
          (String.make len (Char.chr (97 + (i mod 26))))
      in
      { to_a; data; force = Sim.Rng.chance rng 0.2 })

(* Drive the whole workload through a client; every call must be Ok (the
   retry loop hides the chaos). Returns the acked timestamp per op. *)
let drive ~seed client ops =
  let okc what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "seed %Ld: %s failed: %s" seed what (Clio.Errors.to_string e)
  in
  let a = okc "ensure /a" (Uio.Client.ensure_log client "/a") in
  let b = okc "ensure /b" (Uio.Client.ensure_log client "/b") in
  let acks =
    List.map
      (fun { to_a; data; force } ->
        let log = if to_a then a else b in
        okc "append" (Uio.Client.append ~force client ~log data))
      ops
  in
  okc "final force" (Uio.Client.force client);
  (a, b, acks)

let device_images f =
  List.map
    (fun io ->
      let cap = io.Worm.Block_io.capacity in
      List.init cap (fun i ->
          match io.Worm.Block_io.read i with Ok b -> Some (Bytes.to_string b) | Error _ -> None))
    (fixture_devices f)

let expected_payloads ops to_a =
  List.filter_map (fun op -> if op.to_a = to_a then Some op.data else None) ops

let read_back srv ~log =
  List.rev
    (ok
       (Clio.Server.fold_entries srv ~log ~init:[] (fun acc e ->
            (e.Clio.Reader.payload, e.Clio.Reader.timestamp) :: acc)))

(* Exactly-once + ack consistency on a (possibly recovered) server. *)
let check_log ~seed ~what srv ~log ops to_a acks =
  let expected = expected_payloads ops to_a in
  let entries = read_back srv ~log in
  let payloads = List.map fst entries in
  if payloads <> expected then
    Alcotest.failf "seed %Ld (%s): log %s entries diverge: got %d entries, want %d" seed what
      (if to_a then "/a" else "/b")
      (List.length payloads) (List.length expected);
  (* Each acked timestamp is the one read back for that op. *)
  let acked =
    List.concat
      (List.map2
         (fun op ack -> if op.to_a = to_a then [ (op.data, ack) ] else [])
         ops acks)
  in
  List.iter2
    (fun (data, ack) (payload, ts) ->
      if data <> payload || ack <> ts then
        Alcotest.failf "seed %Ld (%s): ack mismatch for %s" seed what data)
    acked entries

(* --------------------- soak 1: lossy transport --------------------- *)

(* A server whose own clock is distinct from the transport's: transport
   latency, chaos delays and client backoff then cannot perturb server
   timestamps, which depend only on the applied-op sequence — giving the
   byte-identity property something to hold onto. *)
let chaos_run seed =
  let f = make_fixture () in
  let rng = Sim.Rng.create (Int64.lognot seed) in
  let fault_rng = Sim.Rng.split rng in
  let jitter_rng = Sim.Rng.split rng in
  let rpc = Uio.Rpc_server.create f.srv in
  let transport_clock = Sim.Clock.simulated () in
  let inner =
    Uio.Transport.local ~latency_us:750L ~clock:transport_clock (Uio.Rpc_server.handle rpc)
  in
  let tr = Uio.Transport.lossy ~rng:fault_rng inner in
  let client = Uio.Client.connect ~retry:soak_retry ~rng:jitter_rng tr in
  (f, rpc, tr, client)

let plain_run seed =
  ignore seed;
  let f = make_fixture () in
  let rpc = Uio.Rpc_server.create f.srv in
  let transport_clock = Sim.Clock.simulated () in
  let inner =
    Uio.Transport.local ~latency_us:750L ~clock:transport_clock (Uio.Rpc_server.handle rpc)
  in
  (f, Uio.Client.connect inner)

let test_lossy_transport_soak () =
  let total_retries = ref 0 in
  let total_faults = ref 0 in
  let total_dedup = ref 0 in
  List.iter
    (fun seed ->
      let ops = ops_of_seed seed in
      (* Chaos run. *)
      let f, rpc, tr, client = chaos_run seed in
      let a, b, acks = drive ~seed client ops in
      (* Fault-free run of the same ops. *)
      let f0, client0 = plain_run seed in
      let a0, b0, acks0 = drive ~seed client0 ops in
      if (a, b) <> (a0, b0) then Alcotest.failf "seed %Ld: log ids diverge" seed;
      if acks <> acks0 then Alcotest.failf "seed %Ld: acked timestamps diverge" seed;
      if device_images f <> device_images f0 then
        Alcotest.failf "seed %Ld: volumes not byte-identical to the fault-free run" seed;
      (* Read counters before recovery replaces the server (and its metrics
         registry). *)
      total_dedup :=
        !total_dedup
        + Obs.Metrics.counter_value
            (Obs.Metrics.counter (Clio.Server.metrics f.srv) "rpc_dedup_hits");
      (* Exactly-once across a crash. *)
      let srv' = crash_and_recover f in
      check_log ~seed ~what:"chaos+recovery" srv' ~log:a ops true acks;
      check_log ~seed ~what:"chaos+recovery" srv' ~log:b ops false acks;
      let s = Uio.Client.stats client in
      total_retries := !total_retries + s.Uio.Client.retries;
      total_faults := !total_faults + Uio.Transport.total_faults tr;
      ignore rpc)
    seeds;
  (* The soak only means something if chaos actually bit. *)
  Alcotest.(check bool)
    (Printf.sprintf "faults injected (%d)" !total_faults)
    true (!total_faults > 100);
  Alcotest.(check bool)
    (Printf.sprintf "retries happened (%d)" !total_retries)
    true (!total_retries > 100);
  Alcotest.(check bool)
    (Printf.sprintf "dedup replays happened (%d)" !total_dedup)
    true (!total_dedup > 0)

(* ---------------- soak 2: lossy transport + bad media ---------------- *)

(* A fixture over Faulty_device-wrapped memory devices, recoverable. *)
type faulty_fixture = {
  mutable fsrv : Clio.Server.t;
  fconfig : Clio.Config.t;
  fclock : Sim.Clock.t;
  fnvram : Worm.Nvram.t option;
  fdevs : (int, Worm.Faulty_device.t) Hashtbl.t;
  falloc : vol_index:int -> (Worm.Block_io.t, Clio.Errors.t) result;
}

let make_faulty_fixture ?(config = Clio.Config.default) ?(block_size = 256) ?(capacity = 1024)
    ?(nvram = true) ~seed () =
  let config = { config with Clio.Config.block_size } in
  let clock = Sim.Clock.simulated () in
  let devs = Hashtbl.create 4 in
  let dev_rng = Sim.Rng.create (Int64.add seed 0xFA17L) in
  let alloc ~vol_index =
    let d = Worm.Mem_device.create ~block_size ~capacity () in
    let fd = Worm.Faulty_device.create ~rng:(Sim.Rng.split dev_rng) (Worm.Mem_device.io d) in
    Hashtbl.replace devs vol_index fd;
    Ok (Worm.Faulty_device.io fd)
  in
  let nvram = if nvram then Some (Worm.Nvram.create ()) else None in
  let srv = ok (Clio.Server.create ~config ~clock ?nvram ~alloc_volume:alloc ()) in
  { fsrv = srv; fconfig = config; fclock = clock; fnvram = nvram; fdevs = devs; falloc = alloc }

let faulty_devices ff =
  Hashtbl.fold (fun i d acc -> (i, d) :: acc) ff.fdevs []
  |> List.sort compare
  |> List.map snd

let faulty_crash_and_recover ff =
  let devices = List.map Worm.Faulty_device.io (faulty_devices ff) in
  let srv =
    ok
      (Clio.Server.recover ~config:ff.fconfig ~clock:ff.fclock ?nvram:ff.fnvram
         ~alloc_volume:ff.falloc ~devices ())
  in
  ff.fsrv <- srv;
  srv

let test_lossy_transport_and_media_soak () =
  (* Media faults here are the recoverable kinds — bad unwritten blocks at
     the frontier (invalidate-and-retry territory) and garbage sprayed past
     the frontier (recovery scan territory) — so no write is ever lost and
     exactly-once must still hold. Byte-identity does not (bad blocks burn
     extra space), so it is not asserted. *)
  List.iter
    (fun seed ->
      let ops = ops_of_seed seed in
      let ff = make_faulty_fixture ~seed () in
      let rng = Sim.Rng.create (Int64.mul seed 31L) in
      let fault_rng = Sim.Rng.split rng in
      let jitter_rng = Sim.Rng.split rng in
      let media_rng = Sim.Rng.split rng in
      let rpc = Uio.Rpc_server.create ff.fsrv in
      let transport_clock = Sim.Clock.simulated () in
      let inner = Uio.Transport.local ~clock:transport_clock (Uio.Rpc_server.handle rpc) in
      let tr = Uio.Transport.lossy ~rng:fault_rng inner in
      let client = Uio.Client.connect ~retry:soak_retry ~rng:jitter_rng tr in
      (* Auto bad blocks on the active device for the whole run. *)
      List.iter
        (fun fd -> Worm.Faulty_device.set_auto_faults ~bad_block_rate:0.05 fd)
        (faulty_devices ff);
      let okc what = function
        | Ok v -> v
        | Error e ->
          Alcotest.failf "seed %Ld: %s failed: %s" seed what (Clio.Errors.to_string e)
      in
      let a = okc "ensure /a" (Uio.Client.ensure_log client "/a") in
      let b = okc "ensure /b" (Uio.Client.ensure_log client "/b") in
      let acks =
        List.map
          (fun { to_a; data; force } ->
            okc "append" (Uio.Client.append ~force client ~log:(if to_a then a else b) data))
          ops
      in
      okc "final force" (Uio.Client.force client);
      (* Garbage past the frontier at crash time — the crashed-writer
         artifact the recovery scan must shrug off. (Only ever past the
         frontier: a Garbage_visible overlay on a block the server later
         writes would mask real data, which no WORM drive does.) *)
      if Sim.Rng.chance media_rng 0.5 then
        List.iter
          (fun fd -> Worm.Faulty_device.spray_garbage_after_frontier fd ~count:2)
          (faulty_devices ff);
      let srv' = faulty_crash_and_recover ff in
      check_log ~seed ~what:"media chaos+recovery" srv' ~log:a ops true acks;
      check_log ~seed ~what:"media chaos+recovery" srv' ~log:b ops false acks)
    (List.filteri (fun i _ -> i mod 3 = 0) seeds)

(* ----------------------- degraded mode (breaker) ----------------------- *)

let test_breaker_trips_to_read_only () =
  let config = { Clio.Config.default with breaker_threshold = 3 } in
  let ff = make_faulty_fixture ~config ~nvram:false ~seed:1L () in
  let srv = ff.fsrv in
  let log = ok (Clio.Server.create_log srv "/sys") in
  ignore (ok (Clio.Server.append ~force:true srv ~log "committed"));
  (* Damage the medium where the next burn must land, unfixably. *)
  let fd = List.hd (faulty_devices ff) in
  let io = Worm.Faulty_device.io fd in
  let frontier = Option.get (io.Worm.Block_io.frontier ()) in
  Worm.Faulty_device.mark_unfixable fd frontier;
  ignore (ok (Clio.Server.append srv ~log "doomed"));
  (* Each failed force spends one unit of error budget. *)
  for i = 1 to 3 do
    match Clio.Server.force srv with
    | Error (Clio.Errors.Device _) -> ()
    | Error e ->
      Alcotest.failf "force %d: expected a device error, got %s" i (Clio.Errors.to_string e)
    | Ok () -> Alcotest.fail "force over an unfixable block must fail"
  done;
  Alcotest.(check bool) "breaker tripped" true
    (Clio.Breaker.is_open (Clio.Server.breaker srv));
  (* Writes now answer Degraded without touching the device. *)
  (match Clio.Server.force srv with
  | Error Clio.Errors.Degraded -> ()
  | r ->
    Alcotest.failf "expected Degraded, got %s"
      (match r with Ok () -> "Ok" | Error e -> Clio.Errors.to_string e));
  (match Clio.Server.append srv ~log "rejected" with
  | Error Clio.Errors.Degraded -> ()
  | _ -> Alcotest.fail "append while degraded must answer Degraded");
  (match Clio.Server.create_log srv "/nope" with
  | Error Clio.Errors.Degraded -> ()
  | _ -> Alcotest.fail "create_log while degraded must answer Degraded");
  (* Reads, locate and time search keep working — including the staged
     ("doomed") entry, which is readable even though its commit is stuck. *)
  Alcotest.(check (list string)) "reads still work" [ "committed"; "doomed" ]
    (all_payloads srv ~log);
  let e = ok (Clio.Server.first_entry srv ~log) in
  Alcotest.(check bool) "locate still works" true (e <> None);
  let ts = (Option.get e).Clio.Reader.timestamp in
  (match ts with
  | Some ts ->
    let e' = ok (Clio.Server.entry_at_or_after srv ~log ts) in
    Alcotest.(check bool) "time search still works" true (e' <> None)
  | None -> Alcotest.fail "expected a timestamp");
  (* The state is visible to operators: accessors and the metrics export. *)
  Alcotest.(check bool) "metrics export carries the breaker" true
    (let js = Clio.Server.metrics_json srv in
     let contains ~affix s =
       let n = String.length affix and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
       go 0
     in
     contains ~affix:{|"breaker"|} js && contains ~affix:{|"open"|} js);
  Alcotest.(check int) "trips counted" 1 (Clio.Breaker.trips (Clio.Server.breaker srv));
  Alcotest.(check bool) "rejections counted" true
    (Clio.Breaker.rejected (Clio.Server.breaker srv) >= 3);
  (* Operator path: heal the medium, reset the breaker, write again. *)
  Worm.Faulty_device.clear_faults fd;
  Clio.Server.reset_breaker srv;
  Alcotest.(check bool) "reset closes" false (Clio.Breaker.is_open (Clio.Server.breaker srv));
  ignore (ok (Clio.Server.append ~force:true srv ~log "after-reset"));
  Alcotest.(check (list string)) "writes flow again"
    [ "committed"; "doomed"; "after-reset" ]
    (all_payloads srv ~log);
  (* trip_breaker is the operator drill: open without any device error. *)
  Clio.Server.trip_breaker srv;
  (match Clio.Server.append srv ~log "x" with
  | Error Clio.Errors.Degraded -> ()
  | _ -> Alcotest.fail "tripped breaker must reject writes");
  Clio.Server.reset_breaker srv

let test_breaker_disabled_by_zero_threshold () =
  let config = { Clio.Config.default with breaker_threshold = 0 } in
  let ff = make_faulty_fixture ~config ~nvram:false ~seed:2L () in
  let srv = ff.fsrv in
  let log = ok (Clio.Server.create_log srv "/sys") in
  ignore (ok (Clio.Server.append ~force:true srv ~log "committed"));
  let fd = List.hd (faulty_devices ff) in
  let io = Worm.Faulty_device.io fd in
  Worm.Faulty_device.mark_unfixable fd (Option.get (io.Worm.Block_io.frontier ()));
  ignore (ok (Clio.Server.append srv ~log "doomed"));
  for _ = 1 to 8 do
    match Clio.Server.force srv with
    | Error (Clio.Errors.Device _) -> ()
    | Error Clio.Errors.Degraded -> Alcotest.fail "threshold 0 must never trip"
    | Error e -> Alcotest.failf "unexpected: %s" (Clio.Errors.to_string e)
    | Ok () -> Alcotest.fail "force must fail here"
  done;
  Alcotest.(check bool) "still closed" false (Clio.Breaker.is_open (Clio.Server.breaker srv));
  Alcotest.(check int) "errors still counted" 8
    (Clio.Breaker.total_errors (Clio.Server.breaker srv))

let test_breaker_volatile_across_recovery () =
  let config = { Clio.Config.default with breaker_threshold = 3 } in
  let f = make_fixture ~config () in
  let log = create_log f "/v" in
  ignore (append f ~log ~force:true "before");
  Clio.Server.trip_breaker f.srv;
  (match Clio.Server.append f.srv ~log "x" with
  | Error Clio.Errors.Degraded -> ()
  | _ -> Alcotest.fail "must be degraded");
  let srv' = crash_and_recover f in
  Alcotest.(check bool) "recovery starts closed" false
    (Clio.Breaker.is_open (Clio.Server.breaker srv'));
  ignore (ok (Clio.Server.append ~force:true srv' ~log "after"));
  Alcotest.(check (list string)) "writes work after recovery" [ "before"; "after" ]
    (all_payloads srv' ~log)

(* ------------------------- degraded over RPC ------------------------- *)

let test_degraded_error_crosses_the_wire () =
  let f = make_fixture () in
  Clio.Server.trip_breaker f.srv;
  let rpc = Uio.Rpc_server.create f.srv in
  let tr = Uio.Transport.local ~clock:f.clock (Uio.Rpc_server.handle rpc) in
  let client = Uio.Client.connect tr in
  match Uio.Client.create_log client "/r" with
  | Error Clio.Errors.Degraded -> ()
  | Error e -> Alcotest.failf "expected Degraded, got %s" (Clio.Errors.to_string e)
  | Ok _ -> Alcotest.fail "must be degraded"

let () =
  run "chaos"
    [
      ( "soak",
        [
          Alcotest.test_case "lossy transport, 60 seeds" `Quick test_lossy_transport_soak;
          Alcotest.test_case "lossy transport + bad media" `Quick
            test_lossy_transport_and_media_soak;
        ] );
      ( "degraded-mode",
        [
          Alcotest.test_case "breaker trips to read-only" `Quick test_breaker_trips_to_read_only;
          Alcotest.test_case "threshold 0 disables" `Quick test_breaker_disabled_by_zero_threshold;
          Alcotest.test_case "volatile across recovery" `Quick
            test_breaker_volatile_across_recovery;
          Alcotest.test_case "Degraded crosses the wire" `Quick
            test_degraded_error_crosses_the_wire;
        ] );
    ]
