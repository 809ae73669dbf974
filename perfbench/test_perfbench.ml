(* Unit tests of the benchmark's own derived-metric code: the percentile
   rule, the speed correction of wall times, due-time latency in the open
   loop, the ingest_max_rate search and ledger closure; plus short traced runs through the real stack whose
   every request must close its ledgers and pass its checks. *)

open Perfbench

let pct s q = Derived.percentile (Derived.sort s) q

let value s q =
  match pct s q with Ok p -> p.Derived.value | Error m -> Alcotest.failf "refused: %s" m

let test_nearest_rank () =
  let s = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (value s 0.5);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (value s 0.9);
  let s = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (value s 0.99);
  match pct s 0.99 with
  | Ok p -> Alcotest.(check int) "samples beyond p99" 10 p.beyond
  | Error m -> Alcotest.fail m

let test_all_zero () =
  (* The histogram defect: an all-zero sample must give p50 = 0 and
     p99 = 0, never a value above the maximum. *)
  let s = Array.make 2000 0. in
  Alcotest.(check (float 0.)) "p50" 0. (value s 0.5);
  Alcotest.(check (float 0.)) "p99" 0. (value s 0.99)

let test_refusal () =
  let refused s q = match pct s q with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "p99 of 999 samples" true (refused (Array.make 999 1.) 0.99);
  Alcotest.(check bool) "p99 of 1000 samples" false (refused (Array.make 1000 1.) 0.99);
  Alcotest.(check bool) "p90 of 99 samples" true (refused (Array.make 99 1.) 0.9);
  Alcotest.(check bool) "p50 of 19 samples" true (refused (Array.make 19 1.) 0.5);
  Alcotest.(check bool) "no samples" true (refused [||] 0.5)

let test_middle () =
  Alcotest.(check (float 0.)) "odd" 2. (Derived.middle [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Derived.middle [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.)) "one" 7. (Derived.middle [ 7. ])

(* ---------- speed correction ---------- *)

let test_normalise () =
  let r = Speed.reference_s in
  Alcotest.(check (float 1e-12)) "at reference speed" 0.05 (Speed.normalise ~wall:0.05 ~before:r ~after:r);
  (* A core at half speed takes twice as long over the window and over
     the calibration: the scaled time is the same. *)
  Alcotest.(check (float 1e-12)) "at half speed" 0.05 (Speed.normalise ~wall:0.1 ~before:(2. *. r) ~after:(2. *. r));
  Alcotest.(check (float 1e-12)) "mean of the two ends" 0.04
    (Speed.normalise ~wall:0.06 ~before:r ~after:(2. *. r))

(* A stretch that spins for 0.2 s in steps, ticking between them: its
   wall time leaves the calibrations out and its windows all close. *)
let test_timed_stretch () =
  let spin s =
    let t0 = Speed.now_s () in
    while Speed.now_s () -. t0 < s do
      ()
    done
  in
  let (), t =
    Speed.time (fun () ->
        while Speed.elapsed () < 0.2 do
          spin 0.005;
          Speed.tick ()
        done)
  in
  if t.wall_s < 0.2 || t.wall_s > 0.25 then Alcotest.failf "wall %.4f s for 0.2 s of work" t.wall_s;
  if not (t.norm_s > 0. && t.speed > 0.) then Alcotest.failf "norm %.4f s, speed %.3f" t.norm_s t.speed;
  Alcotest.(check (float 0.)) "outside a stretch" 0. (Speed.elapsed ())

let prop_within_range =
  QCheck.Test.make ~name:"percentile lies within [min, max] and is a sample" ~count:300
    QCheck.(pair (array_of_size Gen.(20 -- 3000) (float_range (-1e6) 1e6)) (float_range 0.01 0.99))
    (fun (s, q) ->
      match pct s q with
      | Error _ -> true
      | Ok p ->
        let lo = Array.fold_left min infinity s and hi = Array.fold_left max neg_infinity s in
        p.value >= lo && p.value <= hi && Array.exists (fun x -> x = p.value) s)

(* A fake clock and a server taking [service] us per request. *)
let run_open_loop ?(take = fun _ -> 1) ~service dues =
  let clock = ref 0L in
  let arrivals = List.map (fun d -> { Derived.due = d; item = () }) dues in
  let served = ref [] in
  let r =
    Derived.drive
      ~peek:(fun () -> !clock)
      ~advance_to:(fun t -> clock := t)
      ~take
      ~serve:(fun items ->
        served := Array.length items :: !served;
        clock := Int64.add !clock service)
      arrivals
  in
  (r, List.rev !served)

let i64s = Alcotest.(array int64)

let test_due_time_latency () =
  (* Spaced-out arrivals: the clock idles forward, latency = service. *)
  let r, _ = run_open_loop ~service:5L [ 100L; 200L; 300L ] in
  Alcotest.check i64s "idle latency" [| 5L; 5L; 5L |] r.latencies_us;
  Alcotest.check i64s "no lag" [| 0L; 0L; 0L |] r.issue_lag_us;
  (* Arrivals faster than service: each waits behind the previous and is
     timed from its own due time, not from when it was sent. *)
  let r, _ = run_open_loop ~service:15L [ 0L; 10L; 20L ] in
  Alcotest.check i64s "backlog latency" [| 15L; 20L; 25L |] r.latencies_us;
  Alcotest.check i64s "issue lag" [| 0L; 5L; 10L |] r.issue_lag_us;
  Alcotest.(check int) "all served" 3 r.arrivals

let test_grouping () =
  (* A stall lets arrivals queue; [take] batches the ones already due and
     the batch is timed from its first arrival's due time. *)
  let r, served = run_open_loop ~take:Array.length ~service:50L [ 0L; 10L; 20L; 30L; 100L ] in
  Alcotest.(check (list int)) "batches" [ 1; 3; 1 ] served;
  Alcotest.check i64s "latencies" [| 50L; 90L; 50L |] r.latencies_us;
  Alcotest.(check int) "arrivals" 5 r.arrivals

let test_max_rate () =
  let probes = ref 0 in
  let ok r =
    incr probes;
    r <= 123.4
  in
  let got = Derived.max_rate ~lo:10. ~hi:1000. ~steps:20 ~ok in
  Alcotest.(check bool) "at or under the true limit" true (got <= 123.4);
  Alcotest.(check bool) "within 0.1%" true (got > 123.4 *. 0.999);
  Alcotest.(check int) "probes" 22 !probes;
  Alcotest.(check (float 0.)) "lo fails" 0. (Derived.max_rate ~lo:10. ~hi:1000. ~steps:5 ~ok:(fun _ -> false));
  Alcotest.(check (float 0.)) "hi passes" 1000. (Derived.max_rate ~lo:10. ~hi:1000. ~steps:5 ~ok:(fun _ -> true));
  let a = Derived.max_rate ~lo:10. ~hi:1000. ~steps:12 ~ok in
  let b = Derived.max_rate ~lo:10. ~hi:1000. ~steps:12 ~ok in
  Alcotest.(check (float 0.)) "deterministic" a b

let test_sustains () =
  let mk lat lag = { Derived.latencies_us = lat; issue_lag_us = lag; arrivals = Array.length lat } in
  let flat = Array.make 2000 10_000L in
  Alcotest.(check bool) "steady" true (Derived.sustains ~limit_us:50_000L (mk flat (Array.make 2000 0L)));
  let slow = Array.copy flat in
  Array.fill slow 1900 100 60_000L;
  Alcotest.(check bool) "p99 over the limit" false
    (Derived.sustains ~limit_us:50_000L (mk slow (Array.make 2000 0L)));
  let lag = Array.make 2000 0L in
  lag.(1999) <- 80_000L;
  Alcotest.(check bool) "growing backlog" false (Derived.sustains ~limit_us:50_000L (mk flat lag))

let span ?(parent = -1) ?(dev_blocks = 0) ?(dev_ns = 0L) ?(dev_us = 0L) id layer (w0, w1) (m0, m1) =
  { Derived.id; parent; layer; w0; w1; m0; m1; dev_blocks; dev_ns; dev_us }

(* client [0,100] ns / [0,2000] us, two handler calls each behind a 1 ms
   round trip; the second reads 3 blocks in 300 us of device work and
   issues 2 ticks. *)
let request =
  [
    span 0 "uio.client" (0L, 100L) (0L, 2302L);
    span ~parent:0 1 "uio.rpc_server" (10L, 30L) (1000L, 1000L);
    span ~parent:0 ~dev_blocks:3 ~dev_ns:20L ~dev_us:300L 2 "uio.rpc_server" (40L, 90L) (2000L, 2302L);
  ]

let test_ledger () =
  match Derived.ledger request ~ipc_us:2000L ~device_us:300L with
  | None -> Alcotest.fail "no root"
  | Some m ->
    Alcotest.(check int64) "ticks" 2L m.tick_us;
    Alcotest.(check bool) "closes" true (Derived.modeled_closes m);
    Alcotest.(check bool) "device time unaccounted" false
      (Derived.modeled_closes { m with device_us = 299L });
    Alcotest.(check bool) "extra round trip" false (Derived.modeled_closes { m with ipc_us = 3000L });
    Alcotest.(check bool) "negative ticks" false
      (Derived.modeled_closes { latency_us = 100L; ipc_us = 101L; device_us = 0L; tick_us = -1L })

let test_devices () =
  Alcotest.(check bool) "closes" true (Derived.devices_close request ~device_blocks:3);
  Alcotest.(check bool) "a block no span saw" false (Derived.devices_close request ~device_blocks:4);
  Alcotest.(check bool) "a block the devices did not count" false
    (Derived.devices_close request ~device_blocks:2)

let test_self_times () =
  Alcotest.(check (list (pair string int64)))
    "self ns"
    [ ("uio.client", 30L); ("uio.rpc_server", 50L); ("worm", 20L) ]
    (Derived.self_times request)

(* Short traced runs through the real stack: every request's ledger must
   close and every check pass. *)
let check_run (o : Workloads.outcome) =
  List.iter print_endline o.ctx.errors;
  Alcotest.(check int) "failed" 0 o.ctx.failed;
  Alcotest.(check bool) "requests traced" true (o.ctx.tr.requests > 0);
  Alcotest.(check int) "every op traced" o.ops o.ctx.tr.requests

let test_traced_ingest () =
  check_run (Workloads.ingest ~seed:7L { seconds = 0.1; traced = true; setups = 1; fill = false } ~search:false)

let traced_mixed ~blocks =
  let o = Workloads.mixed ~seed:7L ~blocks { seconds = 0.1; traced = true; setups = 1; fill = false } in
  check_run o;
  Alcotest.(check bool) "replica read" true (o.ctx.tr.replica_reads > 0);
  float_of_int o.ctx.tr.replica_dev_reads /. float_of_int o.ctx.tr.replica_reads

let test_traced_mixed () = ignore (traced_mixed ~blocks:64)

(* A replica read after a shipment rebuilds the replica's server by
   recovery, so its device reads grow with the volume. *)
let test_replica_growth () =
  let small = traced_mixed ~blocks:256 and large = traced_mixed ~blocks:4096 in
  if not (large > small) then
    Alcotest.failf "replica device reads per read: %.1f at 256 blocks, %.1f at 4096" small large

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "all-zero samples" `Quick test_all_zero;
          Alcotest.test_case "refused without 10 beyond" `Quick test_refusal;
          Alcotest.test_case "median of a few values" `Quick test_middle;
          QCheck_alcotest.to_alcotest prop_within_range;
        ] );
      ( "speed",
        [
          Alcotest.test_case "scaled window" `Quick test_normalise;
          Alcotest.test_case "timed stretch" `Quick test_timed_stretch;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "latency from due time" `Quick test_due_time_latency;
          Alcotest.test_case "group commit of due arrivals" `Quick test_grouping;
        ] );
      ( "max rate",
        [
          Alcotest.test_case "bisection" `Quick test_max_rate;
          Alcotest.test_case "pass rule" `Quick test_sustains;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "modeled closure" `Quick test_ledger;
          Alcotest.test_case "device closure" `Quick test_devices;
          Alcotest.test_case "wall self times" `Quick test_self_times;
          Alcotest.test_case "traced ingest" `Quick test_traced_ingest;
          Alcotest.test_case "traced mixed-replica" `Quick test_traced_mixed;
          Alcotest.test_case "replica reads grow with the volume" `Quick test_replica_growth;
        ] );
    ]
