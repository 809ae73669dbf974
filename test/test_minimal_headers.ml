(* The paper's minimal header mode (section 2.2): when per-entry timestamps
   are disabled, entries carry the 4-byte header (2 bytes on-record + 2 in
   the block index) — except the mandatory timestamp on the first entry that
   starts in each block. *)

open Testkit

let fixture ?capacity () =
  make_fixture ~config:{ Clio.Config.default with timestamp_all = false } ?capacity ()

let test_roundtrip () =
  let f = fixture () in
  let log = create_log f "/min" in
  let payloads = List.init 100 (fun i -> Printf.sprintf "entry %02d" i) in
  List.iter (fun p -> ignore (append f ~log p)) payloads;
  ignore (ok (Clio.Server.force f.srv));
  check_payloads "forward" payloads (all_payloads f.srv ~log);
  check_payloads "backward" payloads (all_payloads_backward f.srv ~log)

let test_append_returns_no_timestamp_mostly () =
  let f = fixture () in
  let log = create_log f "/min" in
  let stamped, plain =
    List.init 50 (fun i -> append f ~log (string_of_int i))
    |> List.partition Option.is_some
  in
  (* Only block-starting entries get upgraded to timestamped headers. *)
  Alcotest.(check bool) "most entries unstamped" true
    (List.length plain > List.length stamped)

let test_first_in_block_still_timestamped () =
  let f = fixture () in
  let log = create_log f "/min" in
  for i = 0 to 99 do
    ignore (append f ~log (Printf.sprintf "filler %d to cross blocks eventually" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let st = Clio.Server.state f.srv in
  let v = ok (Clio.State.active st) in
  for b = 1 to Clio.Vol.written_limit v - 1 do
    match Clio.Vol.view_block v b with
    | Clio.Vol.Records recs when Array.length recs > 0 ->
      if Clio.Header.is_start recs.(0).Clio.Block_format.header then
        Alcotest.(check bool)
          (Printf.sprintf "block %d first record timestamped" b)
          true
          (recs.(0).Clio.Block_format.header.Clio.Header.timestamp <> None)
    | _ -> ()
  done

let test_header_overhead_is_minimal () =
  (* With timestamps off, per-entry header bytes approach the paper's
     2 on-record bytes (plus the occasional upgraded first-in-block). *)
  let f = fixture () in
  let log = create_log f "/min" in
  let n = 2000 in
  for i = 0 to n - 1 do
    ignore (append f ~log (Printf.sprintf "%04d0123456789012345678901234567890123456789" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let s = Clio.Server.stats f.srv in
  let per_entry = float_of_int s.Clio.Stats.bytes_header /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f header bytes/entry (minimal mode)" per_entry)
    true
    (per_entry < 4.5);
  (* And with timestamps on it is ~10. *)
  let f2 = make_fixture () in
  let log2 = create_log f2 "/full" in
  for i = 0 to n - 1 do
    ignore (append f2 ~log:log2 (Printf.sprintf "%04d0123456789012345678901234567890123456789" i))
  done;
  let s2 = Clio.Server.stats f2.srv in
  let per_entry2 = float_of_int s2.Clio.Stats.bytes_header /. float_of_int n in
  Alcotest.(check bool) "timestamped mode ~10 B/entry" true (per_entry2 > 9.0)

let test_locate_still_works () =
  let f = fixture () in
  let rare = create_log f "/rare" in
  let noise = create_log f "/noise" in
  ignore (append f ~log:rare "needle");
  for i = 0 to 999 do
    ignore (append f ~log:noise (Printf.sprintf "hay %d" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  check_payloads "found" [ "needle" ] (all_payloads f.srv ~log:rare)

let test_time_search_block_resolution () =
  (* Entries without their own timestamps are still findable to block
     resolution — "the search succeeds to a resolution of at least a single
     block". *)
  let f = fixture () in
  let log = create_log f "/tsless" in
  let mid_ts = ref 0L in
  for i = 0 to 199 do
    Sim.Clock.advance f.clock 1000L;
    let ts = append f ~log (Printf.sprintf "e%03d" i) in
    if i = 100 then mid_ts := (match ts with Some t -> t | None -> Sim.Clock.peek f.clock)
  done;
  ignore (ok (Clio.Server.force f.srv));
  let c = ok (Clio.Server.cursor_at_time f.srv ~log !mid_ts) in
  (* Scanning forward from the seek point must reach entry 100 within one
     block's worth of entries. *)
  let rec hunt steps =
    if steps > 100 then Alcotest.fail "time seek landed too far away"
    else
      match ok (Clio.Server.next c) with
      | Some e when e.Clio.Reader.payload = "e100" -> steps
      | Some _ -> hunt (steps + 1)
      | None -> Alcotest.fail "ran out of entries"
  in
  let steps = hunt 0 in
  Alcotest.(check bool) (Printf.sprintf "reached e100 in %d steps" steps) true (steps <= 40)

let test_recovery_minimal_mode () =
  let f = fixture () in
  let log = create_log f "/min" in
  let payloads = List.init 120 (fun i -> Printf.sprintf "m%03d" i) in
  List.iter (fun p -> ignore (append f ~log p)) payloads;
  ignore (ok (Clio.Server.force f.srv));
  let srv = crash_and_recover f in
  let log = ok (Clio.Server.resolve srv "/min") in
  check_payloads "recovered" payloads (all_payloads srv ~log)

let test_fragmentation_minimal_mode () =
  let f = fixture () in
  let log = create_log f "/big" in
  let payload = String.make 1000 'z' in
  ignore (append f ~log payload);
  ignore (ok (Clio.Server.force f.srv));
  check_payloads "fragmented entry intact" [ payload ] (all_payloads f.srv ~log)

(* With entries that fragment, most blocks open with a continuation. The
   first entry that starts in such a block must still be stamped: it is the
   block's time-search key. Unkeyed, every probe of the time search walks
   forward to the next block that happens to open on an entry boundary. *)
let test_fragmented_blocks_keyed () =
  let f = fixture ~capacity:8192 () in
  let _log, stamps = build_fragmented_log f in
  Alcotest.(check bool) "most blocks open with a continuation" true
    (continuation_share f.srv > 0.5);
  let v = ok (Clio.State.active (Clio.Server.state f.srv)) in
  for b = 1 to Clio.Vol.written_limit v - 1 do
    match Clio.Vol.view_block v b with
    | Clio.Vol.Records recs
      when Array.exists (fun r -> Clio.Header.is_start r.Clio.Block_format.header) recs ->
      Alcotest.(check bool) (Printf.sprintf "block %d keyed" b) true
        (Clio.Block_format.first_timestamp recs <> None)
    | _ -> ()
  done;
  let report = ok (Clio.Server.fsck f.srv) in
  Alcotest.(check (list string)) "fsck errors" [] report.Clio.Fsck.errors;
  let bound = seek_probe_bound f.srv in
  List.iter
    (fun i ->
      let pos, probes = seek_counting f.srv stamps.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "seek to entry %d: probes %d <= fanout x levels %d" i probes bound)
        true (probes <= bound);
      check_seek_resolution f.srv pos stamps.(i))
    [ 100; 1500; 2900 ]

let () =
  run "minimal_headers"
    [
      ( "timestamp_all=false",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "mostly unstamped" `Quick test_append_returns_no_timestamp_mostly;
          Alcotest.test_case "first-in-block stamped" `Quick test_first_in_block_still_timestamped;
          Alcotest.test_case "header overhead minimal" `Quick test_header_overhead_is_minimal;
          Alcotest.test_case "locate works" `Quick test_locate_still_works;
          Alcotest.test_case "time search block resolution" `Quick test_time_search_block_resolution;
          Alcotest.test_case "recovery" `Quick test_recovery_minimal_mode;
          Alcotest.test_case "fragmentation" `Quick test_fragmentation_minimal_mode;
          Alcotest.test_case "fragmented blocks keyed" `Quick test_fragmented_blocks_keyed;
        ] );
    ]
