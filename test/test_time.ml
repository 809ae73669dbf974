(* Timestamp search (section 2.1) and asynchronous entry identification. *)

open Testkit

(* A log whose entry payloads record their own timestamps, for ground truth. *)
let build_timed_log ?(entries = 300) ?(gap = 100L) f =
  let log = create_log f "/timed" in
  let stamps = ref [] in
  for i = 0 to entries - 1 do
    Sim.Clock.advance f.clock gap;
    let ts = Option.get (append f ~log (Printf.sprintf "entry %d" i)) in
    stamps := ts :: !stamps
  done;
  ignore (ok (Clio.Server.force f.srv));
  (log, Array.of_list (List.rev !stamps))

let test_first_at_or_after_exact () =
  let f = make_fixture () in
  let log, stamps = build_timed_log f in
  List.iter
    (fun i ->
      let e = Option.get (ok (Clio.Server.entry_at_or_after f.srv ~log stamps.(i))) in
      Alcotest.(check string) (Printf.sprintf "exact ts %d" i) (Printf.sprintf "entry %d" i)
        e.Clio.Reader.payload)
    [ 0; 1; 7; 100; 150; 298; 299 ]

let test_first_at_or_after_between () =
  let f = make_fixture () in
  let log, stamps = build_timed_log f in
  (* A time strictly between entries i and i+1 must yield i+1. *)
  List.iter
    (fun i ->
      let between = Int64.add stamps.(i) 1L in
      let e = Option.get (ok (Clio.Server.entry_at_or_after f.srv ~log between)) in
      Alcotest.(check string) (Printf.sprintf "between %d and %d" i (i + 1))
        (Printf.sprintf "entry %d" (i + 1))
        e.Clio.Reader.payload)
    [ 0; 42; 200; 298 ]

let test_before_everything_and_after_everything () =
  let f = make_fixture () in
  let log, stamps = build_timed_log f in
  let first = Option.get (ok (Clio.Server.entry_at_or_after f.srv ~log 0L)) in
  Alcotest.(check string) "ancient time -> first entry" "entry 0" first.Clio.Reader.payload;
  Alcotest.(check bool) "far future -> none" true
    (ok (Clio.Server.entry_at_or_after f.srv ~log (Int64.add stamps.(299) 1_000_000L)) = None)

let test_last_before () =
  let f = make_fixture () in
  let log, stamps = build_timed_log f in
  List.iter
    (fun i ->
      let e = Option.get (ok (Clio.Server.entry_before f.srv ~log stamps.(i))) in
      Alcotest.(check string) (Printf.sprintf "before ts %d" i) (Printf.sprintf "entry %d" (i - 1))
        e.Clio.Reader.payload)
    [ 1; 50; 299 ];
  Alcotest.(check bool) "before the dawn -> none" true
    (ok (Clio.Server.entry_before f.srv ~log stamps.(0)) = None)

let test_time_filtering_per_sublog () =
  let f = make_fixture () in
  let a = ok (Clio.Server.ensure_log f.srv "/m/a") in
  let b = ok (Clio.Server.ensure_log f.srv "/m/b") in
  let mid = ref 0L in
  for i = 0 to 99 do
    Sim.Clock.advance f.clock 10L;
    let ts = Option.get (append f ~log:(if i mod 2 = 0 then a else b) (Printf.sprintf "%d" i)) in
    if i = 50 then mid := ts
  done;
  (* Searching log a from mid must land on the next a-entry (52). *)
  let e = Option.get (ok (Clio.Server.entry_at_or_after f.srv ~log:a (Int64.add !mid 1L))) in
  Alcotest.(check string) "sublog time search" "52" e.Clio.Reader.payload

let test_seek_probe_count_logarithmic () =
  let f = make_fixture ~capacity:8192 () in
  let log, stamps = build_timed_log ~entries:3000 f in
  ignore log;
  let pos, probes = seek_counting f.srv stamps.(1500) in
  check_seek_resolution f.srv pos stamps.(1500);
  let bound = seek_probe_bound f.srv in
  Alcotest.(check bool) (Printf.sprintf "probes %d <= fanout x levels %d" probes bound) true
    (probes <= bound)

(* Regression: the block key used to be record 0's timestamp, so a block
   opening with a continuation had none and every probe walked forward block
   by block to the next entry boundary - a linear search on any store whose
   entries fragment. Keyed by the first entry that starts in it, each block
   answers its own probe. *)
let test_seek_logarithmic_on_fragmented_store () =
  let f = make_fixture ~capacity:8192 () in
  let log, stamps = build_fragmented_log f in
  let share = continuation_share f.srv in
  Alcotest.(check bool) (Printf.sprintf "%.2f of blocks open with a continuation" share) true
    (share > 0.5);
  let bound = seek_probe_bound f.srv in
  List.iter
    (fun i ->
      let pos, probes = seek_counting f.srv stamps.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "seek to entry %d: probes %d <= fanout x levels %d" i probes bound)
        true (probes <= bound);
      check_seek_resolution f.srv pos stamps.(i);
      let e = Option.get (ok (Clio.Server.entry_at_or_after f.srv ~log stamps.(i))) in
      Alcotest.(check string) (Printf.sprintf "entry %d found" i) (Printf.sprintf "%05d" i)
        (String.sub e.Clio.Reader.payload 0 5))
    [ 100; 1500; 2900 ]

let test_seek_block_resolution_correct () =
  let f = make_fixture () in
  let log, stamps = build_timed_log f in
  ignore log;
  List.iter
    (fun i ->
      let pos = ok (Clio.Time_index.seek (Clio.Server.state f.srv) stamps.(i)) in
      check_seek_resolution f.srv pos stamps.(i))
    [ 10; 100; 290 ]

let test_entry_id_find () =
  (* Section 2.1's async identification: client seq + client timestamp. *)
  let f = make_fixture () in
  let log = create_log f "/async" in
  let client_stamps = Array.make 100 0L in
  for i = 0 to 99 do
    Sim.Clock.advance f.clock 1000L;
    (* The client's clock is skewed by up to 400us from the server's. *)
    client_stamps.(i) <- Int64.add (Sim.Clock.peek f.clock) (Int64.of_int ((i mod 9) * 100 - 400));
    ignore (append f ~log (Clio.Entry_id.wrap ~seq:(Int64.of_int i) (Printf.sprintf "payload %d" i)))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let st = Clio.Server.state f.srv in
  List.iter
    (fun i ->
      match
        ok
          (Clio.Entry_id.find st ~log ~seq:(Int64.of_int i) ~client_ts:client_stamps.(i)
             ~max_skew_us:2000L)
      with
      | Some e ->
        let _, payload = ok (Clio.Entry_id.unwrap e.Clio.Reader.payload) in
        Alcotest.(check string) (Printf.sprintf "found %d" i) (Printf.sprintf "payload %d" i) payload
      | None -> Alcotest.failf "entry %d not found" i)
    [ 0; 13; 50; 99 ];
  (* A sequence number that was never written is not found. *)
  Alcotest.(check bool) "absent seq" true
    (ok (Clio.Entry_id.find st ~log ~seq:777L ~client_ts:client_stamps.(50) ~max_skew_us:2000L)
    = None)

let test_entry_id_wrap_unwrap () =
  let w = Clio.Entry_id.wrap ~seq:42L "hello" in
  let seq, payload = ok (Clio.Entry_id.unwrap w) in
  Alcotest.(check int64) "seq" 42L seq;
  Alcotest.(check string) "payload" "hello" payload;
  match Clio.Entry_id.unwrap "short" with
  | Error (Clio.Errors.Bad_record _) -> ()
  | _ -> Alcotest.fail "expected unwrap failure"

let test_cursor_at_time_bidirectional () =
  let f = make_fixture () in
  let log, stamps = build_timed_log f in
  let c = ok (Clio.Server.cursor_at_time f.srv ~log stamps.(100)) in
  (* Forward from the seek point reaches entry 100 quickly. *)
  let rec forward_until_100 () =
    match ok (Clio.Server.next c) with
    | Some e when e.Clio.Reader.payload = "entry 100" -> true
    | Some _ -> forward_until_100 ()
    | None -> false
  in
  Alcotest.(check bool) "reaches entry 100" true (forward_until_100 ())

let () =
  run "time"
    [
      ( "search",
        [
          Alcotest.test_case "at-or-after exact" `Quick test_first_at_or_after_exact;
          Alcotest.test_case "at-or-after between" `Quick test_first_at_or_after_between;
          Alcotest.test_case "boundaries" `Quick test_before_everything_and_after_everything;
          Alcotest.test_case "last before" `Quick test_last_before;
          Alcotest.test_case "per-sublog" `Quick test_time_filtering_per_sublog;
          Alcotest.test_case "probe count logarithmic" `Quick test_seek_probe_count_logarithmic;
          Alcotest.test_case "probe count logarithmic on fragmented store" `Quick
            test_seek_logarithmic_on_fragmented_store;
          Alcotest.test_case "block resolution" `Quick test_seek_block_resolution_correct;
          Alcotest.test_case "cursor at time" `Quick test_cursor_at_time_bidirectional;
        ] );
      ( "entry-id",
        [
          Alcotest.test_case "wrap/unwrap" `Quick test_entry_id_wrap_unwrap;
          Alcotest.test_case "find by seq+ts" `Quick test_entry_id_find;
        ] );
    ]
