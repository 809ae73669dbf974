(* The UIO RPC layer: codec roundtrips, batched appends with group commit,
   chunked cursor reads with continuation tokens, cursor hygiene (LRU cap,
   with_cursor bracket), typed error propagation, keyed retries, and the
   modeled IPC accounting. *)

open Testkit

let rpc_fixture ?(latency_us = 0L) ?max_cursors () =
  let f = make_fixture () in
  let rpc = Uio.Rpc_server.create ?max_cursors f.srv in
  let transport =
    Uio.Transport.local ~latency_us ~clock:f.clock (Uio.Rpc_server.handle rpc)
  in
  (f, rpc, Uio.Client.connect transport, transport)

let okr = function
  | Ok v -> v
  | Error e -> Alcotest.failf "rpc error: %s" (Clio.Errors.to_string e)

(* ------------------------------- codec ------------------------------- *)

let requests_roundtrip () =
  let chunk = { Uio.Message.cursor = 7; seq = 3; max_entries = 64; max_bytes = 65536 } in
  let samples =
    [
      Uio.Message.Create_log { path = "/a/b"; perms = 0o600 };
      Uio.Message.Ensure_log { path = "/x"; perms = 0o644 };
      Uio.Message.Resolve "/a";
      Uio.Message.Path_of 42;
      Uio.Message.Set_perms { log = 7; perms = 0o400 };
      Uio.Message.Force;
      Uio.Message.Open_cursor { log = 5; whence = Uio.Message.From_start };
      Uio.Message.Open_cursor { log = 5; whence = Uio.Message.From_end };
      Uio.Message.Open_cursor { log = 5; whence = Uio.Message.From_time 123456789L };
      Uio.Message.Close_cursor 5;
      Uio.Message.Entry_at_or_after { log = 6; ts = -1L };
      Uio.Message.Entry_before { log = 6; ts = Int64.max_int };
      Uio.Message.Append_batch { force = true; items = [] };
      Uio.Message.Append_batch
        {
          force = false;
          items =
            [
              { Uio.Message.log = 4; extra_members = [ 5; 6 ]; data = "one" };
              { Uio.Message.log = 7; extra_members = []; data = "" };
            ];
        };
      Uio.Message.Next_chunk chunk;
      Uio.Message.Prev_chunk { chunk with Uio.Message.seq = 0 };
      Uio.Message.List_dir "/mail";
      Uio.Message.Keyed { key = 0x1122334455667788L; req = Uio.Message.Force };
      Uio.Message.Keyed
        {
          key = -1L;
          req =
            Uio.Message.Append_batch
              {
                force = true;
                items = [ { Uio.Message.log = 9; extra_members = [ 10 ]; data = "keyed" } ];
              };
        };
      Uio.Message.Repl_frontier { epoch = 3 };
      Uio.Message.Repl_blocks
        {
          epoch = 2;
          seq_uid = 0x0102030405060708L;
          vol_index = 1;
          first_block = 17;
          blocks = [ "aaaa"; ""; "cc" ];
        };
      Uio.Message.Repl_blocks
        { epoch = 1; seq_uid = 1L; vol_index = 0; first_block = 0; blocks = [] };
      Uio.Message.Repl_tail
        { epoch = 5; seq_uid = 42L; vol_index = 2; block = 9; image = "tail image bytes" };
    ]
  in
  List.iter
    (fun r ->
      let r2 = ok (Uio.Message.decode_request (Uio.Message.encode_request r)) in
      Alcotest.(check bool) "request roundtrip" true (r = r2))
    samples;
  (* The envelope never nests: a hand-crafted Keyed-in-Keyed is refused. *)
  let nested =
    Uio.Message.Keyed
      { key = 1L; req = Uio.Message.Keyed { key = 2L; req = Uio.Message.Force } }
  in
  match Uio.Message.decode_request (Uio.Message.encode_request nested) with
  | Error (Clio.Errors.Bad_record _) -> ()
  | _ -> Alcotest.fail "nested keyed request must be rejected"

let responses_roundtrip () =
  let e1 = { Uio.Message.log = 4; timestamp = Some 5L; payload = "body" } in
  let e2 = { Uio.Message.log = 4; timestamp = None; payload = "" } in
  let samples =
    [
      Uio.Message.R_unit;
      Uio.Message.R_id 77;
      Uio.Message.R_path "/mail/smith";
      Uio.Message.R_entry None;
      Uio.Message.R_entry (Some e1);
      Uio.Message.R_entry (Some e2);
      Uio.Message.R_timestamps [];
      Uio.Message.R_timestamps [ Some 1L; None; Some 3L ];
      Uio.Message.R_entries { entries = [ e1; e2 ]; seq = 9; eof = false };
      Uio.Message.R_entries { entries = []; seq = 1; eof = true };
      Uio.Message.R_dir
        [
          { Uio.Message.id = 4; path = "/mail"; perms = 0o644; entry_count = 2 };
          { Uio.Message.id = 9; path = "/mail/smith"; perms = 0o600; entry_count = 0 };
        ];
      Uio.Message.R_error Clio.Errors.No_entry;
      Uio.Message.R_repl_frontier
        { epoch = 4; seq_uid = 77L; vols = [ (0, 1024); (1, 17) ] };
      Uio.Message.R_repl_frontier { epoch = 1; seq_uid = 0L; vols = [] };
      Uio.Message.R_repl_ack { epoch = 4; vol_index = 1; next_block = 33 };
    ]
  in
  List.iter
    (fun r ->
      let r2 = ok (Uio.Message.decode_response (Uio.Message.encode_response r)) in
      Alcotest.(check bool) "response roundtrip" true (r = r2))
    samples

let errors_roundtrip () =
  (* Every typed error crosses the wire intact — including device errors. *)
  let samples =
    [
      Clio.Errors.Corrupt_block 17;
      Clio.Errors.Bad_record "mangled";
      Clio.Errors.No_such_log "/missing";
      Clio.Errors.Log_exists "/dup";
      Clio.Errors.Invalid_name "a/b";
      Clio.Errors.Catalog_full;
      Clio.Errors.Entry_too_large 99999;
      Clio.Errors.Volume_offline 3;
      Clio.Errors.Sequence_full;
      Clio.Errors.No_entry;
      Clio.Errors.Cursor_expired;
      Clio.Errors.Remote "something odd";
      Clio.Errors.Degraded;
      Clio.Errors.Timeout;
      Clio.Errors.Disconnected;
      Clio.Errors.Not_primary "primary-2";
      Clio.Errors.Not_primary "";
      Clio.Errors.Stale_epoch 7;
      Clio.Errors.Device Worm.Block_io.Out_of_space;
      Clio.Errors.Device Worm.Block_io.Write_once_violation;
      Clio.Errors.Device (Worm.Block_io.Unwritten 5);
      Clio.Errors.Device (Worm.Block_io.Bad_block 6);
      Clio.Errors.Device (Worm.Block_io.Out_of_range 7);
      Clio.Errors.Device (Worm.Block_io.Wrong_size 8);
      Clio.Errors.Device (Worm.Block_io.Io_error "eio");
    ]
  in
  List.iter
    (fun e ->
      match ok (Uio.Message.decode_response (Uio.Message.encode_response (Uio.Message.R_error e))) with
      | Uio.Message.R_error e2 ->
        Alcotest.(check bool) (Clio.Errors.to_string e) true (e = e2)
      | _ -> Alcotest.fail "typed error did not roundtrip")
    samples

let codec_rejects_garbage () =
  (match Uio.Message.decode_request "\xFFgarbage" with
  | Error (Clio.Errors.Bad_record _) -> ()
  | _ -> Alcotest.fail "bad request tag must fail");
  (* Retired tags stay unassigned: they decode as unknown, never as a
     different message. *)
  List.iter
    (fun tag ->
      match Uio.Message.decode_request (String.make 1 (Char.chr tag) ^ String.make 16 '\000') with
      | Error (Clio.Errors.Bad_record _) -> ()
      | _ -> Alcotest.failf "retired request tag %d must fail" tag)
    [ 5; 7; 10; 11; 15 ];
  List.iter
    (fun tag ->
      match Uio.Message.decode_response (String.make 1 (Char.chr tag) ^ String.make 16 '\000') with
      | Error (Clio.Errors.Bad_record _) -> ()
      | _ -> Alcotest.failf "retired response tag %d must fail" tag)
    [ 4; 5; 8; 9 ];
  match Uio.Message.decode_response "" with
  | Error (Clio.Errors.Bad_record _) -> ()
  | _ -> Alcotest.fail "empty response must fail"

(* ------------------------------ protocol ------------------------------ *)

let test_connect_is_free () =
  (* One protocol: connecting negotiates nothing, so the first round trip
     is the first real request. *)
  let _f, _rpc, client, tr = rpc_fixture () in
  Alcotest.(check int) "no round trip at connect" 0
    (Uio.Transport.counters tr).Uio.Transport.round_trips;
  ignore (okr (Uio.Client.create_log client "/first"));
  Alcotest.(check int) "one trip per request" 1
    (Uio.Transport.counters tr).Uio.Transport.round_trips

let test_typed_errors_cross_the_wire () =
  let _f, _rpc, client, _tr = rpc_fixture () in
  (match Uio.Client.resolve client "/missing" with
  | Error (Clio.Errors.No_such_log _) -> ()
  | Error e -> Alcotest.failf "expected No_such_log, got %s" (Clio.Errors.to_string e)
  | Ok _ -> Alcotest.fail "must fail");
  ignore (okr (Uio.Client.create_log client "/dup"));
  match Uio.Client.create_log client "/dup" with
  | Error (Clio.Errors.Log_exists _) -> ()
  | Error e -> Alcotest.failf "expected Log_exists, got %s" (Clio.Errors.to_string e)
  | Ok _ -> Alcotest.fail "duplicate create must fail"

(* ----------------------------- end to end ----------------------------- *)

let test_remote_write_read () =
  let _f, _rpc, client, _tr = rpc_fixture () in
  let log = okr (Uio.Client.create_log client "/remote") in
  let ts = okr (Uio.Client.append client ~log "over the wire") in
  Alcotest.(check bool) "timestamp returned" true (ts <> None);
  ignore (okr (Uio.Client.append client ~log "second"));
  let entries = okr (Uio.Client.fold_entries client ~log ~init:[] (fun acc e -> e :: acc)) in
  Alcotest.(check (list string)) "read back" [ "over the wire"; "second" ]
    (List.rev_map (fun e -> e.Uio.Message.payload) entries)

let test_remote_naming () =
  let _f, _rpc, client, _tr = rpc_fixture () in
  let id = okr (Uio.Client.ensure_log client "/deep/nested/log") in
  Alcotest.(check int) "resolve matches" id (okr (Uio.Client.resolve client "/deep/nested/log"));
  Alcotest.(check string) "path_of" "/deep/nested/log" (okr (Uio.Client.path_of client id));
  let names = okr (Uio.Client.list_logs client "/deep") in
  Alcotest.(check (list string)) "listing paths" [ "/deep/nested" ]
    (List.map (fun (d : Uio.Message.dir_entry) -> d.Uio.Message.path) names);
  Alcotest.(check (list int)) "sublog counts" [ 1 ]
    (List.map (fun (d : Uio.Message.dir_entry) -> d.Uio.Message.entry_count) names);
  okr (Uio.Client.set_perms client ~log:id 0o400);
  let names = okr (Uio.Client.list_logs client "/deep/nested") in
  Alcotest.(check (list int)) "perms visible" [ 0o400 ]
    (List.map (fun (d : Uio.Message.dir_entry) -> d.Uio.Message.perms) names)

let test_remote_cursors_bidirectional () =
  let _f, rpc, client, _tr = rpc_fixture () in
  let log = okr (Uio.Client.create_log client "/c") in
  for i = 0 to 9 do
    ignore (okr (Uio.Client.append client ~log (string_of_int i)))
  done;
  let c = okr (Uio.Client.open_cursor client ~log Uio.Message.From_end) in
  Alcotest.(check int) "server tracks cursor" 1 (Uio.Rpc_server.open_cursors rpc);
  let p () = (Option.get (okr (Uio.Client.prev c))).Uio.Message.payload in
  let n () = (Option.get (okr (Uio.Client.next c))).Uio.Message.payload in
  Alcotest.(check string) "prev" "9" (p ());
  Alcotest.(check string) "prev" "8" (p ());
  Alcotest.(check string) "next again" "8" (n ());
  okr (Uio.Client.close_cursor c);
  Alcotest.(check int) "cursor closed" 0 (Uio.Rpc_server.open_cursors rpc);
  (match Uio.Client.next c with
  | Error Clio.Errors.Cursor_expired -> ()
  | Error e -> Alcotest.failf "expected Cursor_expired, got %s" (Clio.Errors.to_string e)
  | Ok _ -> Alcotest.fail "closed cursor must error")

let test_remote_time_search () =
  let f, _rpc, client, _tr = rpc_fixture () in
  let log = okr (Uio.Client.create_log client "/t") in
  let stamps =
    List.init 20 (fun i ->
        Sim.Clock.advance f.clock 1000L;
        Option.get (okr (Uio.Client.append client ~log (Printf.sprintf "t%d" i))))
  in
  let ts10 = List.nth stamps 10 in
  let e = Option.get (okr (Uio.Client.entry_at_or_after client ~log ts10)) in
  Alcotest.(check string) "at-or-after" "t10" e.Uio.Message.payload;
  let e = Option.get (okr (Uio.Client.entry_before client ~log ts10)) in
  Alcotest.(check string) "before" "t9" e.Uio.Message.payload;
  let c = okr (Uio.Client.open_cursor client ~log (Uio.Message.From_time ts10)) in
  let rec first_ge () =
    match Option.get (okr (Uio.Client.next c)) with
    | e when e.Uio.Message.timestamp >= Some ts10 -> e.Uio.Message.payload
    | _ -> first_ge ()
  in
  Alcotest.(check string) "cursor from time" "t10" (first_ge ())

let test_remote_multi_member_append () =
  let _f, _rpc, client, _tr = rpc_fixture () in
  let a = okr (Uio.Client.create_log client "/a") in
  let b = okr (Uio.Client.create_log client "/b") in
  ignore (okr (Uio.Client.append client ~log:a ~extra_members:[ b ] "both"));
  let in_b = okr (Uio.Client.fold_entries client ~log:b ~init:0 (fun n _ -> n + 1)) in
  Alcotest.(check int) "extra membership over the wire" 1 in_b

(* ----------------------------- batching ----------------------------- *)

let test_append_batch_basic () =
  let f, _rpc, client, _tr = rpc_fixture () in
  let a = okr (Uio.Client.create_log client "/a") in
  let b = okr (Uio.Client.create_log client "/b") in
  (* Interleaved targets in one request, applied in arrival order. *)
  let items =
    List.init 10 (fun i ->
        {
          Uio.Message.log = (if i mod 2 = 0 then a else b);
          extra_members = [];
          data = Printf.sprintf "e%d" i;
        })
  in
  let stamps = okr (Uio.Client.append_batch ~force:true client items) in
  Alcotest.(check int) "one timestamp per item" 10 (List.length stamps);
  let ts = List.map (fun t -> Option.get t) stamps in
  Alcotest.(check bool) "timestamps strictly increasing" true
    (List.for_all2 (fun x y -> Int64.compare x y < 0)
       (List.filteri (fun i _ -> i < 9) ts)
       (List.tl ts));
  let payloads log =
    List.rev (okr (Uio.Client.fold_entries client ~log ~init:[] (fun acc e ->
        e.Uio.Message.payload :: acc)))
  in
  check_payloads "even entries in /a" [ "e0"; "e2"; "e4"; "e6"; "e8" ] (payloads a);
  check_payloads "odd entries in /b" [ "e1"; "e3"; "e5"; "e7"; "e9" ] (payloads b);
  ignore f;
  Alcotest.(check int) "empty batch is a no-op" 0
    (List.length (okr (Uio.Client.append_batch client [])))

let test_append_batch_group_commit () =
  (* N forced singles cost N durability points; one forced batch costs 1. *)
  let f1, _rpc1, client1, _tr1 = rpc_fixture () in
  let log = okr (Uio.Client.create_log client1 "/gc") in
  let forces0 = (Clio.Server.stats f1.srv).Clio.Stats.forces in
  for i = 0 to 9 do
    ignore (okr (Uio.Client.append ~force:true client1 ~log (string_of_int i)))
  done;
  let singles = (Clio.Server.stats f1.srv).Clio.Stats.forces - forces0 in
  Alcotest.(check int) "10 forced singles = 10 forces" 10 singles;
  let f2, _rpc2, client2, _tr2 = rpc_fixture () in
  let log2 = okr (Uio.Client.create_log client2 "/gc") in
  let forces0 = (Clio.Server.stats f2.srv).Clio.Stats.forces in
  let items =
    List.init 10 (fun i -> { Uio.Message.log = log2; extra_members = []; data = string_of_int i })
  in
  ignore (okr (Uio.Client.append_batch ~force:true client2 items));
  let batched = (Clio.Server.stats f2.srv).Clio.Stats.forces - forces0 in
  Alcotest.(check int) "forced batch = 1 force" 1 batched

let test_append_batch_rejects_atomically () =
  let f, _rpc, client, _tr = rpc_fixture () in
  let a = okr (Uio.Client.create_log client "/a") in
  let appended0 = (Clio.Server.stats f.srv).Clio.Stats.entries_appended in
  let items =
    [
      { Uio.Message.log = a; extra_members = []; data = "good" };
      { Uio.Message.log = 0; extra_members = []; data = "bad target" };
    ]
  in
  (match Uio.Client.append_batch client items with
  | Error (Clio.Errors.Bad_record _) -> ()
  | Error e -> Alcotest.failf "expected Bad_record, got %s" (Clio.Errors.to_string e)
  | Ok _ -> Alcotest.fail "batch with a bad target must fail");
  Alcotest.(check int) "nothing staged" appended0
    (Clio.Server.stats f.srv).Clio.Stats.entries_appended;
  Alcotest.(check int) "log /a empty" 0
    (okr (Uio.Client.fold_entries client ~log:a ~init:0 (fun n _ -> n + 1)))

(* -------------------------- chunked reads -------------------------- *)

let test_chunked_reads () =
  let _f, _rpc, client, _tr = rpc_fixture () in
  let log = okr (Uio.Client.create_log client "/chunks") in
  let items =
    List.init 10 (fun i -> { Uio.Message.log; extra_members = []; data = string_of_int i })
  in
  ignore (okr (Uio.Client.append_batch client items));
  let c = okr (Uio.Client.open_cursor client ~log Uio.Message.From_start) in
  let take n =
    let entries, eof = okr (Uio.Client.next_chunk ~max_entries:n c) in
    (List.map (fun e -> e.Uio.Message.payload) entries, eof)
  in
  Alcotest.(check (pair (list string) bool)) "first 4" ([ "0"; "1"; "2"; "3" ], false) (take 4);
  Alcotest.(check (pair (list string) bool)) "next 4" ([ "4"; "5"; "6"; "7" ], false) (take 4);
  Alcotest.(check (pair (list string) bool)) "last 2 + eof" ([ "8"; "9" ], true) (take 4);
  Alcotest.(check (pair (list string) bool)) "past the end" ([], true) (take 4);
  okr (Uio.Client.close_cursor c);
  (* Backwards, budgeted by bytes: 100-byte payloads against a 150-byte
     budget come back two per chunk. *)
  let log2 = okr (Uio.Client.create_log client "/bytes") in
  let big = String.make 100 'x' in
  ignore
    (okr
       (Uio.Client.append_batch client
          (List.init 4 (fun _ -> { Uio.Message.log = log2; extra_members = []; data = big }))));
  let c = okr (Uio.Client.open_cursor client ~log:log2 Uio.Message.From_end) in
  let entries, eof = okr (Uio.Client.prev_chunk ~max_bytes:150 c) in
  Alcotest.(check int) "byte budget stops at 2" 2 (List.length entries);
  Alcotest.(check bool) "not eof yet" false eof;
  okr (Uio.Client.close_cursor c)

let test_stale_continuation_token () =
  (* Raw RPC: replaying an old (cursor, seq) token is refused instead of
     silently re-reading. *)
  let f = make_fixture () in
  let rpc = Uio.Rpc_server.create f.srv in
  let h req =
    ok (Uio.Message.decode_response (Uio.Rpc_server.handle rpc (Uio.Message.encode_request req)))
  in
  let log = ok (Clio.Server.create_log f.srv "/raw") in
  for i = 0 to 5 do
    ignore (ok (Clio.Server.append f.srv ~log (string_of_int i)))
  done;
  let cid =
    match h (Uio.Message.Open_cursor { log; whence = Uio.Message.From_start }) with
    | Uio.Message.R_id id -> id
    | _ -> Alcotest.fail "open failed"
  in
  let chunk seq =
    h (Uio.Message.Next_chunk { Uio.Message.cursor = cid; seq; max_entries = 2; max_bytes = 1000 })
  in
  (match chunk 0 with
  | Uio.Message.R_entries { seq = 1; eof = false; entries } ->
    Alcotest.(check int) "two entries" 2 (List.length entries)
  | _ -> Alcotest.fail "first chunk failed");
  (match chunk 0 with
  | Uio.Message.R_error Clio.Errors.Cursor_expired -> ()
  | _ -> Alcotest.fail "replayed token must be refused");
  (match chunk 1 with
  | Uio.Message.R_entries { seq = 2; _ } -> ()
  | _ -> Alcotest.fail "fresh token must work");
  match
    h (Uio.Message.Next_chunk { Uio.Message.cursor = 9999; seq = 0; max_entries = 1; max_bytes = 1 })
  with
  | Uio.Message.R_error Clio.Errors.Cursor_expired -> ()
  | _ -> Alcotest.fail "unknown cursor must be Cursor_expired"

(* ------------------------- cursor hygiene ------------------------- *)

let test_cursor_lru_cap () =
  let _f, rpc, client, _tr = rpc_fixture ~max_cursors:4 () in
  let log = okr (Uio.Client.create_log client "/lru") in
  ignore (okr (Uio.Client.append client ~log "x"));
  let cursors =
    List.init 5 (fun _ -> okr (Uio.Client.open_cursor client ~log Uio.Message.From_start))
  in
  Alcotest.(check int) "capped at 4" 4 (Uio.Rpc_server.open_cursors rpc);
  (match Uio.Client.next (List.hd cursors) with
  | Error Clio.Errors.Cursor_expired -> ()
  | Error e -> Alcotest.failf "expected Cursor_expired, got %s" (Clio.Errors.to_string e)
  | Ok _ -> Alcotest.fail "evicted cursor must be stale");
  match Uio.Client.next (List.nth cursors 4) with
  | Ok (Some e) -> Alcotest.(check string) "newest cursor still live" "x" e.Uio.Message.payload
  | _ -> Alcotest.fail "newest cursor must survive"

let test_with_cursor_bracket () =
  let _f, rpc, client, _tr = rpc_fixture () in
  let log = okr (Uio.Client.create_log client "/wc") in
  ignore (okr (Uio.Client.append client ~log "x"));
  (* Normal return closes. *)
  let n =
    okr
      (Uio.Client.with_cursor client ~log Uio.Message.From_start (fun c ->
           let entries, _ = okr (Uio.Client.next_chunk c) in
           Ok (List.length entries)))
  in
  Alcotest.(check int) "body result" 1 n;
  Alcotest.(check int) "closed after Ok" 0 (Uio.Rpc_server.open_cursors rpc);
  (* Error return closes. *)
  (match
     Uio.Client.with_cursor client ~log Uio.Message.From_start (fun _ ->
         Error Clio.Errors.No_entry)
   with
  | Error Clio.Errors.No_entry -> ()
  | _ -> Alcotest.fail "body error must propagate");
  Alcotest.(check int) "closed after Error" 0 (Uio.Rpc_server.open_cursors rpc);
  (* Exception closes. *)
  (try
     ignore
       (Uio.Client.with_cursor client ~log Uio.Message.From_start (fun _ ->
            failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "closed after exception" 0 (Uio.Rpc_server.open_cursors rpc)

(* ------------------------ transport accounting ------------------------ *)

let test_transport_accounting () =
  let f, _rpc, client, tr = rpc_fixture ~latency_us:750L () in
  let t0 = Sim.Clock.peek f.clock in
  let before = Uio.Transport.counters tr in
  let log = okr (Uio.Client.create_log client "/acct") in
  ignore (okr (Uio.Client.append client ~log "fifty bytes of client data, more or less padded"));
  let d = Uio.Transport.diff ~after:(Uio.Transport.counters tr) ~before in
  Alcotest.(check int) "two round trips" 2 d.Uio.Transport.round_trips;
  let elapsed = Int64.sub (Sim.Clock.peek f.clock) t0 in
  Alcotest.(check bool) "IPC latency charged" true (Int64.compare elapsed 1500L >= 0);
  Alcotest.(check bool) "bytes counted" true (d.Uio.Transport.bytes_sent > 50)

let test_accounting_charges_failed_attempts () =
  (* Regression: the round trip and request bytes must be charged even when
     the handler dies mid-call — the request did go out on the wire. The
     old code updated the counters only after the handler returned. *)
  let clock = Sim.Clock.simulated () in
  let tr =
    Uio.Transport.local ~clock (fun req ->
        if String.length req > 3 then failwith "handler crash" else "ok")
  in
  ignore (Uio.Transport.call tr "abc");
  (try ignore (Uio.Transport.call tr "a long doomed request") with Failure _ -> ());
  let c = Uio.Transport.counters tr in
  Alcotest.(check int) "both attempts counted" 2 c.Uio.Transport.round_trips;
  Alcotest.(check int) "request bytes of both counted"
    (String.length "abc" + String.length "a long doomed request")
    c.Uio.Transport.bytes_sent;
  Alcotest.(check int) "only the successful response counted" 2 c.Uio.Transport.bytes_received

let test_dedup_replays_lost_ack () =
  (* The applied-but-ack-lost scenario, hand-driven: send a keyed append,
     throw the response away, resend the identical bytes. The server must
     not append twice, and the replayed response must be byte-identical —
     same timestamp. *)
  let f = make_fixture () in
  let rpc = Uio.Rpc_server.create f.srv in
  let log = ok (Clio.Server.create_log f.srv "/dedup") in
  let keyed =
    Uio.Message.encode_request
      (Uio.Message.Keyed
         {
           key = 42L;
           req =
             Uio.Message.Append_batch
               { force = true; items = [ { Uio.Message.log; extra_members = []; data = "once" } ] };
         })
  in
  let r1 = Uio.Rpc_server.handle rpc keyed in
  let r2 = Uio.Rpc_server.handle rpc keyed in
  Alcotest.(check string) "replay is byte-identical" r1 r2;
  Alcotest.(check int) "dedup window holds the key" 1 (Uio.Rpc_server.dedup_entries rpc);
  Alcotest.(check (list string)) "applied exactly once" [ "once" ] (all_payloads f.srv ~log);
  (* A different key is a different operation. *)
  let keyed2 =
    Uio.Message.encode_request
      (Uio.Message.Keyed
         {
           key = 43L;
           req =
             Uio.Message.Append_batch
               { force = true; items = [ { Uio.Message.log; extra_members = []; data = "twice" } ] };
         })
  in
  ignore (Uio.Rpc_server.handle rpc keyed2);
  Alcotest.(check (list string)) "fresh key applies" [ "once"; "twice" ] (all_payloads f.srv ~log)

let test_dedup_window_eviction () =
  (* A tiny window: old keys fall out FIFO and a late retry of an evicted
     key re-runs the operation (the window is a bound, not a promise). *)
  let f = make_fixture () in
  let rpc = Uio.Rpc_server.create ~dedup_window:2 f.srv in
  let log = ok (Clio.Server.create_log f.srv "/win") in
  let keyed k data =
    Uio.Message.encode_request
      (Uio.Message.Keyed
         {
           key = k;
           req =
             Uio.Message.Append_batch
               { force = false; items = [ { Uio.Message.log; extra_members = []; data } ] };
         })
  in
  ignore (Uio.Rpc_server.handle rpc (keyed 1L "a"));
  ignore (Uio.Rpc_server.handle rpc (keyed 2L "b"));
  ignore (Uio.Rpc_server.handle rpc (keyed 3L "c"));
  Alcotest.(check int) "window stays bounded" 2 (Uio.Rpc_server.dedup_entries rpc);
  ignore (Uio.Rpc_server.handle rpc (keyed 1L "a"));
  ignore (ok (Clio.Server.force f.srv));
  Alcotest.(check (list string)) "evicted key re-applies" [ "a"; "b"; "c"; "a" ]
    (all_payloads f.srv ~log)

let test_fold_round_trips () =
  (* 1000 entries: the chunked fold costs ceil(1000/128) = 8 reads plus the
     open/close bracket, not the V-era 1000+ — and a fold at chunk=1 still
     gets the right answer, one entry per trip. *)
  let n = 1000 in
  let f, _rpc, client, tr = rpc_fixture () in
  let log = okr (Uio.Client.create_log client "/bulk") in
  let batch = 250 in
  for b = 0 to (n / batch) - 1 do
    let items =
      List.init batch (fun i ->
          { Uio.Message.log; extra_members = []; data = string_of_int ((b * batch) + i) })
    in
    ignore (okr (Uio.Client.append_batch client items))
  done;
  let before = Uio.Transport.counters tr in
  let count = okr (Uio.Client.fold_entries client ~log ~init:0 (fun k _ -> k + 1)) in
  let d = Uio.Transport.diff ~after:(Uio.Transport.counters tr) ~before in
  Alcotest.(check int) "all entries seen" n count;
  let chunk = Uio.Client.default_chunk_entries in
  let ceil_chunks = (n + chunk - 1) / chunk in
  Alcotest.(check bool)
    (Printf.sprintf "fold costs <= ceil(%d/%d)+2 trips (got %d)" n chunk d.Uio.Transport.round_trips)
    true
    (d.Uio.Transport.round_trips <= ceil_chunks + 2);
  (* Same session at chunk=1: correct but one entry per round trip. *)
  let srv_payloads = all_payloads f.srv ~log in
  let before = Uio.Transport.counters tr in
  let single_payloads =
    List.rev
      (okr (Uio.Client.fold_entries ~chunk_entries:1 client ~log ~init:[] (fun acc e ->
           e.Uio.Message.payload :: acc)))
  in
  let d1 = Uio.Transport.diff ~after:(Uio.Transport.counters tr) ~before in
  Alcotest.(check bool) "chunk=1 fold is per-entry" true (d1.Uio.Transport.round_trips > n);
  Alcotest.(check (list string)) "chunk=1 and server agree" srv_payloads single_payloads;
  Alcotest.(check bool) "default chunks are >=10x fewer trips" true
    (d1.Uio.Transport.round_trips >= 10 * d.Uio.Transport.round_trips)

(* ------------------------ batch = singles bytes ------------------------ *)

let device_images f =
  List.map
    (fun io ->
      let cap = io.Worm.Block_io.capacity in
      List.init cap (fun i ->
          match io.Worm.Block_io.read i with Ok b -> Some (Bytes.to_string b) | Error _ -> None))
    (fixture_devices f)

let prop_batch_equals_singles =
  (* The same entries sent as one append_batch and as N singles leave
     byte-identical volumes, and the batch survives recovery. *)
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 30)
        (pair bool (string_size ~gen:(char_range 'a' 'z') (int_range 0 400))))
  in
  Testkit.qtest ~count:40 "append_batch == N appends (bytes + recovery)" gen (fun spec ->
      let mk () =
        let f = make_fixture ~nvram:false () in
        let a = create_log f "/a" in
        let b = create_log f "/b" in
        (f, a, b)
      in
      let f1, a1, b1 = mk () in
      let items =
        List.map
          (fun (to_a, data) ->
            { Uio.Message.log = (if to_a then a1 else b1); extra_members = []; data })
          spec
      in
      let batch_items =
        List.map
          (fun { Uio.Message.log; extra_members; data } ->
            { Clio.Server.log; extra_members; payload = data })
          items
      in
      ignore (ok (Clio.Server.append_batch ~force:true f1.srv batch_items));
      let f2, a2, b2 = mk () in
      List.iter
        (fun (to_a, data) ->
          ignore (ok (Clio.Server.append f2.srv ~log:(if to_a then a2 else b2) data)))
        spec;
      ignore (ok (Clio.Server.force f2.srv));
      let same_bytes = device_images f1 = device_images f2 in
      (* Crash the batched server and make sure recovery sees every entry. *)
      let srv1' = crash_and_recover f1 in
      let expect to_a =
        List.filter_map (fun (t, d) -> if t = to_a then Some d else None) spec
      in
      same_bytes
      && all_payloads srv1' ~log:a1 = expect true
      && all_payloads srv1' ~log:b1 = expect false)

let prop_request_fuzz =
  (* Arbitrary bytes never crash the server dispatcher. *)
  Testkit.qtest ~count:300 "dispatcher total on garbage" QCheck2.Gen.(string_size (int_range 0 64))
    (fun junk ->
      let f = make_fixture () in
      let rpc = Uio.Rpc_server.create f.srv in
      match Uio.Message.decode_response (Uio.Rpc_server.handle rpc junk) with
      | Ok _ -> true
      | Error _ -> false)

let () =
  run "uio"
    [
      ( "codec",
        [
          Alcotest.test_case "requests roundtrip" `Quick requests_roundtrip;
          Alcotest.test_case "responses roundtrip" `Quick responses_roundtrip;
          Alcotest.test_case "typed errors roundtrip" `Quick errors_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick codec_rejects_garbage;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "connect is free" `Quick test_connect_is_free;
          Alcotest.test_case "typed errors" `Quick test_typed_errors_cross_the_wire;
          Alcotest.test_case "append_batch" `Quick test_append_batch_basic;
          Alcotest.test_case "group commit" `Quick test_append_batch_group_commit;
          Alcotest.test_case "batch rejects atomically" `Quick test_append_batch_rejects_atomically;
          Alcotest.test_case "chunked reads" `Quick test_chunked_reads;
          Alcotest.test_case "stale continuation token" `Quick test_stale_continuation_token;
          Alcotest.test_case "cursor LRU cap" `Quick test_cursor_lru_cap;
          Alcotest.test_case "with_cursor bracket" `Quick test_with_cursor_bracket;
          Alcotest.test_case "fold round trips" `Quick test_fold_round_trips;
          prop_batch_equals_singles;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "write/read" `Quick test_remote_write_read;
          Alcotest.test_case "naming" `Quick test_remote_naming;
          Alcotest.test_case "cursors" `Quick test_remote_cursors_bidirectional;
          Alcotest.test_case "time search" `Quick test_remote_time_search;
          Alcotest.test_case "errors propagate" `Quick test_typed_errors_cross_the_wire;
          Alcotest.test_case "transport accounting" `Quick test_transport_accounting;
          Alcotest.test_case "failed attempts charged" `Quick
            test_accounting_charges_failed_attempts;
          Alcotest.test_case "multi-member append" `Quick test_remote_multi_member_append;
          prop_request_fuzz;
        ] );
      ( "idempotency",
        [
          Alcotest.test_case "lost ack replay" `Quick test_dedup_replays_lost_ack;
          Alcotest.test_case "window eviction" `Quick test_dedup_window_eviction;
        ] );
    ]
