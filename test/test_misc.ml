(* Coverage sweep for small surfaces: config validation, error rendering,
   stats arithmetic, device stats, fsck rendering, server introspection. *)

open Testkit

let test_config_validation () =
  let bad cfg =
    match Clio.Config.validate cfg with
    | Error (Clio.Errors.Bad_record _) -> ()
    | _ -> Alcotest.fail "expected config rejection"
  in
  bad { Clio.Config.default with fanout = 1 };
  bad { Clio.Config.default with fanout = 5000 };
  bad { Clio.Config.default with block_size = 32 };
  bad { Clio.Config.default with cache_blocks = 0 };
  ignore (ok (Clio.Config.validate Clio.Config.default))

let test_config_levels () =
  Alcotest.(check int) "N=16 cap 4096" 3 (Clio.Config.levels { Clio.Config.default with fanout = 16 } ~capacity:4096);
  Alcotest.(check int) "N=16 cap 4097" 4 (Clio.Config.levels { Clio.Config.default with fanout = 16 } ~capacity:4097);
  Alcotest.(check int) "N=4 cap 16" 2 (Clio.Config.levels { Clio.Config.default with fanout = 4 } ~capacity:16);
  Alcotest.(check int) "at least one level" 1 (Clio.Config.levels Clio.Config.default ~capacity:2);
  Alcotest.(check int) "pow" 256 (Clio.Config.pow_fanout { Clio.Config.default with fanout = 16 } 2)

let test_error_rendering () =
  (* Every constructor renders to a nonempty, distinct string. *)
  let msgs =
    List.map Clio.Errors.to_string
      [
        Clio.Errors.Device Worm.Block_io.Out_of_space;
        Clio.Errors.Corrupt_block 7;
        Clio.Errors.Bad_record "x";
        Clio.Errors.No_such_log "/a";
        Clio.Errors.Log_exists "/a";
        Clio.Errors.Invalid_name "";
        Clio.Errors.Catalog_full;
        Clio.Errors.Entry_too_large 9;
        Clio.Errors.Volume_offline 2;
        Clio.Errors.Sequence_full;
        Clio.Errors.No_entry;
      ]
  in
  List.iter (fun m -> Alcotest.(check bool) "nonempty" true (String.length m > 0)) msgs;
  Alcotest.(check int) "all distinct" (List.length msgs)
    (List.length (List.sort_uniq compare msgs))

let test_device_error_rendering () =
  List.iter
    (fun e -> Alcotest.(check bool) "nonempty" true (String.length (Worm.Block_io.error_to_string e) > 0))
    [
      Worm.Block_io.Out_of_space;
      Worm.Block_io.Write_once_violation;
      Worm.Block_io.Unwritten 1;
      Worm.Block_io.Bad_block 2;
      Worm.Block_io.Out_of_range 3;
      Worm.Block_io.Wrong_size 4;
      Worm.Block_io.Io_error "io";
    ]

let test_stats_snapshot_diff () =
  let f = make_fixture () in
  let log = create_log f "/s" in
  let before = Clio.Stats.snapshot (Clio.Server.stats f.srv) in
  for i = 0 to 9 do
    ignore (append f ~log (Printf.sprintf "%d" i))
  done;
  let d = Clio.Stats.diff ~after:(Clio.Server.stats f.srv) ~before in
  Alcotest.(check int) "delta entries" 10 d.Clio.Stats.entries_appended;
  Alcotest.(check int) "delta client bytes" 10 d.Clio.Stats.bytes_client;
  (* snapshot is independent of the live value *)
  Alcotest.(check bool) "snapshot frozen" true
    (before.Clio.Stats.entries_appended < (Clio.Server.stats f.srv).Clio.Stats.entries_appended);
  Clio.Stats.reset (Clio.Server.stats f.srv);
  Alcotest.(check int) "reset" 0 (Clio.Server.stats f.srv).Clio.Stats.entries_appended;
  let rendered = Format.asprintf "%a" Clio.Stats.pp d in
  Alcotest.(check bool) "pp mentions entries" true
    (String.length rendered > 0)

let test_overhead_bytes_sums () =
  let s = Clio.Stats.create () in
  s.Clio.Stats.bytes_header <- 1;
  s.Clio.Stats.bytes_index <- 2;
  s.Clio.Stats.bytes_trailer <- 3;
  s.Clio.Stats.bytes_entrymap <- 4;
  s.Clio.Stats.bytes_catalog <- 5;
  s.Clio.Stats.bytes_padding <- 6;
  Alcotest.(check int) "sum" 21 (Clio.Stats.overhead_bytes s)

let test_dev_stats () =
  let s = Worm.Dev_stats.create () in
  s.Worm.Dev_stats.reads <- 5;
  s.Worm.Dev_stats.appends <- 2;
  let snap = Worm.Dev_stats.snapshot s in
  s.Worm.Dev_stats.reads <- 9;
  let d = Worm.Dev_stats.diff ~after:s ~before:snap in
  Alcotest.(check int) "read delta" 4 d.Worm.Dev_stats.reads;
  Alcotest.(check int) "append delta" 0 d.Worm.Dev_stats.appends;
  Alcotest.(check bool) "pp" true (String.length (Format.asprintf "%a" Worm.Dev_stats.pp s) > 0);
  Worm.Dev_stats.reset s;
  Alcotest.(check int) "reset" 0 s.Worm.Dev_stats.reads

let test_ids_predicates () =
  Alcotest.(check bool) "root reserved" true (Clio.Ids.is_reserved Clio.Ids.root);
  Alcotest.(check bool) "root not internal" false (Clio.Ids.is_internal Clio.Ids.root);
  Alcotest.(check bool) "entrymap internal" true (Clio.Ids.is_internal Clio.Ids.entrymap);
  Alcotest.(check bool) "client not reserved" false (Clio.Ids.is_reserved Clio.Ids.first_client);
  Alcotest.(check bool) "4095 valid" true (Clio.Ids.valid 4095);
  Alcotest.(check bool) "4096 invalid" false (Clio.Ids.valid 4096);
  Alcotest.(check bool) "-1 invalid" false (Clio.Ids.valid (-1))

let test_volume_blocks_used () =
  let f = make_fixture () in
  let before = Clio.Server.volume_blocks_used f.srv in
  let log = create_log f "/u" in
  for i = 0 to 49 do
    ignore (append f ~log (Printf.sprintf "entry %d with some padding to fill" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  Alcotest.(check bool) "usage grows" true (Clio.Server.volume_blocks_used f.srv > before)

let test_cursor_at_position () =
  let f = make_fixture () in
  let log = create_log f "/p" in
  for i = 0 to 9 do
    ignore (append f ~log (string_of_int i))
  done;
  (* Capture entry 5's position via a scan, then seek a fresh cursor to it. *)
  let pos = ref None in
  let _ = ok (Clio.Server.fold_entries f.srv ~log ~init:() (fun () e ->
      if e.Clio.Reader.payload = "5" then pos := Some e.Clio.Reader.pos)) in
  let c = Clio.Server.cursor_at f.srv ~log (Option.get !pos) in
  Alcotest.(check string) "next from position" "5"
    (Option.get (ok (Clio.Server.next c))).Clio.Reader.payload;
  let c = Clio.Server.cursor_at f.srv ~log (Option.get !pos) in
  Alcotest.(check string) "prev from position" "4"
    (Option.get (ok (Clio.Server.prev c))).Clio.Reader.payload

let test_fsck_report_pp () =
  let f = make_fixture () in
  let r = ok (Clio.Server.fsck f.srv) in
  let s = Format.asprintf "%a" Clio.Fsck.pp_report r in
  Alcotest.(check bool) "mentions volumes" true
    (String.length s > 0 && String.sub s 0 7 = "volumes")

let test_position_compare_and_pp () =
  let a = { Clio.Assemble.vol = 0; block = 5; rec_index = 2 } in
  let b = { Clio.Assemble.vol = 0; block = 5; rec_index = 3 } in
  let c = { Clio.Assemble.vol = 1; block = 0; rec_index = 0 } in
  Alcotest.(check bool) "a < b" true (Clio.Assemble.compare_position a b < 0);
  Alcotest.(check bool) "b < c" true (Clio.Assemble.compare_position b c < 0);
  Alcotest.(check int) "a = a" 0 (Clio.Assemble.compare_position a a);
  Alcotest.(check string) "pp" "v0/b5/r2" (Format.asprintf "%a" Clio.Assemble.pp_position a)

let () =
  run "misc"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "levels" `Quick test_config_levels;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "errors" `Quick test_error_rendering;
          Alcotest.test_case "device errors" `Quick test_device_error_rendering;
          Alcotest.test_case "fsck report" `Quick test_fsck_report_pp;
          Alcotest.test_case "positions" `Quick test_position_compare_and_pp;
        ] );
      ( "stats",
        [
          Alcotest.test_case "snapshot/diff" `Quick test_stats_snapshot_diff;
          Alcotest.test_case "overhead sum" `Quick test_overhead_bytes_sums;
          Alcotest.test_case "device stats" `Quick test_dev_stats;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "ids" `Quick test_ids_predicates;
          Alcotest.test_case "blocks used" `Quick test_volume_blocks_used;
          Alcotest.test_case "cursor at position" `Quick test_cursor_at_position;
        ] );
    ]
