(* Integration over real file-backed volumes: a server's state persists
   across process-style close/reopen cycles, and the deep verifier stays
   happy. Also the regression tests for the recovery ordering bug fsck
   found (sublog ancestor bits must survive recovery) and for forces that
   never reached the device's flush (fsync). *)

open Testkit

let with_tmp_dir f =
  let dir = Filename.temp_file "clio_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let vol_path dir i = Filename.concat dir (Printf.sprintf "vol-%03d.img" i)

let alloc dir ~vol_index =
  match Worm.File_device.create ~path:(vol_path dir vol_index) ~block_size:512 ~capacity:256 () with
  | Ok d -> Ok (Worm.File_device.io d)
  | Error e -> Error (Clio.Errors.Device e)

let config = { Clio.Config.default with block_size = 512; fanout = 4 }

let open_store dir =
  let rec devices i acc =
    let p = vol_path dir i in
    if Sys.file_exists p then
      devices (i + 1) (Worm.File_device.io (Result.get_ok (Worm.File_device.open_existing ~path:p)) :: acc)
    else List.rev acc
  in
  ok
    (Clio.Server.recover ~config ~clock:(Sim.Clock.simulated ~start:1_000_000L ())
       ~alloc_volume:(alloc dir) ~devices:(devices 0 []) ())

let test_file_backed_roundtrip () =
  with_tmp_dir (fun dir ->
      let srv =
        ok
          (Clio.Server.create ~config ~clock:(Sim.Clock.simulated ())
             ~alloc_volume:(alloc dir) ())
      in
      let log = ok (Clio.Server.create_log srv "/persist") in
      let payloads = List.init 200 (fun i -> Printf.sprintf "durable %03d padding" i) in
      List.iter (fun p -> ignore (ok (Clio.Server.append srv ~log p))) payloads;
      ignore (ok (Clio.Server.force srv));
      (* "Process restart": reopen from the files alone. *)
      let srv2 = open_store dir in
      let log2 = ok (Clio.Server.resolve srv2 "/persist") in
      check_payloads "persisted" payloads (all_payloads srv2 ~log:log2);
      let r = ok (Clio.Server.fsck ~verify_entrymap:true srv2) in
      Alcotest.(check (list string)) "healthy store" [] r.Clio.Fsck.errors)

let test_file_backed_multivolume () =
  with_tmp_dir (fun dir ->
      let srv =
        ok (Clio.Server.create ~config ~clock:(Sim.Clock.simulated ()) ~alloc_volume:(alloc dir) ())
      in
      let log = ok (Clio.Server.create_log srv "/big") in
      for i = 0 to 499 do
        ignore (ok (Clio.Server.append srv ~log (Printf.sprintf "%04d %s" i (String.make 300 'f'))))
      done;
      ignore (ok (Clio.Server.force srv));
      Alcotest.(check bool) "multiple volume files" true
        (Sys.file_exists (vol_path dir 1));
      let srv2 = open_store dir in
      let log2 = ok (Clio.Server.resolve srv2 "/big") in
      Alcotest.(check int) "all entries across files" 500
        (List.length (all_payloads srv2 ~log:log2)))

let test_reopen_append_reopen () =
  with_tmp_dir (fun dir ->
      let srv =
        ok (Clio.Server.create ~config ~clock:(Sim.Clock.simulated ()) ~alloc_volume:(alloc dir) ())
      in
      ignore (ok (Clio.Server.append_path srv ~path:"/gens" "gen0"));
      ignore (ok (Clio.Server.force srv));
      let srv2 = open_store dir in
      ignore (ok (Clio.Server.append_path srv2 ~path:"/gens" "gen1"));
      ignore (ok (Clio.Server.force srv2));
      let srv3 = open_store dir in
      let log = ok (Clio.Server.resolve srv3 "/gens") in
      check_payloads "all generations" [ "gen0"; "gen1" ] (all_payloads srv3 ~log))

(* Regression: sublog ancestor bits in recovered pending maps (fsck deep
   found this on the CLI store). *)
let test_sublog_locate_after_recovery () =
  let f = make_fixture ~config:{ Clio.Config.default with fanout = 4 } () in
  let parent = create_log f "/mail" in
  let smith = create_log f "/mail/smith" in
  let jones = create_log f "/mail/jones" in
  ignore (append f ~log:smith "for smith");
  ignore (append f ~log:jones "for jones");
  ignore (ok (Clio.Server.force f.srv));
  let srv = crash_and_recover f in
  (* Reading the PARENT must find both entries even though only the pending
     bitmaps (not device entrymap entries) cover these recent blocks. *)
  let parent = ok (Clio.Server.resolve srv (Clio.Server.path_of srv parent)) in
  check_payloads "parent sees children after recovery" [ "for smith"; "for jones" ]
    (all_payloads srv ~log:parent);
  let r = ok (Clio.Server.fsck ~verify_entrymap:true srv) in
  Alcotest.(check (list string)) "deep fsck clean" [] r.Clio.Fsck.errors

let test_deep_hierarchy_recovery_equivalence () =
  let f = make_fixture ~config:{ Clio.Config.default with fanout = 4 } () in
  let _a = create_log f "/a" in
  let _ab = create_log f "/a/b" in
  let abc = create_log f "/a/b/c" in
  let ad = create_log f "/a/d" in
  let rng = Sim.Rng.create 17L in
  for i = 0 to 200 do
    let log = if Sim.Rng.bool rng then abc else ad in
    ignore (append f ~log (Printf.sprintf "x%d" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let srv = crash_and_recover f in
  let st = Clio.Server.state srv in
  let v = ok (Clio.State.active st) in
  List.iter
    (fun path ->
      let log = ok (Clio.Server.resolve srv path) in
      for pos = 1 to Clio.Vol.written_limit v do
        let truth, _ = ok (Baseline.Naive_scan.prev_block st v ~log ~before:pos) in
        let fast = ok (Clio.Locate.prev_block st v ~log ~before:pos) in
        Alcotest.(check (option int)) (Printf.sprintf "%s prev %d" path pos) truth fast
      done)
    [ "/a"; "/a/b"; "/a/b/c"; "/a/d" ]

(* ------------------------- force reaches the disk ------------------------- *)

(* A device wrapper that counts flushes and remembers how many blocks had
   been appended when each flush ran. *)
type flush_probe = { mutable appends : int; mutable flushes : (int * int) list }

let probed_alloc probe ~block_size ~capacity ~vol_index =
  let io = Worm.Mem_device.io (Worm.Mem_device.create ~block_size ~capacity ()) in
  Ok
    {
      io with
      Worm.Block_io.append =
        (fun b ->
          probe.appends <- probe.appends + 1;
          io.Worm.Block_io.append b);
      flush =
        (fun () ->
          probe.flushes <- (vol_index, probe.appends) :: probe.flushes;
          io.Worm.Block_io.flush ());
    }

let test_force_flushes_device nvram () =
  (* Regression: [force] staged the tail (NVRAM) or burned it, but never
     called the device's flush, so on a file-backed volume an acknowledged
     forced write had no fsync behind it. In both branches a force must
     flush, after every block it and the appends before it burned. *)
  let probe = { appends = 0; flushes = [] } in
  let config = { Clio.Config.default with block_size = 256; nvram_tail = nvram } in
  let srv =
    ok
      (Clio.Server.create ~config ~clock:(Sim.Clock.simulated ())
         ?nvram:(if nvram then Some (Worm.Nvram.create ()) else None)
         ~alloc_volume:(probed_alloc probe ~block_size:256 ~capacity:1024) ())
  in
  let log = ok (Clio.Server.create_log srv "/d") in
  probe.flushes <- [];
  (* Unforced entries that fill several blocks: no durability point yet. *)
  for i = 1 to 5 do
    ignore (ok (Clio.Server.append srv ~log (Printf.sprintf "%d%s" i (String.make 150 'x'))))
  done;
  Alcotest.(check int) "no flush before the force" 0 (List.length probe.flushes);
  let filled = probe.appends in
  Alcotest.(check bool) "full blocks were burned" true (filled > 1);
  ignore (ok (Clio.Server.force srv));
  match probe.flushes with
  | [ (0, at) ] ->
    Alcotest.(check int) "flushed after every burned block" probe.appends at;
    Alcotest.(check int)
      (if nvram then "tail staged, not burned" else "tail burned")
      (if nvram then filled else filled + 1)
      probe.appends
  | l -> Alcotest.failf "expected one flush of volume 0, got %d" (List.length l)

let test_roll_flushes_sealed_volume () =
  (* Filling a volume seals it: its blocks are flushed before the sequence
     moves on, so a later force on the successor leaves nothing unsynced. *)
  let probe = { appends = 0; flushes = [] } in
  let config = { Clio.Config.default with block_size = 256 } in
  let srv =
    ok
      (Clio.Server.create ~config ~clock:(Sim.Clock.simulated ()) ~nvram:(Worm.Nvram.create ())
         ~alloc_volume:(probed_alloc probe ~block_size:256 ~capacity:32) ())
  in
  let log = ok (Clio.Server.create_log srv "/r") in
  probe.flushes <- [];
  for i = 1 to 60 do
    ignore (ok (Clio.Server.append srv ~log (Printf.sprintf "%d%s" i (String.make 150 'x'))))
  done;
  ignore (ok (Clio.Server.force srv));
  let nvols = Clio.State.nvols (Clio.Server.state srv) in
  Alcotest.(check bool) "rolled onto a successor" true (nvols > 1);
  Alcotest.(check (list int)) "every volume flushed" (List.init nvols Fun.id)
    (List.sort_uniq compare (List.map fst probe.flushes))

let () =
  run "persistence"
    [
      ( "file-device",
        [
          Alcotest.test_case "roundtrip" `Quick test_file_backed_roundtrip;
          Alcotest.test_case "multivolume" `Quick test_file_backed_multivolume;
          Alcotest.test_case "reopen/append/reopen" `Quick test_reopen_append_reopen;
        ] );
      ( "durability",
        [
          Alcotest.test_case "force flushes the device (NVRAM tail)" `Quick
            (test_force_flushes_device true);
          Alcotest.test_case "force flushes the device (burned tail)" `Quick
            (test_force_flushes_device false);
          Alcotest.test_case "roll flushes the sealed volume" `Quick
            test_roll_flushes_sealed_volume;
        ] );
      ( "hierarchy-recovery",
        [
          Alcotest.test_case "sublog locate after recovery" `Quick test_sublog_locate_after_recovery;
          Alcotest.test_case "deep hierarchy equivalence" `Quick test_deep_hierarchy_recovery_equivalence;
        ] );
    ]
