(* Service-level replication (lib/repl): WORM block shipping, read
   replicas, catch-up after disconnects, failover with epoch fencing.

   The load-bearing invariant: because the shipped unit is the verbatim
   device block, a converged replica's volumes are byte-identical to the
   primary's settled storage — asserted here block by block, including
   under a seeded lossy transport across ≥ 30 fault schedules. *)

open Testkit

let okc label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Clio.Errors.to_string e)

let mk_replica ?(capacity = 1024) f ~primary_hint =
  let block_size = f.config.Clio.Config.block_size in
  Repl.Replica.create ~config:f.config ~nvram:(Worm.Nvram.create ()) ~clock:f.clock
    ~alloc:(fun ~vol_index:_ ->
      Ok (Worm.Mem_device.io (Worm.Mem_device.create ~block_size ~capacity ())))
    ~primary_hint ()

let io_image (io : Worm.Block_io.t) =
  let frontier = match io.Worm.Block_io.frontier () with Some x -> x | None -> 0 in
  ( frontier,
    List.init frontier (fun i ->
        match io.Worm.Block_io.read i with
        | Ok b -> Bytes.to_string b
        | Error _ -> Printf.sprintf "<unreadable %d>" i) )

let assert_identical name f r =
  let prim = fixture_devices f in
  Alcotest.(check int) (name ^ ": volume count") (List.length prim) (Repl.Replica.nvols r);
  List.iteri
    (fun i pio ->
      match Repl.Replica.device r i with
      | None -> Alcotest.failf "%s: replica missing volume %d" name i
      | Some rio ->
        let pf, pbytes = io_image pio in
        let rf, rbytes = io_image rio in
        Alcotest.(check int) (Printf.sprintf "%s: vol %d frontier" name i) pf rf;
        Alcotest.(check (list string)) (Printf.sprintf "%s: vol %d bytes" name i) pbytes rbytes)
    prim

let drain sh srv =
  let rec go n =
    Repl.Shipper.sync sh;
    if Clio.Server.repl_lag_blocks srv > 0 && n < 50 then go (n + 1)
  in
  go 0

(* Read a remote cursor up to the current end of its log. *)
let drain_cursor c =
  let rec go acc =
    let entries, eof = okc "next chunk" (Uio.Client.next_chunk c) in
    let acc = List.rev_append (List.map (fun e -> e.Uio.Message.payload) entries) acc in
    if eof then List.rev acc else go acc
  in
  go []

let replica_devices r =
  List.init (Repl.Replica.nvols r) (fun i -> Option.get (Repl.Replica.device r i))

let replica_reads r =
  List.fold_left
    (fun acc d -> acc + d.Worm.Block_io.stats.Worm.Dev_stats.reads)
    0 (replica_devices r)

let open_cursor client ~log =
  okc "open cursor" (Uio.Client.open_cursor client ~log Uio.Message.From_start)

(* --------------------------- basic shipping --------------------------- *)

let test_ship_and_serve () =
  let f = make_fixture () in
  let a = create_log f "/a" in
  let b = create_log f "/a/b" in
  for i = 0 to 99 do
    ignore (append f ~log:(if i mod 3 = 0 then b else a) (Printf.sprintf "entry %03d" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let r = mk_replica f ~primary_hint:"primary-1" in
  let tr = Uio.Transport.local ~latency_us:1000L ~clock:f.clock (Repl.Replica.handler r) in
  let sh = Repl.Shipper.create f.srv [ ("replica-1", tr) ] in
  Repl.Shipper.sync sh;
  assert_identical "ship" f r;
  Alcotest.(check int) "nothing reshipped" 0 (Repl.Shipper.reshipped sh);
  Alcotest.(check int) "lag gauge zero" 0 (Clio.Server.repl_lag_blocks f.srv);
  (* The replica serves ordinary read traffic over the same endpoint. *)
  let client = Uio.Client.connect tr in
  let payloads log =
    List.rev
      (okc "fold"
         (Uio.Client.fold_entries client ~log ~init:[] (fun acc e ->
              e.Uio.Message.payload :: acc)))
  in
  check_payloads "log /a via replica" (all_payloads f.srv ~log:a) (payloads a);
  check_payloads "log /a/b via replica" (all_payloads f.srv ~log:b) (payloads b);
  (* ...but refuses writes with a typed redirect. *)
  (match Uio.Client.append client ~log:a "nope" with
  | Error (Clio.Errors.Not_primary hint) ->
    Alcotest.(check string) "redirect names the primary" "primary-1" hint
  | Ok _ -> Alcotest.fail "replica accepted a write"
  | Error e -> Alcotest.failf "wrong refusal: %s" (Clio.Errors.to_string e));
  Alcotest.(check (option string)) "client recorded the hint" (Some "primary-1")
    (Uio.Client.redirect_hint client);
  (* The replica's own metrics carry the role. *)
  let rsrv = okc "replica server" (Repl.Replica.server r) in
  (match Clio.Server.role rsrv with
  | Clio.State.Replica { primary_hint; _ } ->
    Alcotest.(check string) "role hint" "primary-1" primary_hint
  | _ -> Alcotest.fail "replica server must carry the Replica role");
  Alcotest.(check bool) "metrics carry repl section" true
    (let json = Clio.Server.metrics_json rsrv in
     let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains json "\"repl\"" && contains json "\"replica\"")

let test_tail_shipping () =
  let f = make_fixture () in
  let a = create_log f "/a" in
  for i = 0 to 9 do
    ignore (append f ~log:a (Printf.sprintf "tail entry %d" i))
  done;
  (* No force: the entries live only in the primary's volatile tail (and
     its NVRAM). Shipping must mark them as such and the replica must still
     serve them. *)
  let r = mk_replica f ~primary_hint:"primary-1" in
  let tr = Uio.Transport.local ~latency_us:1000L ~clock:f.clock (Repl.Replica.handler r) in
  let sh = Repl.Shipper.create f.srv [ ("replica-1", tr) ] in
  Repl.Shipper.sync sh;
  assert_identical "settled part" f r;
  Alcotest.(check bool) "tail was shipped" true
    ((Clio.Server.stats f.srv).Clio.Stats.repl_tail_ships >= 1);
  Alcotest.(check bool) "tail was staged" true (Repl.Replica.tail_applies r >= 1);
  let rsrv = okc "replica server" (Repl.Replica.server r) in
  check_payloads "volatile tail visible on the replica"
    (all_payloads f.srv ~log:a)
    (all_payloads rsrv ~log:a)

let test_catchup_after_disconnect () =
  let f = make_fixture () in
  let a = create_log f "/a" in
  let r = mk_replica f ~primary_hint:"primary-1" in
  let tr = Uio.Transport.local ~latency_us:1000L ~clock:f.clock (Repl.Replica.handler r) in
  let sh = Repl.Shipper.create f.srv [ ("replica-1", tr) ] in
  for i = 0 to 49 do
    ignore (append f ~log:a (Printf.sprintf "first %d" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  Repl.Shipper.sync sh;
  let applied_before = Repl.Replica.blocks_applied r in
  (* "Disconnect": the shipper simply doesn't run while the primary keeps
     writing; the next sync must ship exactly the gap. *)
  for i = 0 to 99 do
    ignore (append f ~log:a (Printf.sprintf "second %d" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  Repl.Shipper.sync sh;
  assert_identical "after catch-up" f r;
  Alcotest.(check int) "nothing reshipped across the gap" 0 (Repl.Shipper.reshipped sh);
  Alcotest.(check bool) "catch-up applied only the gap" true
    (Repl.Replica.blocks_applied r > applied_before);
  let shipped = (Clio.Server.stats f.srv).Clio.Stats.repl_blocks_shipped in
  (* A sync with nothing new ships nothing. *)
  Repl.Shipper.sync sh;
  Alcotest.(check int) "idle sync ships no blocks" shipped
    (Clio.Server.stats f.srv).Clio.Stats.repl_blocks_shipped

(* ------------------------ promotion and fencing ------------------------ *)

let test_promote_and_fence () =
  let f = make_fixture () in
  let a = create_log f "/a" in
  for i = 0 to 39 do
    ignore (append f ~log:a (Printf.sprintf "pre %d" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  for i = 0 to 6 do
    ignore (append f ~log:a (Printf.sprintf "tail %d" i))
  done;
  let r = mk_replica f ~primary_hint:"primary-1" in
  let tr = Uio.Transport.local ~latency_us:1000L ~clock:f.clock (Repl.Replica.handler r) in
  let sh = Repl.Shipper.create f.srv [ ("replica-1", tr) ] in
  Repl.Shipper.sync sh;
  let acked = all_payloads f.srv ~log:a in
  (* Fail over. The promoted server replays the staged tail through
     ordinary recovery, so every acknowledged append — settled or volatile
     — is served at epoch 2. *)
  let psrv = okc "promote" (Repl.Replica.promote r) in
  (match Clio.Server.role psrv with
  | Clio.State.Primary { epoch } -> Alcotest.(check int) "epoch minted" 2 epoch
  | _ -> Alcotest.fail "promotion must assert the Primary role");
  check_payloads "pre-failover acked appends" acked (all_payloads psrv ~log:a);
  ignore (okc "new primary accepts writes" (Clio.Server.append psrv ~log:a "post failover"));
  (* The deposed primary's next shipment is refused and fences it. *)
  Repl.Shipper.sync sh;
  Alcotest.(check (list string)) "peer fenced" [ "replica-1" ] (Repl.Shipper.fenced_peers sh);
  (match Clio.Server.role f.srv with
  | Clio.State.Fenced { hint; _ } ->
    Alcotest.(check string) "fence names the peer" "replica-1" hint
  | _ -> Alcotest.fail "stale primary must self-fence");
  Alcotest.(check bool) "replica counted the stale shipment" true
    (Repl.Replica.epoch_rejects r >= 1);
  (match Clio.Server.append f.srv ~log:a "fenced write" with
  | Error (Clio.Errors.Not_primary _) -> ()
  | _ -> Alcotest.fail "fenced primary must refuse writes")


(* ---------------------- one live server, caught up ---------------------- *)

(* A client cursor opened on the replica before a shipment reads the
   entries that shipment brought: the server it points into is caught up
   in place, not replaced. *)
let test_cursor_survives_shipment () =
  let f = make_fixture () in
  let a = create_log f "/a" in
  for i = 0 to 29 do
    ignore (append f ~log:a (Printf.sprintf "before %d" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let r = mk_replica f ~primary_hint:"primary-1" in
  let tr = Uio.Transport.local ~latency_us:1000L ~clock:f.clock (Repl.Replica.handler r) in
  let sh = Repl.Shipper.create f.srv [ ("replica-1", tr) ] in
  Repl.Shipper.sync sh;
  let client = Uio.Client.connect tr in
  let c = open_cursor client ~log:a in
  let seen = drain_cursor c in
  check_payloads "before the shipment" (all_payloads f.srv ~log:a) seen;
  (* One settled shipment, then one that only restages the tail. *)
  for i = 0 to 29 do
    ignore (append f ~log:a (Printf.sprintf "after %d" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  Repl.Shipper.sync sh;
  let seen = seen @ drain_cursor c in
  ignore (append f ~log:a "tail only");
  ignore (ok (Clio.Server.force f.srv));
  Repl.Shipper.sync sh;
  let seen = seen @ drain_cursor c in
  check_payloads "one cursor reads across shipments" (all_payloads f.srv ~log:a) seen

(* [Replica.server] is the same physical server before and after settled
   shipments and a tail shipment; its replication counters are the
   replica's. *)
let test_one_server () =
  let f = make_fixture () in
  let a = create_log f "/a" in
  ignore (append f ~log:a "first");
  ignore (ok (Clio.Server.force f.srv));
  let r = mk_replica f ~primary_hint:"primary-1" in
  let tr = Uio.Transport.local ~latency_us:1000L ~clock:f.clock (Repl.Replica.handler r) in
  let sh = Repl.Shipper.create f.srv [ ("replica-1", tr) ] in
  Repl.Shipper.sync sh;
  let s0 = okc "server" (Repl.Replica.server r) in
  for round = 1 to 4 do
    for i = 0 to 19 do
      ignore (append f ~log:a (Printf.sprintf "round %d entry %d" round i))
    done;
    ignore (ok (Clio.Server.force f.srv));
    Repl.Shipper.sync sh;
    Alcotest.(check bool) (Printf.sprintf "same server after sync %d" round) true
      (okc "server" (Repl.Replica.server r) == s0)
  done;
  ignore (append f ~log:a "staged tail");
  Repl.Shipper.sync sh;
  Alcotest.(check bool) "tail shipped" true (Repl.Replica.tail_applies r >= 1);
  let s1 = okc "server" (Repl.Replica.server r) in
  Alcotest.(check bool) "same server after a tail shipment" true (s1 == s0);
  check_payloads "caught-up server serves everything" (all_payloads f.srv ~log:a)
    (all_payloads s1 ~log:a);
  Alcotest.(check int) "blocks applied counted in the server's stats"
    (Repl.Replica.blocks_applied r)
    (Clio.Server.stats s1).Clio.Stats.repl_blocks_applied;
  Alcotest.(check bool) "promotion keeps the server" true
    (okc "promote" (Repl.Replica.promote r) == s0)

(* A volume of [blocks] settled blocks: a bulk log fills one block per
   entry and a sparse log gets an entry every 50 blocks. Returns the
   primary fixture, both logs, a converged replica and its shipper. *)
let sparse_replica ~blocks =
  let f = make_fixture ~capacity:4096 () in
  let bulk = create_log f "/bulk" in
  let sparse = create_log f "/sparse" in
  let r = mk_replica ~capacity:4096 f ~primary_hint:"primary-1" in
  let tr = Uio.Transport.local ~latency_us:1000L ~clock:f.clock (Repl.Replica.handler r) in
  let sh = Repl.Shipper.create f.srv [ ("replica-1", tr) ] in
  let n = ref 0 in
  while Clio.Server.volume_blocks_used f.srv < blocks do
    incr n;
    if !n mod 50 = 0 then ignore (append f ~log:sparse (Printf.sprintf "sparse %d" !n));
    ignore (append f ~log:bulk (String.make 200 'b'))
  done;
  ignore (ok (Clio.Server.force f.srv));
  drain sh f.srv;
  (f, bulk, sparse, r, sh)

(* Append bulk entries until exactly one more block settles. *)
let settle_one_block f ~bulk =
  let used = Clio.Server.volume_blocks_used f.srv in
  while Clio.Server.volume_blocks_used f.srv = used do
    ignore (append f ~log:bulk (String.make 200 'c'))
  done;
  Alcotest.(check int) "one block settled" (used + 1) (Clio.Server.volume_blocks_used f.srv)

(* One replica fold of the sparse log after a 1-block shipment reads at
   most the shipped block plus one entrymap descent, whatever the volume
   size: the server's cache and memo stay warm across the shipment. *)
let test_read_cost_after_shipment () =
  List.iter
    (fun blocks ->
      let f, bulk, sparse, r, sh = sparse_replica ~blocks in
      let fold () =
        let before = replica_reads r in
        let srv = okc "server" (Repl.Replica.server r) in
        let got = all_payloads srv ~log:sparse in
        check_payloads "sparse log via replica" (all_payloads f.srv ~log:sparse) got;
        replica_reads r - before
      in
      ignore (fold ());
      Alcotest.(check int) (Printf.sprintf "%d blocks: warm fold reads nothing" blocks) 0 (fold ());
      let applied = Repl.Replica.blocks_applied r in
      settle_one_block f ~bulk;
      Repl.Shipper.sync sh;
      let shipped = Repl.Replica.blocks_applied r - applied in
      Alcotest.(check int) "one block shipped" 1 shipped;
      let v = ok (Clio.State.active (Clio.Server.state f.srv)) in
      let bound = (Clio.Vol.fanout v * Clio.Vol.levels v) + shipped in
      let reads = fold () in
      if reads > bound then
        Alcotest.failf "%d blocks: fold after a 1-block shipment read %d blocks (bound %d)"
          blocks reads bound)
    [ 200; 3000 ]

(* A pass that cannot bring a volume up to its settled frontier must not
   ship the volume's successor: a reader crossing the boundary on the
   replica would pass the blocks still in flight and never see their
   entries. One Repl_blocks of volume 0 is refused here, right after the
   primary rolled over. *)
let test_volumes_ship_in_order () =
  let f = make_fixture ~config:{ Clio.Config.default with repl_batch_blocks = 4 } ~capacity:24 () in
  let a = create_log f "/a" in
  let r = mk_replica ~capacity:24 f ~primary_hint:"primary-1" in
  let refuse = ref false in
  let handler raw =
    match Uio.Message.decode_request raw with
    | Ok (Uio.Message.Repl_blocks { vol_index = 0; _ }) when !refuse ->
      refuse := false;
      Uio.Message.encode_response (Uio.Message.R_error Clio.Errors.Timeout)
    | _ -> Repl.Replica.handler r raw
  in
  let tr = Uio.Transport.local ~latency_us:1000L ~clock:f.clock handler in
  let sh = Repl.Shipper.create f.srv [ ("replica-1", tr) ] in
  let n = ref 0 in
  let write k =
    for _ = 1 to k do
      incr n;
      ignore (append f ~log:a (Printf.sprintf "entry %03d %s" !n (String.make 60 'z')))
    done;
    ignore (ok (Clio.Server.force f.srv))
  in
  write 40;
  Repl.Shipper.sync sh;
  let client = Uio.Client.connect tr in
  let c = open_cursor client ~log:a in
  let seen = ref (drain_cursor c) in
  write 40;
  Alcotest.(check bool) "primary rolled over" true (Clio.Server.nvols f.srv > 1);
  refuse := true;
  Repl.Shipper.sync sh;
  Alcotest.(check int) "successor held back" 1 (Repl.Replica.nvols r);
  seen := !seen @ drain_cursor c;
  drain sh f.srv;
  seen := !seen @ drain_cursor c;
  assert_identical "converged" f r;
  check_payloads "cursor read every entry once" (all_payloads f.srv ~log:a) !seen

(* Copy a device's written blocks onto a fresh in-memory device. *)
let clone_io (io : Worm.Block_io.t) =
  let d =
    Worm.Mem_device.create ~block_size:io.Worm.Block_io.block_size
      ~capacity:io.Worm.Block_io.capacity ()
  in
  let cio = Worm.Mem_device.io d in
  let frontier = match io.Worm.Block_io.frontier () with Some x -> x | None -> 0 in
  for i = 0 to frontier - 1 do
    match io.Worm.Block_io.read i with
    | Ok b -> ignore (cio.Worm.Block_io.append b)
    | Error _ -> Alcotest.failf "clone: unreadable block %d" i
  done;
  cio

let clone_nvram nv =
  let c = Worm.Nvram.create () in
  Option.iter (fun (block, image) -> Worm.Nvram.store c ~block image) (Worm.Nvram.load nv);
  c

(* A replica caught up shipment by shipment, with reads in between, and
   then promoted must hold the state recovery builds from the same bytes:
   the same appends on both produce byte-identical devices. The entry
   counts vary where the staged tail lands relative to the entrymap
   boundaries; the small capacity makes the primary roll volumes, which the
   replica attaches as they arrive while a client cursor reads across
   them, and then makes the promoted replica roll over on its own. *)
let test_promotion_equals_recovery () =
  List.iter
    (fun (per_round, capacity, post) ->
      let name = Printf.sprintf "%d per round, capacity %d" per_round capacity in
      let f = make_fixture ~capacity () in
      let a = create_log f "/a" in
      let b = create_log f "/a/b" in
      let r = mk_replica ~capacity f ~primary_hint:"primary-1" in
      let tr = Uio.Transport.local ~latency_us:1000L ~clock:f.clock (Repl.Replica.handler r) in
      let sh = Repl.Shipper.create f.srv [ ("replica-1", tr) ] in
      let client = Uio.Client.connect tr in
      let cursor = ref None and seen = ref [] in
      let n = ref 0 in
      for round = 0 to 5 do
        for _ = 1 to per_round do
          incr n;
          let log = if !n mod 3 = 0 then b else a in
          ignore (append f ~log (Printf.sprintf "entry %04d %s" !n (String.make (!n mod 40) 'x')))
        done;
        if round mod 2 = 0 then ignore (ok (Clio.Server.force f.srv));
        Repl.Shipper.sync sh;
        if !cursor = None then cursor := Some (open_cursor client ~log:a);
        Option.iter (fun c -> seen := !seen @ drain_cursor c) !cursor
      done;
      check_payloads (name ^ ": cursor read /a across shipments") (all_payloads f.srv ~log:a) !seen;
      Alcotest.(check int) (name ^ ": replica volumes") (Clio.Server.nvols f.srv)
        (Repl.Replica.nvols r);
      Alcotest.(check bool) (name ^ ": rolled over") (capacity < 1024) (Repl.Replica.nvols r > 1);
      let rdevs = replica_devices r in
      let rsrv = okc "server" (Repl.Replica.server r) in
      let nvram = clone_nvram (Option.get (Clio.Server.state rsrv).Clio.State.nvram) in
      let copies = List.map clone_io rdevs in
      let p = okc "promote" (Repl.Replica.promote r) in
      let qnew = ref [] in
      let qalloc ~vol_index:_ =
        let d = Worm.Mem_device.io (Worm.Mem_device.create ~block_size:256 ~capacity ()) in
        qnew := !qnew @ [ d ];
        Ok d
      in
      let q =
        ok
          (Clio.Server.recover ~config:f.config
             ~clock:(Sim.Clock.simulated ~start:(Sim.Clock.peek f.clock) ())
             ~nvram ~alloc_volume:qalloc ~devices:copies ())
      in
      let c = ok (Clio.Server.create_log q "/c") in
      Alcotest.(check int) (name ^ ": same new log id") c
        (okc "create on promoted" (Clio.Server.create_log p "/c"));
      for i = 1 to post do
        let log = match i mod 3 with 0 -> a | 1 -> b | _ -> c in
        let payload = Printf.sprintf "post %d" i in
        ignore (okc "append promoted" (Clio.Server.append p ~log payload));
        ignore (ok (Clio.Server.append q ~log payload))
      done;
      ignore (okc "force promoted" (Clio.Server.force p));
      ignore (ok (Clio.Server.force q));
      Alcotest.(check bool) (name ^ ": promoted replica rolled over") (capacity < 1024)
        (Repl.Replica.nvols r > List.length rdevs);
      let pdevs = replica_devices r in
      let qdevs = copies @ !qnew in
      Alcotest.(check int) (name ^ ": volumes after appends") (List.length qdevs)
        (List.length pdevs);
      List.iteri
        (fun i (pio, qio) ->
          let pf, pbytes = io_image pio in
          let qf, qbytes = io_image qio in
          Alcotest.(check int) (Printf.sprintf "%s: vol %d frontier" name i) qf pf;
          Alcotest.(check (list string)) (Printf.sprintf "%s: vol %d bytes" name i) qbytes pbytes)
        (List.combine pdevs qdevs))
    [ (3, 1024, 9); (7, 1024, 21); (13, 1024, 39); (16, 1024, 48); (29, 1024, 87); (29, 24, 400) ]

(* --------------------- catalog replay determinism ---------------------- *)

let test_replay_determinism () =
  let f = make_fixture () in
  let a = create_log f "/mail" in
  let b = create_log f "/mail/smith" in
  let c = create_log f "/usage" in
  ok (Clio.Server.set_perms f.srv ~log:b 0o600);
  for i = 0 to 59 do
    let log = match i mod 3 with 0 -> a | 1 -> b | _ -> c in
    ignore (append f ~log (Printf.sprintf "entry %02d" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let recover_from devices =
    (* [force] with NVRAM present makes the tail durable in NVRAM, not on
       the device — so a faithful replay needs the same staged tail. *)
    ok
      (Clio.Server.recover ~config:f.config ~clock:(Sim.Clock.simulated ())
         ?nvram:f.nvram
         ~alloc_volume:(fun ~vol_index:_ ->
           Error (Clio.Errors.Bad_record "no allocation during replay"))
         ~devices ())
  in
  let s1 = recover_from (List.map clone_io (fixture_devices f)) in
  let s2 = recover_from (List.map clone_io (fixture_devices f)) in
  (* Two independent replays of the same bytes build identical catalogs:
     same ids, same listing rows in the same order, same entries. *)
  List.iter
    (fun path ->
      let d1 = ok (Uio.Message.dir_entries s1 path) in
      let d2 = ok (Uio.Message.dir_entries s2 path) in
      let live = ok (Uio.Message.dir_entries f.srv path) in
      Alcotest.(check bool)
        (Printf.sprintf "listing %s identical across replays" path)
        true (d1 = d2);
      Alcotest.(check bool)
        (Printf.sprintf "listing %s matches the live server" path)
        true (d1 = live))
    [ "/"; "/mail" ];
  List.iter
    (fun (name, log) ->
      check_payloads (name ^ " replay 1") (all_payloads f.srv ~log) (all_payloads s1 ~log);
      check_payloads (name ^ " replay 2") (all_payloads f.srv ~log) (all_payloads s2 ~log))
    [ ("/mail", a); ("/mail/smith", b); ("/usage", c) ]

(* ------------------------------ chaos soak ----------------------------- *)

(* ≥ 30 fixed seeds; every fault schedule must converge byte-identically,
   ship nothing twice, and fail over cleanly. *)
let soak_seeds = List.init 32 (fun i -> Int64.of_int ((7919 * i) + 12345))

let run_soak seed =
  let f = make_fixture () in
  let a = create_log f "/a" in
  let b = create_log f "/a/b" in
  let mk_peer salt =
    let r = mk_replica f ~primary_hint:"primary" in
    let inner = Uio.Transport.local ~latency_us:1000L ~clock:f.clock (Repl.Replica.handler r) in
    let tr = Uio.Transport.lossy ~rng:(Sim.Rng.create (Int64.add seed salt)) inner in
    (r, tr)
  in
  let r1, t1 = mk_peer 1L in
  let r2, t2 = mk_peer 2L in
  let sh = Repl.Shipper.create f.srv [ ("r1", t1); ("r2", t2) ] in
  (* One client cursor on r1, opened once r1 holds a volume and read up to
     the end of /a after every sync pass: it must never expire and must
     see every entry exactly once, in order. *)
  let reader = Uio.Client.connect (Uio.Transport.local ~clock:f.clock (Repl.Replica.handler r1)) in
  let cursor = ref None and seen = ref [] in
  let read_on () =
    if !cursor = None && Repl.Replica.nvols r1 > 0 then
      cursor := Some (open_cursor reader ~log:a);
    Option.iter (fun c -> seen := !seen @ drain_cursor c) !cursor
  in
  let rng = Sim.Rng.create seed in
  let n = ref 0 in
  for _round = 0 to 5 do
    let count = 5 + Sim.Rng.int rng 10 in
    for _ = 1 to count do
      incr n;
      let log = if Sim.Rng.int rng 3 = 0 then b else a in
      ignore (append f ~log (Printf.sprintf "entry %04d" !n))
    done;
    if Sim.Rng.int rng 2 = 0 then ignore (ok (Clio.Server.force f.srv));
    Repl.Shipper.sync sh;
    read_on ()
  done;
  drain sh f.srv;
  read_on ();
  Alcotest.(check int) "converged (no lag)" 0 (Clio.Server.repl_lag_blocks f.srv);
  Alcotest.(check int) "exactly-once: nothing reshipped" 0 (Repl.Shipper.reshipped sh);
  assert_identical "replica 1" f r1;
  assert_identical "replica 2" f r2;
  let pa = all_payloads f.srv ~log:a in
  let pb = all_payloads f.srv ~log:b in
  check_payloads "r1 cursor read every acked /a entry once" pa !seen;
  List.iter
    (fun (name, r) ->
      let rsrv = okc (name ^ " server") (Repl.Replica.server r) in
      check_payloads (name ^ " /a") pa (all_payloads rsrv ~log:a);
      check_payloads (name ^ " /a/b") pb (all_payloads rsrv ~log:b))
    [ ("r1", r1); ("r2", r2) ];
  (* Failover under the same fault schedule: promote r1, fence the old
     primary, then let the new primary bring r2 to epoch 2. *)
  let psrv = okc "promote r1" (Repl.Replica.promote r1) in
  check_payloads "promoted serves all acked /a" pa (all_payloads psrv ~log:a);
  check_payloads "promoted serves all acked /a/b" pb (all_payloads psrv ~log:b);
  Repl.Shipper.sync sh;
  (match Clio.Server.role f.srv with
  | Clio.State.Fenced _ -> ()
  | _ -> Alcotest.fail "old primary must fence on Stale_epoch");
  (match Clio.Server.append f.srv ~log:a "fenced" with
  | Error (Clio.Errors.Not_primary _) -> ()
  | _ -> Alcotest.fail "fenced primary must refuse writes");
  ignore (okc "write on new primary" (Clio.Server.append psrv ~log:a "post failover"));
  ignore (okc "force on new primary" (Clio.Server.force psrv));
  read_on ();
  check_payloads "r1 cursor survives promotion" (all_payloads psrv ~log:a) !seen;
  let sh2 = Repl.Shipper.create psrv [ ("r2", t2) ] in
  drain sh2 psrv;
  Alcotest.(check int) "new primary converged r2" 0 (Clio.Server.repl_lag_blocks psrv);
  Alcotest.(check int) "epoch adopted by r2" 2 (Repl.Replica.epoch r2);
  let r2srv = okc "r2 server" (Repl.Replica.server r2) in
  check_payloads "r2 follows the new primary"
    (all_payloads psrv ~log:a)
    (all_payloads r2srv ~log:a)

let test_chaos_soak () = List.iter run_soak soak_seeds


let () =
  run "repl"
    [
      ( "shipping",
        [
          Alcotest.test_case "ship and serve" `Quick test_ship_and_serve;
          Alcotest.test_case "volatile tail" `Quick test_tail_shipping;
          Alcotest.test_case "catch-up" `Quick test_catchup_after_disconnect;
        ] );
      ( "live server",
        [
          Alcotest.test_case "cursor survives shipment" `Quick test_cursor_survives_shipment;
          Alcotest.test_case "one server across shipments" `Quick test_one_server;
          Alcotest.test_case "read cost after shipment" `Quick test_read_cost_after_shipment;
          Alcotest.test_case "volumes ship in order" `Quick test_volumes_ship_in_order;
        ] );
      ( "failover",
        [
          Alcotest.test_case "promote and fence" `Quick test_promote_and_fence;
          Alcotest.test_case "promotion equals recovery" `Quick test_promotion_equals_recovery;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "catalog replay" `Quick test_replay_determinism;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "32-seed lossy soak" `Slow test_chaos_soak;
        ] );
    ]
