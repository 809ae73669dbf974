(** Shared helpers for the test suites. *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Clio.Errors.to_string e)

let err = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> e

(** A test fixture: a server over in-memory WORM devices, with every piece a
    simulated crash must preserve kept addressable. *)
type fixture = {
  mutable srv : Clio.Server.t;
  clock : Sim.Clock.t;
  nvram : Worm.Nvram.t option;
  config : Clio.Config.t;
  devices : (int, Worm.Mem_device.t) Hashtbl.t;
  alloc : vol_index:int -> (Worm.Block_io.t, Clio.Errors.t) result;
}

let make_fixture ?(config = Clio.Config.default) ?(block_size = 256) ?(capacity = 1024)
    ?(nvram = true) ?(reports_frontier = true) () =
  let config = { config with Clio.Config.block_size } in
  let clock = Sim.Clock.simulated () in
  let devices = Hashtbl.create 4 in
  let alloc ~vol_index =
    let d = Worm.Mem_device.create ~block_size ~capacity ~reports_frontier () in
    Hashtbl.replace devices vol_index d;
    Ok (Worm.Mem_device.io d)
  in
  let nvram = if nvram then Some (Worm.Nvram.create ()) else None in
  let srv = ok (Clio.Server.create ~config ~clock ?nvram ~alloc_volume:alloc ()) in
  { srv; clock; nvram; config; devices; alloc }

let fixture_devices f =
  Hashtbl.fold (fun i d acc -> (i, d) :: acc) f.devices []
  |> List.sort compare
  |> List.map (fun (_, d) -> Worm.Mem_device.io d)

(** Simulate a crash: throw the server away, recover from devices (+NVRAM). *)
let crash_and_recover f =
  let srv =
    ok
      (Clio.Server.recover ~config:f.config ~clock:f.clock ?nvram:f.nvram
         ~alloc_volume:f.alloc ~devices:(fixture_devices f) ())
  in
  f.srv <- srv;
  srv

let append f ~log ?extra_members ?force payload =
  ok (Clio.Server.append ?extra_members ?force f.srv ~log payload)

let create_log f path = ok (Clio.Server.create_log f.srv path)

let all_payloads srv ~log =
  List.rev
    (ok
       (Clio.Server.fold_entries srv ~log ~init:[] (fun acc e ->
            e.Clio.Reader.payload :: acc)))

let all_payloads_backward srv ~log =
  let c = ok (Clio.Server.cursor_end srv ~log) in
  let rec go acc =
    match ok (Clio.Server.prev c) with
    | Some e -> go (e.Clio.Reader.payload :: acc)
    | None -> acc
  in
  go []

(* Both the block cache and the locate memo: a "cold" measurement must not
   be silently warmed by memoized entrymap decodes. *)
let drop_caches srv =
  let st = Clio.Server.state srv in
  Array.iter (fun v -> Blockcache.Cache.drop v.Clio.Vol.cache) st.Clio.State.vols;
  Clio.Read_memo.clear st.Clio.State.read_memo

let check_payloads = Alcotest.(check (list string))

(** A store whose entries fragment: [entries] entries of 100-400 B in the
    fixture's blocks (256 B by default), so most blocks open with a
    continuation of an entry begun in the block before. Each payload starts
    with its zero-padded index. Returns the log and each entry's timestamp
    (the append's, else the clock when it was written). *)
let build_fragmented_log ?(entries = 3000) f =
  let log = create_log f "/fragmented" in
  let stamps =
    Array.init entries (fun i ->
        Sim.Clock.advance f.clock 100L;
        let len = 100 + (i * 7919 mod 301) in
        let payload = Printf.sprintf "%05d" i ^ String.make (len - 5) 'f' in
        match append f ~log payload with
        | Some ts -> ts
        | None -> Sim.Clock.peek f.clock)
  in
  ignore (ok (Clio.Server.force f.srv));
  (log, stamps)

(** Share of the active volume's valid blocks whose record 0 is a
    continuation. *)
let continuation_share srv =
  let v = ok (Clio.State.active (Clio.Server.state srv)) in
  let opens = ref 0 and blocks = ref 0 in
  for b = 1 to Clio.Vol.written_limit v - 1 do
    match Clio.Vol.view_block v b with
    | Clio.Vol.Records recs when Array.length recs > 0 ->
      incr blocks;
      if not (Clio.Header.is_start recs.(0).Clio.Block_format.header) then incr opens
    | _ -> ()
  done;
  float_of_int !opens /. float_of_int (max 1 !blocks)

(** The paper's bound on one time seek: at most [fanout] probes at each of
    the active volume's [levels]. *)
let seek_probe_bound srv =
  let v = ok (Clio.State.active (Clio.Server.state srv)) in
  Clio.Vol.fanout v * Clio.Vol.levels v

(** [Time_index.seek] plus the probe reads it cost. *)
let seek_counting srv ts =
  let probes () = (Clio.Server.stats srv).Clio.Stats.time_probe_reads in
  let before = probes () in
  let pos = ok (Clio.Time_index.seek (Clio.Server.state srv) ts) in
  (pos, probes () - before)

(** Checks [seek]'s block-resolution contract for [target]: the block at
    [pos] is keyed at or before [target], and the next keyed block after it
    is keyed after [target]. *)
let check_seek_resolution srv (pos : Clio.Assemble.position) target =
  let v = ok (Clio.State.vol (Clio.Server.state srv) pos.Clio.Assemble.vol) in
  let b = pos.Clio.Assemble.block in
  (match Clio.Vol.first_timestamp v b with
  | Some t -> Alcotest.(check bool) (Printf.sprintf "block %d key <= target" b) true (t <= target)
  | None -> ());
  let limit = Clio.Vol.written_limit v in
  let rec next_key i =
    if i >= limit then None
    else match Clio.Vol.first_timestamp v i with Some t -> Some t | None -> next_key (i + 1)
  in
  match next_key (b + 1) with
  | Some t -> Alcotest.(check bool) (Printf.sprintf "key after block %d > target" b) true (t > target)
  | None -> ()

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let run name suites = Alcotest.run ~compact:true name suites
