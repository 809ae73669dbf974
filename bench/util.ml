(* Shared benchmark plumbing: fixtures, target planting, table printing,
   and a thin wrapper over Bechamel. *)

let ok = function
  | Ok v -> v
  | Error e -> failwith ("bench: " ^ Clio.Errors.to_string e)

(* ------------------------------ printing ------------------------------ *)

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let subsection title = Printf.printf "\n--- %s ---\n%!" title

let table ~columns rows =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length c) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%s%s" (if i = 0 then "  " else "  | ")
          (Printf.sprintf "%*s" (List.nth widths i) cell))
      cells;
    print_newline ()
  in
  print_row columns;
  Printf.printf "  %s\n" (String.make (List.fold_left ( + ) (4 * List.length widths) widths) '-');
  List.iter print_row rows;
  flush stdout

(* ------------------------------ fixtures ------------------------------ *)

type fixture = {
  srv : Clio.Server.t;
  clock : Sim.Clock.t;
  nvram : Worm.Nvram.t;
  config : Clio.Config.t;
  devices : Worm.Mem_device.t list ref;
  alloc : vol_index:int -> (Worm.Block_io.t, Clio.Errors.t) result;
}

(* [locate_memo] (default on) lets a reproduction of the paper's tables run
   the paper's locate algorithm rather than our memo layered on top of it. *)
let make_fixture ?(fanout = 16) ?(block_size = 256) ?(capacity = 4096) ?cache_blocks
    ?(nvram_tail = true) ?(locate_memo = true) () =
  let cache_blocks = match cache_blocks with Some c -> c | None -> capacity in
  let config =
    { Clio.Config.default with fanout; block_size; cache_blocks; nvram_tail; locate_memo }
  in
  let clock = Sim.Clock.simulated () in
  let devices = ref [] in
  let alloc ~vol_index:_ =
    let d = Worm.Mem_device.create ~block_size ~capacity () in
    devices := !devices @ [ d ];
    Ok (Worm.Mem_device.io d)
  in
  let nvram = Worm.Nvram.create () in
  let srv = ok (Clio.Server.create ~config ~clock ~nvram ~alloc_volume:alloc ()) in
  { srv; clock; nvram; config; devices; alloc }

let recover f =
  ok
    (Clio.Server.recover ~config:f.config ~clock:f.clock ~nvram:f.nvram ~alloc_volume:f.alloc
       ~devices:(List.map Worm.Mem_device.io !(f.devices)) ())

(* Both the block cache and the locate memo: "cold" rows must not be
   silently warmed by memoized entrymap decodes or skip-index hits. *)
let drop_caches srv =
  let st = Clio.Server.state srv in
  Array.iter (fun v -> Blockcache.Cache.drop v.Clio.Vol.cache) st.Clio.State.vols;
  Clio.Read_memo.clear st.Clio.State.read_memo

(* --------------------------- target planting --------------------------- *)

(* Build a single-volume log with ~[span] data blocks of /noise filler and
   one /t<i> entry planted so that it ends up ~d_i blocks before the end.
   Returns the actual measured distance of each target (entrymap records
   shift things slightly), newest-first search-ready. *)
type planted = {
  f : fixture;
  end_block : int;
  targets : (int * int * Clio.Ids.logfile) list;
      (** (requested distance, actual distance, log id) *)
}

let build_planted ?locate_memo ~fanout ~block_size ~distances () =
  let span = List.fold_left max 0 distances + 32 in
  (* Entrymap and catalog records consume a fraction of the blocks. *)
  let capacity = span + (span / (fanout - 1)) + 128 in
  let f = make_fixture ?locate_memo ~fanout ~block_size ~capacity () in
  let noise = ok (Clio.Server.ensure_log f.srv "/noise") in
  let targets =
    List.mapi (fun i d -> (d, ok (Clio.Server.ensure_log f.srv (Printf.sprintf "/t%d" i)))) distances
  in
  (* Plant by real device position: fill until the frontier reaches each
     target's position, drop the target, keep filling. Filler entries
     fragment across blocks, so positions are tracked via the frontier, not
     by counting entries. *)
  let filler = String.make (block_size - 90) 'n' in
  let st = Clio.Server.state f.srv in
  let frontier () =
    match Clio.State.active st with Ok v -> Clio.Vol.device_frontier v | Error _ -> 0
  in
  let total = span in
  let planted =
    List.map (fun (d, log) -> (total - d, d, log)) targets
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  List.iter
    (fun (pos, _, log) ->
      while frontier () < pos do
        ignore (ok (Clio.Server.append f.srv ~log:noise filler))
      done;
      ignore (ok (Clio.Server.append f.srv ~log "target")))
    planted;
  while frontier () < total do
    ignore (ok (Clio.Server.append f.srv ~log:noise filler))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let end_block = frontier () in
  let v = ok (Clio.State.active st) in
  let targets =
    List.map
      (fun (d, log) ->
        match ok (Clio.Locate.prev_block st v ~log ~before:max_int) with
        | Some blk -> (d, end_block - blk, log)
        | None -> (d, -1, log))
      targets
  in
  { f; end_block; targets }

(* Measure one backwards locate of [log] from the end of [p], returning
   (entrymap records examined, blocks read, wall time in microseconds). *)
let measure_locate p log =
  let st = Clio.Server.state p.f.srv in
  let v = ok (Clio.State.active st) in
  let s0 = Clio.Stats.snapshot (Clio.Server.stats p.f.srv) in
  let t0 = Unix.gettimeofday () in
  let found = ok (Clio.Locate.prev_block st v ~log ~before:max_int) in
  let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  let s1 = Clio.Server.stats p.f.srv in
  let d = Clio.Stats.diff ~after:s1 ~before:s0 in
  ignore found;
  (d.Clio.Stats.entrymap_records_examined, d.Clio.Stats.locate_block_reads, wall_us)

(* ------------------------------ bechamel ------------------------------ *)

(* CI smoke runs set CLIO_BENCH_QUICK=1; sections shrink their workloads
   (fewer iterations, smaller search distances) so a full pass takes
   seconds instead of minutes. *)
let quick () =
  match Sys.getenv_opt "CLIO_BENCH_QUICK" with
  | None | Some ("" | "0") -> false
  | Some _ -> true

let bechamel_quota () = if quick () then 0.05 else 0.5

let run_bechamel ?quota (test : Bechamel.Test.t) : (string * float) list =
  let quota = match quota with Some q -> q | None -> bechamel_quota () in
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ~compaction:false ()
  in
  let witness = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ witness ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let res = Analyze.all ols witness raw in
  Hashtbl.fold
    (fun name o acc ->
      let ns = match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> nan in
      (name, ns) :: acc)
    res []
  |> List.sort compare

let ns_to_string ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* ----------------------------- JSON export ----------------------------- *)

(* Bench sections that produce comparable numbers also write
   BENCH_<name>.json in the current directory: the printed rows in
   machine-readable form under ["rows"], plus the fixture server's full
   metrics export under ["metrics"] — the same object `clio stats --json`
   emits, so one consumer parses both. *)
let emit_bench_json ~name ~rows srv =
  let open Obs.Json in
  let json =
    Obj
      [
        ("bench", Str name);
        ("quick", Bool (quick ()));
        ("rows", List rows);
        ("metrics", Clio.Server.metrics_obj srv);
      ]
  in
  let path = Printf.sprintf "BENCH_%s.json" name in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string_pretty json);
      Out_channel.output_char oc '\n');
  Printf.printf "  [wrote %s]\n%!" path
