(* clio — command-line access to a Clio log-file store kept in a directory
   of file-backed write-once volumes (vol-000.img, vol-001.img, ...).

     clio init   --dir /tmp/store
     clio mklog  --dir /tmp/store /mail/smith
     clio append --dir /tmp/store /mail/smith "hello"
     echo hi | clio append --dir /tmp/store /mail/smith -
     clio cat    --dir /tmp/store /mail/smith
     clio tail   --dir /tmp/store /mail/smith -n 5
     clio ls     --dir /tmp/store /
     clio log-stats --dir /tmp/store *)

open Cmdliner

let vol_path dir i = Filename.concat dir (Printf.sprintf "vol-%03d.img" i)

let existing_volumes dir =
  let rec go i acc =
    let p = vol_path dir i in
    if Sys.file_exists p then go (i + 1) (p :: acc) else List.rev acc
  in
  go 0 []

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("clio: " ^ s); exit 1) fmt
let ok_or_die = function Ok v -> v | Error e -> die "%s" (Clio.Errors.to_string e)

let alloc ~dir ~block_size ~capacity ~vol_index =
  match
    Worm.File_device.create ~path:(vol_path dir vol_index) ~block_size ~capacity ()
  with
  | Ok d -> Ok (Worm.File_device.io d)
  | Error e -> Error (Clio.Errors.Device e)

let open_store ~dir ~block_size ~capacity =
  let vols = existing_volumes dir in
  if vols = [] then die "no volumes in %s (run `clio init --dir %s` first)" dir dir;
  let devices =
    List.map
      (fun path ->
        match Worm.File_device.open_existing ~path with
        | Ok d -> Worm.File_device.io d
        | Error e -> die "cannot open %s: %s" path (Worm.Block_io.error_to_string e))
      vols
  in
  let config = { Clio.Config.default with block_size; cache_blocks = 4096 } in
  ok_or_die
    (Clio.Server.recover ~config ~clock:(Sim.Clock.wall ())
       ~alloc_volume:(fun ~vol_index -> alloc ~dir ~block_size ~capacity ~vol_index)
       ~devices ())

(* ------------------------------- args ------------------------------- *)

let dir_arg =
  let doc = "Directory holding the volume files." in
  Arg.(required & opt (some string) None & info [ "d"; "dir" ] ~docv:"DIR" ~doc)

let block_size_arg =
  Arg.(value & opt int 1024 & info [ "block-size" ] ~docv:"BYTES" ~doc:"Device block size.")

let capacity_arg =
  Arg.(value & opt int 65536 & info [ "capacity" ] ~docv:"BLOCKS" ~doc:"Blocks per volume.")

let path_arg p =
  Arg.(required & pos p (some string) None & info [] ~docv:"PATH" ~doc:"Log file path.")

(* ------------------------------ commands ----------------------------- *)

let init dir block_size capacity =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if existing_volumes dir <> [] then die "%s already contains volumes" dir;
  let config = { Clio.Config.default with block_size } in
  let _srv =
    ok_or_die
      (Clio.Server.create ~config ~clock:(Sim.Clock.wall ())
         ~alloc_volume:(fun ~vol_index -> alloc ~dir ~block_size ~capacity ~vol_index)
         ())
  in
  Printf.printf "initialized %s (block size %d, %d blocks/volume)\n" dir block_size capacity

let mklog dir block_size capacity path =
  let srv = open_store ~dir ~block_size ~capacity in
  let id = ok_or_die (Clio.Server.ensure_log srv path) in
  Printf.printf "%s = log file #%d\n" path id

let append dir block_size capacity path data force =
  let srv = open_store ~dir ~block_size ~capacity in
  let data =
    if data = "-" then In_channel.input_all stdin else data
  in
  let ts = ok_or_die (Clio.Server.append_path srv ~path ~force data) in
  (* Unforced appends live in the volatile tail; a CLI process exits, so
     always make the write durable before returning. *)
  ok_or_die (Clio.Server.force srv);
  (match ts with
  | Some ts -> Printf.printf "appended %d bytes at t=%Ld\n" (String.length data) ts
  | None -> Printf.printf "appended %d bytes\n" (String.length data))

let cat dir block_size capacity path timestamps since until =
  let srv = open_store ~dir ~block_size ~capacity in
  let log = ok_or_die (Clio.Server.resolve srv path) in
  let cursor =
    match since with
    | Some ts -> ok_or_die (Clio.Server.cursor_at_time srv ~log ts)
    | None -> Clio.Server.cursor_start srv ~log
  in
  let rec go () =
    match ok_or_die (Clio.Server.next cursor) with
    | None -> ()
    | Some e ->
      let ts = e.Clio.Reader.timestamp in
      let before_since = match (since, ts) with Some s, Some t -> Int64.compare t s < 0 | _ -> false in
      let past_until = match (until, ts) with Some u, Some t -> Int64.compare t u > 0 | _ -> false in
      if past_until then ()
      else begin
        if not before_since then begin
          (match (timestamps, ts) with
          | true, Some t -> Printf.printf "[%Ld] " t
          | _ -> ());
          print_endline e.Clio.Reader.payload
        end;
        go ()
      end
  in
  go ()

let fsck dir block_size capacity deep =
  let srv = open_store ~dir ~block_size ~capacity in
  let report = ok_or_die (Clio.Server.fsck ~verify_entrymap:deep srv) in
  Format.printf "%a@." Clio.Fsck.pp_report report;
  List.iter (fun (v, b) -> Printf.printf "  corrupt: volume %d block %d\n" v b)
    report.Clio.Fsck.corrupt_blocks;
  List.iter (fun e -> Printf.printf "  ERROR: %s\n" e) report.Clio.Fsck.errors;
  if Clio.Fsck.is_healthy report then print_endline "store is healthy"
  else begin
    print_endline "store has problems";
    exit 1
  end

let tail_cmd dir block_size capacity path n =
  let srv = open_store ~dir ~block_size ~capacity in
  let log = ok_or_die (Clio.Server.resolve srv path) in
  let c = ok_or_die (Clio.Server.cursor_end srv ~log) in
  let rec collect k acc =
    if k = 0 then acc
    else
      match ok_or_die (Clio.Server.prev c) with
      | Some e -> collect (k - 1) (e.Clio.Reader.payload :: acc)
      | None -> acc
  in
  List.iter print_endline (collect n [])

let ls dir block_size capacity path =
  let srv = open_store ~dir ~block_size ~capacity in
  (* The same directory view the RPC protocol serves: id, perms, number of
     direct sublogs, full path. *)
  let logs = ok_or_die (Uio.Message.dir_entries srv path) in
  List.iter
    (fun (d : Uio.Message.dir_entry) ->
      Printf.printf "%4d  %04o  %4d  %s\n" d.Uio.Message.id d.Uio.Message.perms
        d.Uio.Message.entry_count d.Uio.Message.path)
    logs

let stats dir block_size capacity =
  let srv = open_store ~dir ~block_size ~capacity in
  Printf.printf "volumes: %d, device blocks used: %d\n" (Clio.Server.nvols srv)
    (Clio.Server.volume_blocks_used srv);
  Format.printf "%a@." Clio.Stats.pp (Clio.Server.stats srv)

let metrics_cmd_impl dir block_size capacity json =
  let srv = open_store ~dir ~block_size ~capacity in
  (* The recovery that [open_store] just performed is itself measured — the
     recover_us histogram below always has one sample. *)
  if json then print_endline (Clio.Server.metrics_json srv)
  else Format.printf "%a@." Clio.Server.dump_metrics srv

let trace_cmd_impl dir block_size capacity path json =
  let srv = open_store ~dir ~block_size ~capacity in
  Clio.Server.set_tracing srv true;
  let log = ok_or_die (Clio.Server.resolve srv path) in
  (* Drive a representative read workload under the tracer: one full scan
     (locate + read spans) and, if any entry is stamped, one time search. *)
  let c = Clio.Server.cursor_start srv ~log in
  let last_ts = ref None in
  let rec drain () =
    match ok_or_die (Clio.Server.next c) with
    | Some e ->
      (match e.Clio.Reader.timestamp with Some t -> last_ts := Some t | None -> ());
      drain ()
    | None -> ()
  in
  drain ();
  (match !last_ts with
  | Some t -> ignore (ok_or_die (Clio.Server.entry_at_or_after srv ~log t))
  | None -> ());
  if json then print_string (Clio.Server.trace_jsonl srv)
  else Format.printf "%a@?" Clio.Server.dump_trace srv

(* The breaker is volatile server state: a CLI process recovers a fresh
   (closed) breaker, so inspect/reset/trip here act on this invocation's
   server instance — the operator drill for the long-running daemon case,
   and the way tests exercise the admin path end to end. *)
let admin_breaker dir block_size capacity trip reset json =
  let srv = open_store ~dir ~block_size ~capacity in
  if trip then Clio.Server.trip_breaker srv;
  if reset then Clio.Server.reset_breaker srv;
  let b = Clio.Server.breaker srv in
  if json then print_endline (Obs.Json.to_string_pretty (Clio.Breaker.to_json b))
  else Format.printf "%a@." Clio.Breaker.pp b

(* Like the breaker drill: the replication role is volatile state, so these
   act on this invocation's server instance — [status] renders what a
   long-running daemon would report, [promote] exercises the failover path
   (epoch+1, Primary role) against a store recovered from disk. *)
let repl_print srv =
  let role = Clio.Server.role srv in
  (match role with
  | Clio.State.Primary _ -> Format.printf "role: primary (epoch %d)@." (Clio.Server.epoch srv)
  | Clio.State.Replica { primary_hint; _ } ->
    Format.printf "role: replica (epoch %d, primary: %s)@." (Clio.Server.epoch srv) primary_hint
  | Clio.State.Fenced { hint; _ } ->
    Format.printf "role: fenced (epoch %d, superseded by: %s)@." (Clio.Server.epoch srv) hint);
  Format.printf "lag_blocks: %d@." (Clio.Server.repl_lag_blocks srv);
  let s = Clio.Server.stats srv in
  Format.printf "blocks_shipped: %d  blocks_applied: %d@." s.Clio.Stats.repl_blocks_shipped
    s.Clio.Stats.repl_blocks_applied;
  Format.printf "tail_ships: %d  tail_applies: %d@." s.Clio.Stats.repl_tail_ships
    s.Clio.Stats.repl_tail_applies;
  Format.printf "catchup_rounds: %d  epoch_rejects: %d@." s.Clio.Stats.repl_catchup_rounds
    s.Clio.Stats.repl_epoch_rejects

let repl_status dir block_size capacity json =
  let srv = open_store ~dir ~block_size ~capacity in
  if json then print_endline (Obs.Json.to_string_pretty (Clio.Server.repl_obj srv))
  else repl_print srv

let repl_promote dir block_size capacity json =
  let srv = open_store ~dir ~block_size ~capacity in
  let next = Clio.Server.epoch srv + 1 in
  Clio.Server.set_role srv (Clio.State.Primary { epoch = next });
  if json then print_endline (Obs.Json.to_string_pretty (Clio.Server.repl_obj srv))
  else Format.printf "promoted: now primary at epoch %d@." next

(* ------------------------------- wiring ------------------------------ *)

let with_common f = Term.(const f $ dir_arg $ block_size_arg $ capacity_arg)

let init_cmd =
  Cmd.v (Cmd.info "init" ~doc:"Initialize a new volume sequence.") (with_common init)

let mklog_cmd =
  Cmd.v (Cmd.info "mklog" ~doc:"Create a log file (and missing parents).")
    Term.(with_common mklog $ path_arg 0)

let append_cmd =
  let data =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DATA" ~doc:"Entry data, or - for stdin.")
  in
  let force =
    Arg.(value & flag & info [ "f"; "force" ] ~doc:"Synchronous (forced) write.")
  in
  Cmd.v (Cmd.info "append" ~doc:"Append one entry to a log file.")
    Term.(with_common append $ path_arg 0 $ data $ force)

let cat_cmd =
  let ts = Arg.(value & flag & info [ "t"; "timestamps" ] ~doc:"Prefix entries with timestamps.") in
  let since =
    Arg.(value & opt (some int64) None & info [ "since" ] ~docv:"TS" ~doc:"Start at timestamp (us).")
  in
  let until =
    Arg.(value & opt (some int64) None & info [ "until" ] ~docv:"TS" ~doc:"Stop after timestamp (us).")
  in
  Cmd.v (Cmd.info "cat" ~doc:"Print entries of a log file, oldest first.")
    Term.(with_common cat $ path_arg 0 $ ts $ since $ until)

let fsck_cmd =
  let deep =
    Arg.(value & flag & info [ "deep" ] ~doc:"Also cross-check the entrymap tree (slow).")
  in
  Cmd.v (Cmd.info "fsck" ~doc:"Verify the store's structural invariants.")
    Term.(with_common fsck $ deep)

let tail_cmd_ =
  let n = Arg.(value & opt int 10 & info [ "n" ] ~docv:"K" ~doc:"Number of entries.") in
  Cmd.v (Cmd.info "tail" ~doc:"Print the newest K entries of a log file.")
    Term.(with_common tail_cmd $ path_arg 0 $ n)

let ls_cmd =
  let path = Arg.(value & pos 0 string "/" & info [] ~docv:"PATH" ~doc:"Directory log file.") in
  Cmd.v (Cmd.info "ls" ~doc:"List sublogs of a log file.") Term.(with_common ls $ path)

let stats_cmd =
  Cmd.v (Cmd.info "log-stats" ~doc:"Show store statistics.") (with_common stats)

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

let metrics_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Export server metrics: latency histograms (append/locate/read/recover \
          percentiles), cache hit/miss counts and device op counts.")
    Term.(with_common metrics_cmd_impl $ json_flag)

let admin_cmd =
  let trip =
    Arg.(value & flag & info [ "trip" ] ~doc:"Force the breaker open (operator drill).")
  in
  let reset =
    Arg.(value & flag & info [ "reset" ] ~doc:"Close the breaker and zero its error budget.")
  in
  let breaker_sub =
    Cmd.v
      (Cmd.info "breaker"
         ~doc:
           "Inspect the write-path circuit breaker (state, error budget, trip \
            and rejection totals); --trip / --reset change it first.")
      Term.(with_common admin_breaker $ trip $ reset $ json_flag)
  in
  Cmd.group (Cmd.info "admin" ~doc:"Operator controls (degraded mode).") [ breaker_sub ]

let repl_cmd =
  let status_sub =
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Show the replication role (primary/replica/fenced), epoch, lag \
            gauge and ship/apply counters.")
      Term.(with_common repl_status $ json_flag)
  in
  let promote_sub =
    Cmd.v
      (Cmd.info "promote"
         ~doc:
           "Fail over to this store: recover it (replaying the NVRAM tail) \
            and assert the primary role at the next epoch.")
      Term.(with_common repl_promote $ json_flag)
  in
  Cmd.group (Cmd.info "repl" ~doc:"Replication controls (role, promotion).")
    [ status_sub; promote_sub ]

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced read of a log file and print the operation spans \
          (indented by nesting; --json for JSONL).")
    Term.(with_common trace_cmd_impl $ path_arg 0 $ json_flag)

let () =
  let info = Cmd.info "clio" ~version:"1.0.0" ~doc:"Log files on write-once storage (SOSP 1987)." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            init_cmd;
            mklog_cmd;
            append_cmd;
            cat_cmd;
            tail_cmd_;
            ls_cmd;
            stats_cmd;
            metrics_cmd;
            trace_cmd;
            fsck_cmd;
            admin_cmd;
            repl_cmd;
          ]))
