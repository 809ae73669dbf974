(* What batching buys back from the IPC floor. The paper's numbers were
   IPC-dominated (0.5-1 ms same-machine, 2.5-3 ms remote); the protocol
   amortizes that per-round-trip cost with batched appends (group commit)
   and chunked cursor reads. We run the same 1000-entry append+fold
   workload at batch=1/chunk=1 (one entry per round trip, the V-era
   pattern) and at batch=100/chunk=128, at the paper's two IPC latencies,
   and count what crossed the wire. *)

type run = {
  batch : int;
  chunk : int;
  ipc_us : int64;
  append_trips : int;
  fold_trips : int;
  bytes_sent : int;
  bytes_received : int;
  sim_ms : float;
}

let batch_size = 100

let label r = Printf.sprintf "batch=%d/chunk=%d" r.batch r.chunk

let run_workload ~n ~ipc_us ~batched =
  let f = Util.make_fixture ~fanout:16 ~block_size:1024 ~capacity:65536 () in
  let rpc = Uio.Rpc_server.create f.Util.srv in
  let transport =
    Uio.Transport.local ~latency_us:ipc_us ~clock:f.Util.clock (Uio.Rpc_server.handle rpc)
  in
  let client = Uio.Client.connect transport in
  let log = Util.ok (Uio.Client.create_log client "/bench") in
  let payload i = Printf.sprintf "entry %06d: fifty bytes of log data, padded out...." i in
  let sim0 = Sim.Clock.peek f.Util.clock in
  let before = Uio.Transport.counters transport in
  (* Synchronous (forced) appends: unbatched pays one round trip and one
     force per entry; batched groups [batch_size] entries per request with
     one force each (group commit). *)
  (if batched then
     for b = 0 to (n / batch_size) - 1 do
       let items =
         List.init batch_size (fun i ->
             { Uio.Message.log; extra_members = []; data = payload ((b * batch_size) + i) })
       in
       ignore (Util.ok (Uio.Client.append_batch ~force:true client items))
     done
   else
     for i = 0 to n - 1 do
       ignore (Util.ok (Uio.Client.append ~force:true client ~log (payload i)))
     done);
  let mid = Uio.Transport.counters transport in
  let chunk = if batched then Uio.Client.default_chunk_entries else 1 in
  let count =
    Util.ok (Uio.Client.fold_entries ~chunk_entries:chunk client ~log ~init:0 (fun k _ -> k + 1))
  in
  assert (count = n);
  let after = Uio.Transport.counters transport in
  let d_append = Uio.Transport.diff ~after:mid ~before in
  let d_fold = Uio.Transport.diff ~after ~before:mid in
  let d_all = Uio.Transport.diff ~after ~before in
  ( f.Util.srv,
    {
      batch = (if batched then batch_size else 1);
      chunk;
      ipc_us;
      append_trips = d_append.Uio.Transport.round_trips;
      fold_trips = d_fold.Uio.Transport.round_trips;
      bytes_sent = d_all.Uio.Transport.bytes_sent;
      bytes_received = d_all.Uio.Transport.bytes_received;
      sim_ms = Int64.to_float (Int64.sub (Sim.Clock.peek f.Util.clock) sim0) /. 1000.0;
    } )

let run () =
  Util.section "BATCHING - round trips and modeled IPC time, 1000-entry append+fold";
  let n = if Util.quick () then 200 else 1000 in
  let runs =
    List.concat_map
      (fun ipc_us ->
        let _, single = run_workload ~n ~ipc_us ~batched:false in
        let srv, batched = run_workload ~n ~ipc_us ~batched:true in
        [ (srv, single); (srv, batched) ])
      [ 1000L; 3000L ]
  in
  let columns =
    [ "batch/chunk"; "IPC"; "append trips"; "fold trips"; "bytes sent"; "bytes recv"; "modeled time" ]
  in
  Util.table ~columns
    (List.map
       (fun (_, r) ->
         [
           label r;
           Printf.sprintf "%Ld us" r.ipc_us;
           string_of_int r.append_trips;
           string_of_int r.fold_trips;
           string_of_int r.bytes_sent;
           string_of_int r.bytes_received;
           Printf.sprintf "%.1f ms" r.sim_ms;
         ])
       runs);
  (match runs with
  | (_, single) :: (_, batched) :: _ ->
    let trips r = r.append_trips + r.fold_trips in
    Printf.printf
      "  batching makes %.0fx fewer round trips (%d vs %d) for %d entries appended and read back\n"
      (float_of_int (trips single) /. float_of_int (trips batched))
      (trips single) (trips batched) n;
    Printf.printf
      "  (batch=%d with one force per batch; reads stream %d entries per chunk)\n" batch_size
      Uio.Client.default_chunk_entries
  | _ -> ());
  let srv = match runs with (srv, _) :: _ -> srv | [] -> assert false in
  Util.emit_bench_json ~name:"rpc"
    ~rows:
      (List.map
         (fun (_, r) ->
           Obs.Json.Obj
             [
               ("mode", Obs.Json.Str (label r));
               ("batch_entries", Obs.Json.Int r.batch);
               ("chunk_entries", Obs.Json.Int r.chunk);
               ("ipc_us", Obs.Json.Float (Int64.to_float r.ipc_us));
               ("entries", Obs.Json.Float (float_of_int n));
               ("append_round_trips", Obs.Json.Float (float_of_int r.append_trips));
               ("fold_round_trips", Obs.Json.Float (float_of_int r.fold_trips));
               ("bytes_sent", Obs.Json.Float (float_of_int r.bytes_sent));
               ("bytes_received", Obs.Json.Float (float_of_int r.bytes_received));
               ("modeled_ms", Obs.Json.Float r.sim_ms);
             ])
         runs)
    srv
