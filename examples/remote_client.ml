(* Accessing the log service over the UIO RPC protocol — how every client
   reached Clio in the V-System. The transport charges the paper's IPC cost
   on a simulated clock, so the printed totals show what the 1987 numbers
   were made of — and what batching buys back.

     dune exec examples/remote_client.exe *)

let okr = function Ok v -> v | Error e -> failwith ("rpc: " ^ Clio.Errors.to_string e)
let ok = function Ok v -> v | Error e -> failwith (Clio.Errors.to_string e)

let () =
  (* Server side: a log server on an in-memory WORM volume. *)
  let clock = Sim.Clock.simulated () in
  let alloc ~vol_index:_ = Ok (Worm.Mem_device.io (Worm.Mem_device.create ~capacity:4096 ())) in
  let srv = ok (Clio.Server.create ~clock ~nvram:(Worm.Nvram.create ()) ~alloc_volume:alloc ()) in
  let rpc = Uio.Rpc_server.create srv in

  (* Client side: only a transport handle — the paper's same-machine IPC
     costs 750 us per round trip. [connect] makes no round trip. *)
  let transport = Uio.Transport.local ~latency_us:750L ~clock (Uio.Rpc_server.handle rpc) in
  let client = Uio.Client.connect transport in

  let log = okr (Uio.Client.ensure_log client "/sensors/temp") in
  Printf.printf "created /sensors/temp over the wire (log #%d)\n\n" log;

  (* The V-era way: one synchronous append per round trip. *)
  let t0 = Sim.Clock.peek clock in
  for i = 0 to 19 do
    ignore
      (okr
         (Uio.Client.append client ~log
            (Printf.sprintf "reading %d: %d degrees" i (18 + (i mod 5)))))
  done;
  let elapsed_ms = Int64.to_float (Int64.sub (Sim.Clock.peek clock) t0) /. 1000.0 in
  Printf.printf "20 single appends took %.1f ms of modeled time (%.2f ms each -\n" elapsed_ms
    (elapsed_ms /. 20.0);
  Printf.printf "IPC-dominated, matching the paper's 2.0-2.9 ms synchronous writes)\n\n";

  (* The batched way: the same 20 entries in one request, one force at batch
     end (group commit). *)
  let t0 = Sim.Clock.peek clock in
  let items =
    List.init 20 (fun i ->
        {
          Uio.Message.log;
          extra_members = [];
          data = Printf.sprintf "reading %d: %d degrees" (20 + i) (18 + (i mod 5));
        })
  in
  let stamps = okr (Uio.Client.append_batch ~force:true client items) in
  let elapsed_ms = Int64.to_float (Int64.sub (Sim.Clock.peek clock) t0) /. 1000.0 in
  Printf.printf "20 batched appends took %.1f ms of modeled time total (%d timestamps,\n"
    elapsed_ms (List.length stamps);
  Printf.printf "one round trip, one durability point)\n\n";

  (* Reading through a remote cursor, newest first — bracketed so it can
     never leak server-side, chunked so it costs one round trip. *)
  print_endline "latest three readings:";
  okr
    (Uio.Client.with_cursor client ~log Uio.Message.From_end (fun c ->
         let entries, _eof = okr (Uio.Client.prev_chunk ~max_entries:3 c) in
         List.iter
           (fun (e : Uio.Message.entry) ->
             Printf.printf "  [%Ld] %s\n"
               (Option.value e.Uio.Message.timestamp ~default:0L)
               e.Uio.Message.payload)
           entries;
         Ok ()));

  let c = Uio.Transport.counters transport in
  Printf.printf "\ntransport: %d round trips, %d bytes sent, %d bytes received\n"
    c.Uio.Transport.round_trips c.Uio.Transport.bytes_sent c.Uio.Transport.bytes_received
