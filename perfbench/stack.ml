(* The fixed stack every workload runs on: one simulated clock shared by
   the primary, the replica, every device and every transport; the paper's
   same-machine IPC (1 ms per round trip); in-memory WORM devices behind
   the optical seek model with the default head arrangement; the default
   server configuration, whose flush policy stages the tail block in NVRAM.

   Each device is wrapped, under the server's block cache, in a Block_io
   record of the benchmark's own that counts flush calls
   and, when tracing, charges each operation to the open span. Handlers
   given to [Transport.local] are wrapped the same way. Nothing inside the
   library is changed or instrumented. *)

let ipc_us = 1000L
let capacity = 65536
let config = Clio.Config.default

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Clio.Errors.to_string e))

type dev = { mem : Worm.Mem_device.t; timed : Worm.Timed_device.t; io : Worm.Block_io.t; flushes : int ref }

let wrap_device tracer flushes (inner : Worm.Block_io.t) : Worm.Block_io.t =
  let dev blocks f = Tracer.device tracer ~blocks f in
  {
    inner with
    read = (fun i -> dev 1 (fun () -> inner.read i));
    read_many = Some (fun idxs -> dev (List.length idxs) (fun () -> Worm.Block_io.read_many inner idxs));
    append = (fun b -> dev 1 (fun () -> inner.append b));
    invalidate = (fun i -> dev 1 (fun () -> inner.invalidate i));
    flush =
      (fun () ->
        incr flushes;
        dev 0 inner.flush);
  }

(* One server's storage: its volumes (in volume order) and its NVRAM. *)
type node = { mutable devs : dev list; nvram : Worm.Nvram.t }

let new_node () = { devs = []; nvram = Worm.Nvram.create () }

let alloc ~clock tracer node ~vol_index:_ =
  let mem = Worm.Mem_device.create ~block_size:config.Clio.Config.block_size ~capacity () in
  let timed = Worm.Timed_device.create ~clock ~model:Sim.Seek_model.optical (Worm.Mem_device.io mem) in
  let flushes = ref 0 in
  let d = { mem; timed; io = wrap_device tracer flushes (Worm.Timed_device.io timed); flushes } in
  node.devs <- node.devs @ [ d ];
  Ok d.io

type replica = {
  repl : Repl.Replica.t;
  rnode : node;
  rclient : Uio.Client.t;
  rtransport : Uio.Transport.t;
  shipper : Repl.Shipper.t;
  ship_transport : Uio.Transport.t;
}

type capture = { mutable pairs : (string * string) list; mutable n : int }

type t = {
  clock : Sim.Clock.t;
  tracer : Tracer.t;
  primary : node;
  mutable srv : Clio.Server.t;
  rpc : Uio.Rpc_server.t;
  transport : Uio.Transport.t;
  client : Uio.Client.t;
  mutable replica : replica option;
  capture : capture;  (** request/response bytes, newest first *)
}

let capture_limit = 4000

(* A transport handler wrapped in a span of [layer]; while tracing, the
   first [capture_limit] request/response pairs are kept for the offline
   codec replay. *)
let wrap_handler tracer cap layer h req =
  Tracer.span tracer layer (fun () ->
      let resp = h req in
      if tracer.Tracer.on && cap.n < capture_limit then begin
        cap.pairs <- (req, resp) :: cap.pairs;
        cap.n <- cap.n + 1
      end;
      resp)

(* A fresh stack. [from] is the stack it replaces in a run, whose traced
   spans and captured messages it carries on. *)
let create ?from () =
  let clock = Sim.Clock.simulated () in
  let tracer = Tracer.create ?from:(Option.map (fun f -> f.tracer) from) clock in
  let primary = new_node () in
  let srv =
    ok "create"
      (Clio.Server.create ~config ~clock ~nvram:primary.nvram
         ~alloc_volume:(alloc ~clock tracer primary) ())
  in
  let rpc = Uio.Rpc_server.create srv in
  let capture = match from with Some f -> f.capture | None -> { pairs = []; n = 0 } in
  let transport =
    Uio.Transport.local ~latency_us:ipc_us ~clock
      (wrap_handler tracer capture "uio.rpc_server" (Uio.Rpc_server.handle rpc))
  in
  { clock; tracer; primary; srv; rpc; transport; client = Uio.Client.connect transport; replica = None; capture }

(* Attach a read replica fed by a shipper over its own transport; readers
   reach it through a second client. The first sync ships the primary's
   whole history, so the replica can serve from the start. *)
let add_replica t =
  let rnode = new_node () in
  let repl =
    Repl.Replica.create ~config ~nvram:rnode.nvram ~clock:t.clock
      ~alloc:(alloc ~clock:t.clock t.tracer rnode) ~primary_hint:"primary" ()
  in
  let handler = wrap_handler t.tracer t.capture "repl.replica" (Repl.Replica.handler repl) in
  let ship_transport = Uio.Transport.local ~latency_us:ipc_us ~clock:t.clock handler in
  let shipper = Repl.Shipper.create t.srv [ ("replica", ship_transport) ] in
  Repl.Shipper.sync shipper;
  let rtransport = Uio.Transport.local ~latency_us:ipc_us ~clock:t.clock handler in
  let r = { repl; rnode; rclient = Uio.Client.connect rtransport; rtransport; shipper; ship_transport } in
  t.replica <- Some r;
  r

let sync t =
  match t.replica with
  | None -> ()
  | Some r -> Tracer.span t.tracer "repl.shipper" (fun () -> Repl.Shipper.sync r.shipper)

(* Crash the primary: drop every piece of volatile server state, keep the
   devices and the NVRAM, and recover from them. Returns the recovered
   server's stats and the modeled recovery time. The connection survives
   and is re-pointed at the new server. *)
let crash_and_recover t =
  let m0 = Sim.Clock.peek t.clock in
  let srv =
    Tracer.span t.tracer "core.recovery" (fun () ->
        ok "recover"
          (Clio.Server.recover ~config ~clock:t.clock ~nvram:t.primary.nvram
             ~alloc_volume:(alloc ~clock:t.clock t.tracer t.primary)
             ~devices:(List.map (fun d -> d.io) t.primary.devs)
             ()))
  in
  let us = Int64.sub (Sim.Clock.peek t.clock) m0 in
  t.srv <- srv;
  Uio.Rpc_server.set_server t.rpc srv;
  (srv, us)

(* ---------- counters across every layer ---------- *)

let all_devs t =
  t.primary.devs @ match t.replica with Some r -> r.rnode.devs | None -> []

(* Blocks read by one device, as the in-memory device counts them. *)
let reads d = d.io.Worm.Block_io.stats.Worm.Dev_stats.reads

(* Blocks read, appended or invalidated, as the in-memory devices count
   them below the timing layer and the benchmark's wrapper. *)
let device_blocks t =
  List.fold_left
    (fun acc d ->
      let s = d.io.Worm.Block_io.stats in
      acc + s.Worm.Dev_stats.reads + s.appends + s.invalidates)
    0 (all_devs t)

let busy_us t = List.fold_left (fun acc d -> Int64.add acc (Worm.Timed_device.busy_us d.timed)) 0L (all_devs t)

let transports t =
  t.transport :: (match t.replica with Some r -> [ r.rtransport ] | None -> [])

let round_trips t =
  List.fold_left (fun acc tr -> acc + Uio.Transport.round_trips tr) 0 (transports t)
