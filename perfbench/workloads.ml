(* The three workloads, each run through the full client stack of
   {!Stack}: client -> transport -> RPC server (or replica endpoint) ->
   server -> cache -> timed WORM device.

   ingest         open loop of audit entries, mail deliveries (group
                  commit) and forced transaction commits; ends with a crash
                  and recovery, and the search for the highest sustainable
                  arrival rate.
   lookup         closed loop of time-positioned reads, newest-k reads and
                  full-sublog scans over a store preloaded to 20x the block
                  cache; the writer is idle.
   mixed-replica  closed loop of mail deliveries to the primary, a shipper
                  sync after each, and reads split between the primary and
                  a read replica.

   Every result is checked against {!Model}; a wrong or failed result
   counts in [failed]. *)

let ( let* ) = Result.bind

let errs r = Result.map_error Clio.Errors.to_string r

(* ---------- growable sample arrays ---------- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.; n = 0 }

let push s v =
  if s.n = Array.length s.a then s.a <- Array.append s.a (Array.make s.n 0.);
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let values s = Array.sub s.a 0 s.n

(* ---------- counters of one server ---------- *)

type server_counters = {
  stats : Clio.Stats.t;
  seg : Blockcache.Cache.segment_stats;
  locates : int;
  time_seeks : int;
}

let hist_count srv name =
  match List.assoc_opt name (Obs.Metrics.histograms (Clio.Server.metrics srv)) with
  | Some h -> Obs.Histogram.count h
  | None -> 0

let server_counters srv =
  {
    stats = Clio.Stats.snapshot (Clio.Server.stats srv);
    seg = Clio.Server.segment_totals srv;
    locates = hist_count srv "locate_us";
    time_seeks = hist_count srv "time_search_us";
  }

let zero_seg : Blockcache.Cache.segment_stats =
  {
    meta_hits = 0;
    meta_misses = 0;
    data_hits = 0;
    data_misses = 0;
    meta_resident = 0;
    probation_resident = 0;
    protected_resident = 0;
    meta_evictions = 0;
    data_evictions = 0;
    promotions = 0;
  }

let zero_counters () = { stats = Clio.Stats.create (); seg = zero_seg; locates = 0; time_seeks = 0 }

let seg_op f (a : Blockcache.Cache.segment_stats) (b : Blockcache.Cache.segment_stats) :
    Blockcache.Cache.segment_stats =
  {
    meta_hits = f a.meta_hits b.meta_hits;
    meta_misses = f a.meta_misses b.meta_misses;
    data_hits = f a.data_hits b.data_hits;
    data_misses = f a.data_misses b.data_misses;
    meta_resident = f a.meta_resident b.meta_resident;
    probation_resident = f a.probation_resident b.probation_resident;
    protected_resident = f a.protected_resident b.protected_resident;
    meta_evictions = f a.meta_evictions b.meta_evictions;
    data_evictions = f a.data_evictions b.data_evictions;
    promotions = f a.promotions b.promotions;
  }

let counters_diff ~after ~before =
  {
    stats = Clio.Stats.diff ~after:after.stats ~before:before.stats;
    seg = seg_op ( - ) after.seg before.seg;
    locates = after.locates - before.locates;
    time_seeks = after.time_seeks - before.time_seeks;
  }

let counters_add a b =
  let stats = Clio.Stats.snapshot a.stats in
  List.iter2
    (fun (name, x) (_, y) -> ignore (Clio.Stats.set_field stats name (x + y)))
    (Clio.Stats.fields a.stats) (Clio.Stats.fields b.stats);
  { stats; seg = seg_op ( + ) a.seg b.seg; locates = a.locates + b.locates; time_seeks = a.time_seeks + b.time_seeks }

(* ---------- run context ---------- *)

(* What the traced run adds up across requests. *)
type traced = {
  mutable requests : int;
  mutable latency_us : int64;
  mutable ipc_us : int64;
  mutable device_us : int64;
  mutable tick_us : int64;
  self_ns : (string, int64) Hashtbl.t;  (** per layer, client requests only *)
  mutable replica_reads : int;
  mutable replica_dev_reads : int;
  mutable replica_self_ns : int64;
  mutable syncs : int;
  mutable ship_rt : int;
  mutable replica : server_counters;  (** summed over the replica's rebuilt servers *)
  mutable replica_last : (Clio.Server.t * server_counters) option;
}

type ctx = {
  mutable st : Stack.t;
  mutable model : Model.t;
  rng : Sim.Rng.t;
  kinds : (string, samples) Hashtbl.t;
      (** modeled ms per client operation, by kind: [append],
          [time_read], [newest_read] and [scan], and [replica_time_read]
          and [replica_newest_read] for reads served by the replica *)
  mutable ops : int;
  mutable recorded : int;  (** latency samples kept in this phase *)
  sample_limit : int;
      (** latency samples come from the phase's first [sample_limit]
          operations, so they depend on the seed alone, not on how fast
          the machine ran *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable cursor_expired : int;
  tr : traced;
}

let new_ctx ~seed ~sample_limit =
  {
    st = Stack.create ();
    model = Model.create ();
    rng = Sim.Rng.create seed;
    kinds = Hashtbl.create 8;
    ops = 0;
    recorded = 0;
    sample_limit;
    attempted = 0;
    failed = 0;
    errors = [];
    cursor_expired = 0;
    tr =
      {
        requests = 0;
        latency_us = 0L;
        ipc_us = 0L;
        device_us = 0L;
        tick_us = 0L;
        self_ns = Hashtbl.create 8;
        replica_reads = 0;
        replica_dev_reads = 0;
        replica_self_ns = 0L;
        syncs = 0;
        ship_rt = 0;
        replica = zero_counters ();
        replica_last = None;
      };
  }

let record ctx kind v =
  if ctx.recorded < ctx.sample_limit then begin
    ctx.recorded <- ctx.recorded + 1;
    let s =
      match Hashtbl.find_opt ctx.kinds kind with
      | Some s -> s
      | None ->
        let s = samples () in
        Hashtbl.replace ctx.kinds kind s;
        s
    in
    push s v
  end

(* Every sample of the given kinds. *)
let kind_values ctx kinds =
  Array.concat (List.filter_map (fun k -> Option.map values (Hashtbl.find_opt ctx.kinds k)) kinds)

let reads = [ "time_read"; "newest_read"; "replica_time_read"; "replica_newest_read" ]
let all_kinds = ("append" :: "scan" :: reads)

let fail ctx msg =
  ctx.failed <- ctx.failed + 1;
  if List.length ctx.errors < 10 then ctx.errors <- msg :: ctx.errors

(* Check one finished request's spans: the modeled ledger must close
   exactly, with the server's clock ticks within [ticks] (reads issue no
   timestamp, so they tick 0), and the device ledger must close too.
   Self times of client requests are summed per layer. *)
let account ctx ~what ~ipc_us ~device_us ~device_blocks ~ticks:(lo, hi) ~client =
  let spans = Tracer.take_request ctx.st.Stack.tracer in
  match Derived.ledger spans ~ipc_us ~device_us with
  | None -> []
  | Some m ->
    let tr = ctx.tr in
    let tick = m.Derived.tick_us in
    if not (Derived.modeled_closes m && Int64.compare tick lo >= 0 && Int64.compare tick hi <= 0) then
      fail ctx
        (Printf.sprintf "%s: modeled ledger open: latency %Ld <> ipc %Ld + device %Ld + ticks %Ld"
           what m.latency_us m.ipc_us m.device_us tick);
    if not (Derived.devices_close spans ~device_blocks) then
      fail ctx
        (Printf.sprintf "%s: device ledger open: the devices counted %d blocks, the spans %d" what
           device_blocks
           (List.fold_left (fun acc (s : Derived.span) -> acc + s.dev_blocks) 0 spans));
    let layers = Derived.self_times spans in
    if client then begin
      tr.requests <- tr.requests + 1;
      tr.latency_us <- Int64.add tr.latency_us m.latency_us;
      tr.ipc_us <- Int64.add tr.ipc_us m.ipc_us;
      tr.device_us <- Int64.add tr.device_us m.device_us;
      tr.tick_us <- Int64.add tr.tick_us tick;
      List.iter
        (fun (layer, ns) ->
          Hashtbl.replace tr.self_ns layer
            (Int64.add ns (Option.value ~default:0L (Hashtbl.find_opt tr.self_ns layer))))
        layers
    end;
    layers

let replica_dev_reads st =
  match st.Stack.replica with
  | Some r -> List.fold_left (fun acc d -> acc + Stack.reads d) 0 r.rnode.devs
  | None -> 0

(* Fold the counters of the replica's current server into the replica
   total. A rebuild replaces the server; its counters (recovery work
   included) then count from zero. *)
let note_replica ctx =
  match ctx.st.Stack.replica with
  | None -> ()
  | Some r -> (
    match Repl.Replica.server r.repl with
    | Error _ -> ()
    | Ok srv ->
      let now = server_counters srv in
      let before =
        match ctx.tr.replica_last with
        | Some (s, c) when s == srv -> c
        | _ -> zero_counters ()
      in
      ctx.tr.replica <- counters_add ctx.tr.replica (counters_diff ~after:now ~before);
      ctx.tr.replica_last <- Some (srv, now))

type target = Primary | Replica

let client_of ctx = function
  | Primary -> ctx.st.Stack.client
  | Replica -> (
    match ctx.st.Stack.replica with Some r -> r.rclient | None -> invalid_arg "no replica")

(* One client operation as one request. [f] returns [Ok ()] when its
   result checked out. Returns the modeled latency in microseconds. *)
let client_op ctx ?(target = Primary) ~ticks f =
  let st = ctx.st in
  ctx.attempted <- ctx.attempted + 1;
  let traced = st.Stack.tracer.Tracer.on in
  let rt0 = Stack.round_trips st and busy0 = Stack.busy_us st and blocks0 = Stack.device_blocks st in
  let rreads0 = replica_dev_reads st in
  let m0 = Sim.Clock.peek st.Stack.clock in
  let res =
    try Tracer.span st.Stack.tracer "uio.client" f with e -> Error (Printexc.to_string e)
  in
  let lat = Int64.sub (Sim.Clock.peek st.Stack.clock) m0 in
  ctx.ops <- ctx.ops + 1;
  (match res with Ok () -> () | Error m -> fail ctx m);
  if traced then begin
    let ipc_us = Int64.mul Stack.ipc_us (Int64.of_int (Stack.round_trips st - rt0)) in
    let device_us = Int64.sub (Stack.busy_us st) busy0 in
    let device_blocks = Stack.device_blocks st - blocks0 in
    let layers = account ctx ~what:"client request" ~ipc_us ~device_us ~device_blocks ~ticks ~client:true in
    if target = Replica then begin
      ctx.tr.replica_reads <- ctx.tr.replica_reads + 1;
      ctx.tr.replica_dev_reads <- ctx.tr.replica_dev_reads + replica_dev_reads st - rreads0;
      ctx.tr.replica_self_ns <-
        Int64.add ctx.tr.replica_self_ns
          (Option.value ~default:0L (List.assoc_opt "repl.replica" layers));
      note_replica ctx
    end
  end;
  lat

let ms us = Int64.to_float us /. 1000.

let read_ticks = (0L, 0L)

(* ---------- the three read shapes ---------- *)

let ts_of (e : Uio.Message.entry) = Option.value ~default:Int64.min_int e.timestamp

let note_expired ctx = function
  | Error Clio.Errors.Cursor_expired -> ctx.cursor_expired <- ctx.cursor_expired + 1
  | _ -> ()

(* Open a cursor at [target] time, read chunks of at most 10 entries until
   one at or after [target] shows up, close. It must be the first acked
   entry of the sublog at or after [target]. *)
let time_read ctx client (s : Model.sublog) target () =
  let r =
    Uio.Client.with_cursor client ~log:s.id (Uio.Message.From_time target) (fun c ->
        let rec loop () =
          let* entries, eof = Uio.Client.next_chunk ~max_entries:10 c in
          match List.find_opt (fun e -> Int64.compare (ts_of e) target >= 0) entries with
          | Some e -> Ok (Some e)
          | None -> if eof then Ok None else loop ()
        in
        loop ())
  in
  note_expired ctx r;
  let* found = errs r in
  let want = Model.first_at_or_after s target in
  match found with
  | Some e when Model.matches s want ~ts:(ts_of e) ~payload:e.payload -> Ok ()
  | None when want = s.n -> Ok ()
  | _ -> Error (Printf.sprintf "%s: wrong entry for time %Ld" s.path target)

(* Newest [k] entries through a cursor at the end and one backward chunk. *)
let newest_read ctx client (s : Model.sublog) k () =
  let r =
    Uio.Client.with_cursor client ~log:s.id Uio.Message.From_end (fun c ->
        let* entries, _ = Uio.Client.prev_chunk ~max_entries:k c in
        Ok entries)
  in
  note_expired ctx r;
  let* entries = errs r in
  let entries = List.sort (fun a b -> Int64.compare (ts_of b) (ts_of a)) entries in
  let want = min k s.n in
  if List.length entries <> want then
    Error (Printf.sprintf "%s: newest-%d returned %d entries" s.path k (List.length entries))
  else if
    List.for_all Fun.id
      (List.mapi (fun j (e : Uio.Message.entry) -> Model.matches s (s.n - 1 - j) ~ts:(ts_of e) ~payload:e.payload) entries)
  then Ok ()
  else Error (Printf.sprintf "%s: newest-%d entries differ" s.path k)

(* A full-sublog fold: every acked entry, in order. *)
let scan ctx client (s : Model.sublog) () =
  let r =
    Uio.Client.fold_entries client ~log:s.id ~init:(Ok 0) (fun acc (e : Uio.Message.entry) ->
        match acc with
        | Error _ -> acc
        | Ok i ->
          if Model.matches s i ~ts:(ts_of e) ~payload:e.payload then Ok (i + 1)
          else Error (Printf.sprintf "%s: scan entry %d differs" s.path i))
  in
  note_expired ctx r;
  let* res = errs r in
  let* n = res in
  if n = s.n then Ok () else Error (Printf.sprintf "%s: scan saw %d of %d entries" s.path n s.n)

(* ---------- inputs ---------- *)

(* Zipf(1) over the sublogs: sublog i (in creation order) has weight
   1/(i+1). Popularity is part of the fixture, like the store: every seed
   sees the same hot sublogs and only draws differently from them. *)
let zipf_picker rng n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  fun () ->
    let u = Sim.Rng.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* Deal [cards] in a fresh seeded order each round, so every run mixes
   operation kinds in exactly the stated proportions. *)
let dealer rng cards =
  let deck = Array.of_list cards and next = ref max_int in
  fun () ->
    if !next >= Array.length deck then begin
      Sim.Rng.shuffle rng deck;
      next := 0
    end;
    incr next;
    deck.(!next - 1)

let uniform_time ctx =
  let m = ctx.model in
  Int64.add m.Model.min_ts (Int64.of_float (Sim.Rng.float ctx.rng (Int64.to_float (Int64.sub m.max_ts m.min_ts) +. 1.)))

(* Sublogs are created at set-up time, directly on the server. *)
let create_logs ctx paths =
  List.iter
    (fun p ->
      let id = Stack.ok ("ensure_log " ^ p) (Clio.Server.ensure_log ctx.st.Stack.srv p) in
      ignore (Model.add_log ctx.model p id))
    paths

(* Preload: each record is appended directly at its arrival time on the
   simulated clock, then one force makes the whole preload durable. *)
let preload ctx (records : Sim.Workload.record list) =
  let st = ctx.st in
  List.iter
    (fun (r : Sim.Workload.record) ->
      Speed.tick ();
      Sim.Clock.advance st.Stack.clock r.gap_us;
      let s = Model.find ctx.model r.path in
      match Clio.Server.append st.Stack.srv ~log:s.id r.payload with
      | Ok (Some ts) -> Model.ack ctx.model s ts r.payload
      | Ok None -> failwith "preload: append returned no timestamp"
      | Error e -> failwith ("preload: " ^ Clio.Errors.to_string e))
    records;
  Stack.ok "preload force" (Clio.Server.force st.Stack.srv);
  Model.forced ctx.model

(* Seed of the fixed part of every store: its history before the
   measured phase. [--seed] drives only the operations. *)
let store_seed = 0x5eedL

let mail_records rng ~mailboxes ~n =
  Sim.Workload.mail_trace ~rng ~mailboxes ~messages:n ~mean_body:300 ~mean_gap_us:10_000.

(* ---------- end-of-run checks ---------- *)

let top_dirs model =
  Array.to_list model.Model.order
  |> List.map (fun (s : Model.sublog) -> List.nth (String.split_on_char '/' s.path) 1)
  |> List.sort_uniq compare
  |> List.map (fun d -> "/" ^ d)

(* Read the whole store back directly from [srv], one sequential fold per
   top-level directory, and check it against the model. *)
let verify_store ctx srv ~allow_loss ~what =
  let step, finish = Model.check_stream ctx.model ~allow_loss in
  let res =
    List.fold_left
      (fun acc dir ->
        let* () = acc in
        let* log = errs (Clio.Server.resolve srv dir) in
        let* r =
          errs
            (Clio.Server.fold_entries srv ~log ~init:(Ok ()) (fun acc (e : Clio.Reader.entry) ->
                 let* () = acc in
                 step ~log:e.log ~ts:(Option.value ~default:Int64.min_int e.timestamp) ~payload:e.payload))
        in
        r)
      (Ok ()) (top_dirs ctx.model)
  in
  match Result.bind res finish with
  | Ok () -> ()
  | Error m -> fail ctx (what ^ ": " ^ m)

(* ---------- per-layer snapshots ---------- *)

type snap = {
  prim : server_counters;
  dev_reads : int;
  flushes : int;
  busy : int;
  seeks : int;
  bytes_written : int;
  rt : int;
  wire_bytes : int;
  retries : int;
  clock : int;
  payload : int;
}

let snap ctx =
  let st = ctx.st in
  let devs = Stack.all_devs st in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 devs in
  let clients =
    st.Stack.client :: (match st.Stack.replica with Some r -> [ r.rclient ] | None -> [])
  in
  {
    prim = server_counters st.Stack.srv;
    dev_reads = sum Stack.reads;
    flushes = sum (fun d -> !(d.Stack.flushes));
    busy = Int64.to_int (Stack.busy_us st);
    seeks = sum (fun d -> Worm.Timed_device.seeks d.Stack.timed);
    bytes_written =
      List.fold_left (fun acc d -> acc + d.Stack.io.Worm.Block_io.stats.bytes_written) 0 st.Stack.primary.devs;
    rt = Stack.round_trips st;
    wire_bytes =
      List.fold_left
        (fun acc tr -> acc + Uio.Transport.bytes_sent tr + Uio.Transport.bytes_received tr)
        0 (Stack.transports st);
    retries = List.fold_left (fun acc c -> acc + (Uio.Client.stats c).retries) 0 clients;
    clock = Int64.to_int (Sim.Clock.peek st.Stack.clock);
    payload = ctx.model.Model.payload_bytes;
  }

let snap_map f g a b =
  {
    prim = g a.prim b.prim;
    dev_reads = f a.dev_reads b.dev_reads;
    flushes = f a.flushes b.flushes;
    busy = f a.busy b.busy;
    seeks = f a.seeks b.seeks;
    bytes_written = f a.bytes_written b.bytes_written;
    rt = f a.rt b.rt;
    wire_bytes = f a.wire_bytes b.wire_bytes;
    retries = f a.retries b.retries;
    clock = f a.clock b.clock;
    payload = f a.payload b.payload;
  }

let snap_diff ~after ~before = snap_map ( - ) (fun a b -> counters_diff ~after:a ~before:b) after before
let snap_add = snap_map ( + ) counters_add

(* ---------- one run ---------- *)

type outcome = {
  ctx : ctx;
  setup : Speed.timing list;  (** every set-up of the run *)
  wall_s : float;  (** the measured phase *)
  norm_s : float;  (** the measured phase at reference speed, see {!Speed} *)
  speed : float;  (** the machine's speed in the measured phase, 1 = reference *)
  ops : int;  (** client operations in the measured phase *)
  delta : snap;  (** counters moved by the measured phase *)
  issue_lag_ms : samples;  (** open loop only *)
  heap_live_mb : float;  (** live heap when the measured store is largest *)
  space_amp : float list;  (** one per store checked *)
  recovery_us : float list;  (** one per crash *)
  recovery : Clio.Stats.t list;  (** each recovered server's counters *)
  max_rate : float option;
}

(* [setups] is how many times the stack is set up before measuring;
   set-up time is reported as their median. With [fill] the phase runs
   past [seconds] until its latency samples are all in, for at most three
   times [seconds]; the per-layer runs need no latency samples. *)
type phase = { seconds : float; traced : bool; setups : int; fill : bool }

let more (ctx : ctx) phase elapsed =
  elapsed < phase.seconds
  || (phase.fill && ctx.recorded < ctx.sample_limit && elapsed < 3. *. phase.seconds)

(* Set up [reps] times, keeping the last stack; returns it with every
   set-up's time. Each earlier stack is dropped before the next set-up
   starts, so every set-up after the first finds the same free heap. *)
let setups ~reps f =
  let time () =
    Gc.full_major ();
    Speed.time f
  in
  let dropped = List.init (reps - 1) (fun _ -> snd (time ())) in
  let v, last = time () in
  (v, dropped @ [ last ])

(* One stretch of measured work, bracketed by counter snapshots, with
   tracing on or off for its duration. Returns the counters it moved and
   its time. *)
let measured (ctx : ctx) phase body =
  let before = snap ctx in
  ctx.st.Stack.tracer.Tracer.on <- phase.traced;
  let (), time = Speed.time body in
  ctx.st.Stack.tracer.Tracer.on <- false;
  (snap_diff ~after:(snap ctx) ~before, time)

(* Live heap after a full major collection: the store, the model and the
   samples, without the garbage a peak figure would include by chance of
   collector timing. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let space_amp ctx =
  let srv = ctx.st.Stack.srv in
  float_of_int (Clio.Server.volume_blocks_used srv * Stack.config.Clio.Config.block_size)
  /. float_of_int ctx.model.Model.payload_bytes

(* Appends acked after the last force may die in a crash, so read them
   back from the live primary first: the newest ones of each sublog. *)
let verify_volatile ctx =
  let srv = ctx.st.Stack.srv in
  Array.iter
    (fun (s : Model.sublog) ->
      let k = ref 0 in
      while !k < s.n && s.seq.(s.n - 1 - !k) >= ctx.model.Model.durable do
        incr k
      done;
      if !k > 0 then
        let res =
          let* c = errs (Clio.Server.cursor_end srv ~log:s.id) in
          let rec back j =
            if j = !k then Ok ()
            else
              match Clio.Server.prev c with
              | Ok (Some e)
                when Model.matches s (s.n - 1 - j)
                       ~ts:(Option.value ~default:Int64.min_int e.timestamp)
                       ~payload:e.payload ->
                back (j + 1)
              | Ok _ -> Error (Printf.sprintf "%s: unforced entry %d differs" s.path (s.n - 1 - j))
              | Error e -> errs (Error e)
          in
          back 0
        in
        match res with Ok () -> () | Error m -> fail ctx ("read-back: " ^ m))
    ctx.model.Model.order

(* End of every store: read back what a crash may lose, crash the
   primary, recover it from its devices and NVRAM, and read the whole
   recovered store back: every append acked before the last force must be
   there, unchanged. Returns the space amplification, the modeled
   recovery time and the recovered server's counters. *)
let finish_store ctx =
  verify_volatile ctx;
  let amp = space_amp ctx in
  let st = ctx.st in
  let rt0 = Stack.round_trips st and busy0 = Stack.busy_us st and blocks0 = Stack.device_blocks st in
  let srv, us = Stack.crash_and_recover st in
  if st.Stack.tracer.Tracer.on then
    ignore
      (account ctx ~what:"recovery"
         ~ipc_us:(Int64.mul Stack.ipc_us (Int64.of_int (Stack.round_trips st - rt0)))
         ~device_us:(Int64.sub (Stack.busy_us st) busy0)
         ~device_blocks:(Stack.device_blocks st - blocks0)
         ~ticks:(0L, Int64.max_int) ~client:false);
  verify_store ctx srv ~allow_loss:true ~what:"after crash";
  (amp, Int64.to_float us, Clio.Stats.snapshot (Clio.Server.stats srv))

(* Replace the run's stack and model with a fresh, empty server. *)
let fresh_store ctx =
  ctx.st <- Stack.create ~from:ctx.st ();
  ctx.model <- Model.create ()

(* The measured phase, in rounds. Each round runs [body] on its own store
   until it has done [round_ops] client operations or the phase is over,
   then checks that store outside the measured time: [before_finish],
   then {!finish_store}. Rounds after the first start from [fresh ()].
   Ingest and mixed-replica run several rounds, so that memory stays
   bounded and no single store or stretch of a seed's operations decides
   a run's figures; lookup runs one. *)
let in_rounds ctx ~setup phase ~round_ops ~fresh ~before_finish body =
  Hashtbl.reset ctx.kinds;
  ctx.recorded <- 0;
  let ops0 = ctx.ops in
  let wall_s = ref 0. and norm_s = ref 0. and speeds = ref [] and delta = ref None and heap = ref 0. and stores = ref [] in
  let more elapsed = more ctx phase elapsed in
  let rounds = ref 0 in
  while more !wall_s do
    if !rounds > 0 then fresh ();
    incr rounds;
    let round_ops0 = ctx.ops in
    let continue () =
      Speed.tick ();
      ctx.ops - round_ops0 < round_ops && more (!wall_s +. Speed.elapsed ())
    in
    let d, (t : Speed.timing) = measured ctx phase (fun () -> body continue) in
    wall_s := !wall_s +. t.wall_s;
    norm_s := !norm_s +. t.norm_s;
    speeds := t.speed :: !speeds;
    delta := Some (match !delta with None -> d | Some acc -> snap_add acc d);
    (* A round cut by the clock before its first operation has nothing to check. *)
    if ctx.ops > round_ops0 then begin
      if !rounds = 1 then heap := live_heap_mb ();
      before_finish ();
      ctx.st.Stack.tracer.Tracer.on <- phase.traced;
      stores := finish_store ctx :: !stores;
      ctx.st.Stack.tracer.Tracer.on <- false
    end
  done;
  {
    ctx;
    setup;
    wall_s = !wall_s;
    norm_s = !norm_s;
    speed = Derived.middle !speeds;
    ops = ctx.ops - ops0;
    delta = Option.get !delta;
    issue_lag_ms = samples ();
    heap_live_mb = !heap;
    space_amp = List.map (fun (amp, _, _) -> amp) !stores;
    recovery_us = List.map (fun (_, us, _) -> us) !stores;
    recovery = List.map (fun (_, _, st) -> st) !stores;
    max_rate = None;
  }

(* ---------- ingest ---------- *)

type source = Login | Mail | Txn

let ingest_users = 100
let ingest_mailboxes = 80
let ingest_streams = 20

let ingest_paths =
  List.init ingest_users (Printf.sprintf "/usage/user%04d")
  @ List.init ingest_mailboxes (Printf.sprintf "/mail/user%03d")
  @ List.init ingest_streams (Printf.sprintf "/txn/stream%02d")

(* Offered rate of the measured ingest phase, arrivals per second: about
   40% of the rate this stack sustains on the same mix (ingest_max_rate,
   about 630/s), so the open loop runs loaded but below saturation. *)
let ingest_rate = 250.

(* The arrivals due in [start, start + span_us): three independent seeded
   streams (half audit entries, 35% mail deliveries, 15% transaction
   commits), each record due at its own generated gap, merged by due
   time. *)
let ingest_arrivals rng ~rate ~start ~span_us =
  let expect share = share *. rate *. Int64.to_float span_us /. 1e6 in
  let count share = int_of_float (2. *. expect share) + 20 in
  let gap share = 1e6 /. (share *. rate) in
  let login =
    Sim.Workload.login_trace ~rng ~users:ingest_users ~events:(count 0.5) ~mean_gap_us:(gap 0.5)
  in
  let mail =
    Sim.Workload.mail_trace ~rng ~mailboxes:ingest_mailboxes ~messages:(count 0.35) ~mean_body:300
      ~mean_gap_us:(gap 0.35)
  in
  (* transaction_trace draws gaps around 500 us; rescale to this rate. *)
  let txn = Sim.Workload.transaction_trace ~rng ~streams:ingest_streams ~commits:(count 0.15) ~mean_update:120 in
  let timeline src scale recs =
    let t = ref start in
    List.map
      (fun (r : Sim.Workload.record) ->
        t := Int64.add !t (Int64.of_float (Int64.to_float r.gap_us *. scale));
        { Derived.due = !t; item = (src, r) })
      recs
  in
  let stop = Int64.add start span_us in
  timeline Login 1. login @ timeline Mail 1. mail @ timeline Txn (gap 0.15 /. 500.) txn
  |> List.filter (fun a -> Int64.compare a.Derived.due stop < 0)
  |> List.stable_sort (fun a b -> Int64.compare a.Derived.due b.Derived.due)

let max_group = 32

(* Mail deliveries already due travel together as one forced batch (group
   commit); audit entries and commits travel alone. *)
let take (ready : (source * Sim.Workload.record) Derived.arrival array) =
  match fst ready.(0).Derived.item with
  | Mail ->
    let k = ref 1 in
    while !k < Array.length ready && !k < max_group && fst ready.(!k).Derived.item = Mail do
      incr k
    done;
    !k
  | Login | Txn -> 1

let ack ctx (r : Sim.Workload.record) = function
  | Some ts -> Ok (Model.ack ctx.model (Model.find ctx.model r.path) ts r.payload)
  | None -> Error (r.path ^ ": append acked without a timestamp")

let serve_ingest ctx (items : (source * Sim.Workload.record) array) =
  let client = ctx.st.Stack.client in
  let k = Array.length items in
  let ticks = (Int64.of_int k, Int64.max_int) in
  let lat =
    match items.(0) with
    | Mail, _ ->
      client_op ctx ~ticks (fun () ->
          let batch =
            Array.to_list items
            |> List.map (fun (_, (r : Sim.Workload.record)) ->
                   { Uio.Message.log = (Model.find ctx.model r.path).id; extra_members = []; data = r.payload })
          in
          let* tss = errs (Uio.Client.append_batch ~force:true client batch) in
          let* () =
            List.fold_left2
              (fun acc (_, r) ts -> Result.bind acc (fun () -> ack ctx r ts))
              (Ok ()) (Array.to_list items) tss
          in
          Ok (Model.forced ctx.model))
    | ((Login | Txn) as src), r ->
      let force = src = Txn in
      client_op ctx ~ticks (fun () ->
          let* ts = errs (Uio.Client.append ~force client ~log:(Model.find ctx.model r.path).id r.payload) in
          let* () = ack ctx r ts in
          Ok (if force then Model.forced ctx.model))
  in
  ignore lat

(* The open loop on the run's simulated clock. *)
let drive ?continue ctx arrivals =
  let clock = ctx.st.Stack.clock in
  Derived.drive
    ~peek:(fun () -> Sim.Clock.peek clock)
    ~advance_to:(fun t -> Sim.Clock.advance clock (Int64.sub t (Sim.Clock.peek clock)))
    ~take ~serve:(serve_ingest ctx) ?continue arrivals

(* Run the open loop on [ctx] from the current clock, chunk by chunk,
   while [continue] holds; per-request latencies and issue lags are
   recorded. *)
let ingest_loop ctx ~rate ~continue ~lag =
  let st = ctx.st in
  let span_us = 2_000_000L in
  while continue () do
    let start = Sim.Clock.peek st.Stack.clock in
    let arrivals = ingest_arrivals ctx.rng ~rate ~start ~span_us in
    let r = drive ctx ~continue arrivals in
    Array.iter (fun us -> record ctx "append" (ms us)) r.latencies_us;
    Array.iter (fun us -> push lag (ms us)) r.issue_lag_us;
    (* idle to the end of the chunk's window *)
    let stop = Int64.add start span_us in
    let now = Sim.Clock.peek st.Stack.clock in
    if Int64.compare now stop < 0 then Sim.Clock.advance st.Stack.clock (Int64.sub stop now)
  done

(* Every ingest store starts with the same history: 24 s of the same mix
   at the same rate (about 6000 entries), appended directly and forced. *)
let ingest_history_us = 24_000_000L

let fresh_ingest_store ctx =
  fresh_store ctx;
  create_logs ctx ingest_paths;
  let arrivals =
    ingest_arrivals (Sim.Rng.create store_seed) ~rate:ingest_rate
      ~start:(Sim.Clock.peek ctx.st.Stack.clock) ~span_us:ingest_history_us
  in
  let prev = ref (Sim.Clock.peek ctx.st.Stack.clock) in
  preload ctx
    (List.map
       (fun (a : _ Derived.arrival) ->
         let gap_us = Int64.sub a.due !prev in
         prev := a.due;
         { (snd a.item) with Sim.Workload.gap_us })
       arrivals)

(* Latency samples per run: the first 250 000 append requests. *)
let ingest_samples = 250_000

let new_ingest_ctx ~seed =
  let ctx = new_ctx ~seed ~sample_limit:ingest_samples in
  fresh_ingest_store ctx;
  ctx

(* The ingest_max_rate search: each probe runs [probe_arrivals] seeded
   arrivals at one rate on a fresh stack and passes when p99 request
   latency stays within 50 ms and the backlog does not grow. *)
let limit_us = 50_000L
let probe_arrivals = 3000

let ingest_max_rate ~seed =
  let ok rate =
    let ctx = new_ingest_ctx ~seed in
    let st = ctx.st in
    let span_us = Int64.of_float (float_of_int probe_arrivals /. rate *. 1e6) in
    let arrivals = ingest_arrivals ctx.rng ~rate ~start:(Sim.Clock.peek st.Stack.clock) ~span_us in
    ctx.failed = 0 && Derived.sustains ~limit_us (drive ctx arrivals)
  in
  Derived.max_rate ~lo:20. ~hi:5000. ~steps:10 ~ok

(* Append requests per store. *)
let round_requests = 50_000

let ingest ~seed phase ~search =
  let ctx, setup = setups ~reps:phase.setups (fun () -> new_ingest_ctx ~seed) in
  let lag = samples () in
  let o =
    in_rounds ctx ~setup phase ~round_ops:round_requests
      ~fresh:(fun () -> fresh_ingest_store ctx)
      ~before_finish:ignore
      (fun continue -> ingest_loop ctx ~rate:ingest_rate ~continue ~lag)
  in
  { o with issue_lag_ms = lag; max_rate = (if search then Some (ingest_max_rate ~seed) else None) }

(* ---------- lookup ---------- *)

let mailboxes = 200
let mail_paths = List.init mailboxes (Printf.sprintf "/mail/user%03d")

(* Preload until the store spans this many blocks: 20x the block cache. *)
let lookup_blocks = 20 * Stack.config.Clio.Config.cache_blocks

(* A fresh server holding the mail-store fixture, [blocks] long. *)
let fresh_mail_store ctx ~blocks =
  fresh_store ctx;
  create_logs ctx mail_paths;
  let rng = Sim.Rng.create store_seed in
  while Clio.Server.volume_blocks_used ctx.st.Stack.srv < blocks do
    preload ctx (mail_records rng ~mailboxes ~n:2000)
  done

let preloaded ~seed ~blocks ~sample_limit =
  let ctx = new_ctx ~seed ~sample_limit in
  fresh_mail_store ctx ~blocks;
  ctx

let lookup_warmup = 300

(* Latency samples per run: the first 2600 operations after warm-up. *)
let lookup_samples = 2600

type lookup_kind = Time_read | Newest_read | Scan

(* Per ten lookup operations: six time-positioned reads, three newest-k
   reads, one full-sublog scan. *)
let lookup_mix =
  List.init 6 (fun _ -> Time_read) @ List.init 3 (fun _ -> Newest_read) @ [ Scan ]

let lookup_op ctx pick deal =
  let client = ctx.st.Stack.client in
  let s = ctx.model.Model.order.(pick ()) in
  let op f = ms (client_op ctx ~ticks:read_ticks f) in
  match deal () with
  | Time_read -> record ctx "time_read" (op (time_read ctx client s (uniform_time ctx)))
  | Newest_read -> record ctx "newest_read" (op (newest_read ctx client s (1 + Sim.Rng.int ctx.rng 10)))
  | Scan -> record ctx "scan" (op (scan ctx client s))

let lookup ~seed phase =
  let ctx, setup = setups ~reps:phase.setups (fun () -> preloaded ~seed ~blocks:lookup_blocks ~sample_limit:lookup_samples) in
  let pick = zipf_picker ctx.rng mailboxes and deal = dealer ctx.rng lookup_mix in
  for _ = 1 to lookup_warmup do
    lookup_op ctx pick deal
  done;
  in_rounds ctx ~setup phase ~round_ops:max_int ~fresh:ignore ~before_finish:ignore (fun continue ->
      while continue () do
        lookup_op ctx pick deal
      done)

(* ---------- mixed-replica ---------- *)

(* Latency samples per run: the first 4200 operations. *)
let mixed_samples = 4200

(* The primary's store before the replica attaches, in blocks: between
   the N^3 = 4096 and N^4 entrymap levels, so the few hundred blocks a
   round adds never add a level. Time-search costs step when a level is
   added; a store near that step would make a run's latencies depend on
   how fast its seed grows the store. *)
let mixed_blocks = 6000

let traced_sync ctx =
  let st = ctx.st in
  match st.Stack.replica with
  | None -> ()
  | Some r ->
    let rt0 = Uio.Transport.round_trips r.ship_transport and busy0 = Stack.busy_us st in
    let blocks0 = Stack.device_blocks st in
    Stack.sync st;
    if st.Stack.tracer.Tracer.on then begin
      let rt = Uio.Transport.round_trips r.ship_transport - rt0 in
      ctx.tr.syncs <- ctx.tr.syncs + 1;
      ctx.tr.ship_rt <- ctx.tr.ship_rt + rt;
      ignore
        (account ctx ~what:"shipper sync"
           ~ipc_us:(Int64.mul Stack.ipc_us (Int64.of_int rt))
           ~device_us:(Int64.sub (Stack.busy_us st) busy0)
           ~device_blocks:(Stack.device_blocks st - blocks0)
           ~ticks:(0L, 0L) ~client:false)
    end

let delivery ctx pool =
  let b = 1 + Sim.Rng.int ctx.rng 8 in
  if List.length !pool < b then pool := !pool @ mail_records ctx.rng ~mailboxes ~n:500;
  let items = List.filteri (fun i _ -> i < b) !pool in
  pool := List.filteri (fun i _ -> i >= b) !pool;
  let client = ctx.st.Stack.client in
  let lat =
    client_op ctx ~ticks:(Int64.of_int b, Int64.max_int) (fun () ->
        let batch =
          List.map
            (fun (r : Sim.Workload.record) ->
              { Uio.Message.log = (Model.find ctx.model r.path).id; extra_members = []; data = r.payload })
            items
        in
        let* tss = errs (Uio.Client.append_batch ~force:true client batch) in
        let* () = List.fold_left2 (fun acc r ts -> Result.bind acc (fun () -> ack ctx r ts)) (Ok ()) items tss in
        Ok (Model.forced ctx.model))
  in
  record ctx "append" (ms lat)

(* Each batch's reads: two newest-k and two time-positioned reads against
   the primary, and the same four against the replica, in a seeded order. *)
let mixed_reads =
  List.concat_map (fun r -> [ r; r ]) [ (Primary, false); (Primary, true); (Replica, false); (Replica, true) ]

let mixed_read ctx pick (target, timed) =
  let client = client_of ctx target in
  let s = ctx.model.Model.order.(pick ()) in
  let kind, f =
    if timed then ("time_read", time_read ctx client s (uniform_time ctx))
    else ("newest_read", newest_read ctx client s (1 + Sim.Rng.int ctx.rng 10))
  in
  let kind = if target = Replica then "replica_" ^ kind else kind in
  record ctx kind (ms (client_op ctx ~target ~ticks:read_ticks f))

let block_image (d : Stack.dev) i = Worm.Mem_device.raw_peek d.mem i

(* The replica's devices must hold exactly the primary's bytes. *)
let check_replica ctx =
  match ctx.st.Stack.replica with
  | None -> fail ctx "replica missing"
  | Some r ->
    let prim = ctx.st.Stack.primary.devs and rep = r.rnode.devs in
    if List.length prim <> List.length rep then fail ctx "replica volume count differs"
    else
      List.iteri
        (fun v (p, q) ->
          let n = Worm.Mem_device.written_blocks p.Stack.mem in
          if n <> Worm.Mem_device.written_blocks q.Stack.mem then
            fail ctx (Printf.sprintf "volume %d: replica holds %d blocks, primary %d" v
                        (Worm.Mem_device.written_blocks q.Stack.mem) n)
          else
            for i = 0 to n - 1 do
              if block_image p i <> block_image q i then
                fail ctx (Printf.sprintf "volume %d block %d differs on the replica" v i)
            done)
        (List.combine prim rep);
    let re = Repl.Shipper.reshipped r.shipper in
    if re <> 0 then fail ctx (Printf.sprintf "shipper re-sent %d blocks" re)

(* Client operations per store: about 115 delivery batches. *)
let mixed_round_ops = 1050

let mixed ~seed ~blocks phase =
  let fresh ctx =
    fresh_mail_store ctx ~blocks;
    ignore (Stack.add_replica ctx.st)
  in
  let ctx, setup =
    setups ~reps:phase.setups (fun () ->
        let ctx = new_ctx ~seed ~sample_limit:mixed_samples in
        fresh ctx;
        ctx)
  in
  let pick = zipf_picker ctx.rng mailboxes and deal = dealer ctx.rng mixed_reads in
  let pool = ref [] in
  in_rounds ctx ~setup phase ~round_ops:mixed_round_ops
    ~fresh:(fun () -> fresh ctx)
    ~before_finish:(fun () ->
      traced_sync ctx;
      check_replica ctx)
    (fun continue ->
      while continue () do
        delivery ctx pool;
        traced_sync ctx;
        List.iter (fun _ -> mixed_read ctx pick (deal ())) mixed_reads
      done)
