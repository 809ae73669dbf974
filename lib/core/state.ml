(* Pre-resolved histogram handles for the hot paths: one Metrics lookup at
   server construction, a plain record access per operation afterwards. *)
type probes = {
  h_append : Obs.Histogram.t;
  h_force : Obs.Histogram.t;
  h_flush : Obs.Histogram.t;
  h_locate : Obs.Histogram.t;
  h_read : Obs.Histogram.t;
  h_time_search : Obs.Histogram.t;
  h_recover : Obs.Histogram.t;
  h_entry_bytes : Obs.Histogram.t;
  h_batch : Obs.Histogram.t;
}

(* Replication role. Epochs totally order primaries over a volume
   sequence's lifetime: promotion mints epoch+1 and every shipped message
   carries the sender's epoch, so a deposed primary's traffic is refused
   ([Errors.Stale_epoch]) the first time it reaches anyone who has seen the
   newer epoch — at which point it marks itself [Fenced]. *)
type role =
  | Primary of { epoch : int }
  | Replica of { epoch : int; primary_hint : string }
  | Fenced of { epoch : int; hint : string }

let role_name = function
  | Primary _ -> "primary"
  | Replica _ -> "replica"
  | Fenced _ -> "fenced"

let role_epoch = function
  | Primary { epoch } | Replica { epoch; _ } | Fenced { epoch; _ } -> epoch

type position = { vol : int; block : int; rec_index : int }

type t = {
  config : Config.t;
  clock : Sim.Clock.t;
  catalog : Catalog.t;
  stats : Stats.t;
  obs : Obs.t;
  probes : probes;
  read_memo : Read_memo.t;
  nvram : Worm.Nvram.t option;
  alloc_volume : vol_index:int -> (Worm.Block_io.t, Errors.t) result;
  mutable vols : Vol.t array;
  mutable last_ts : int64;
  mutable badblock_queue : int list;
  mutable seq_uid : int64;
  mutable next_vol_uid : int64;
  mutable in_entry : bool;
  deferred_emissions : (Vol.t * Entrymap.entry) Queue.t;
  mutable auto_mount : bool;
  mutable mounts : int;
  breaker : Breaker.t;
  mutable role : role;
  mutable repl_lag_blocks : int;
  mutable catalog_resume : position;
}

let make ~config ~clock ?nvram ~alloc_volume () =
  let obs = Obs.create ~now:(fun () -> Int64.to_int (Sim.Clock.peek clock)) () in
  let m = obs.Obs.metrics in
  let probes =
    {
      h_append = Obs.Metrics.histogram m "append_us";
      h_force = Obs.Metrics.histogram m "force_us";
      h_flush = Obs.Metrics.histogram m "flush_us";
      h_locate = Obs.Metrics.histogram m "locate_us";
      h_read = Obs.Metrics.histogram m "read_entry_us";
      h_time_search = Obs.Metrics.histogram m "time_search_us";
      h_recover = Obs.Metrics.histogram m "recover_us";
      h_entry_bytes = Obs.Metrics.histogram m "entry_bytes";
      h_batch = Obs.Metrics.histogram m "batch_entries";
    }
  in
  {
    config;
    clock;
    catalog = Catalog.create ();
    stats = Stats.create ();
    obs;
    probes;
    read_memo = Read_memo.create ();
    nvram;
    alloc_volume;
    vols = [||];
    last_ts = 0L;
    badblock_queue = [];
    seq_uid = 0L;
    next_vol_uid = 1L;
    in_entry = false;
    deferred_emissions = Queue.create ();
    auto_mount = true;
    mounts = 0;
    breaker = Breaker.create ~threshold:config.Config.breaker_threshold ();
    role = Primary { epoch = 1 };
    repl_lag_blocks = 0;
    catalog_resume = { vol = 0; block = 1; rec_index = 0 };
  }

let active t =
  let n = Array.length t.vols in
  if n = 0 then Error (Errors.Bad_record "no volumes attached") else Ok t.vols.(n - 1)

let vol t i =
  if i < 0 || i >= Array.length t.vols then Error (Errors.Volume_offline i)
  else begin
    let v = t.vols.(i) in
    if v.Vol.online then Ok v
    else if t.auto_mount then begin
      (* "made available on demand, either automatically or manually" *)
      v.Vol.online <- true;
      t.mounts <- t.mounts + 1;
      Ok v
    end
    else Error (Errors.Volume_offline i)
  end

let nvols t = Array.length t.vols

let fresh_ts t =
  let now = Sim.Clock.now t.clock in
  let ts = if Int64.compare now t.last_ts > 0 then now else Int64.add t.last_ts 1L in
  t.last_ts <- ts;
  ts

let fresh_vol_uid t =
  let uid = t.next_vol_uid in
  t.next_vol_uid <- Int64.add uid 1L;
  uid

let expand_members t header =
  let tbl = Hashtbl.create 8 in
  let add id =
    if id <> Ids.root && id <> Ids.entrymap && not (Hashtbl.mem tbl id) then
      Hashtbl.replace tbl id ()
  in
  List.iter
    (fun id ->
      add id;
      List.iter add (Catalog.ancestors t.catalog id))
    (Header.members header);
  Hashtbl.fold (fun id () acc -> id :: acc) tbl [] |> List.sort compare
