(* Derived-metric rules of the benchmark, kept free of the Clio stack so
   they can be unit-tested on hand-made inputs:

   - percentiles by nearest rank over raw samples, refused when fewer than
     [min_beyond] samples lie beyond the rank;
   - the open-loop driver, which times every request from its due time;
   - the deterministic search for the highest sustainable arrival rate;
   - the modeled and device ledgers of one request and the self-time rule
     for spans. *)

(* ---------- percentiles ---------- *)

type sorted = float array

let sort samples : sorted =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let min_beyond = 10

type pct = { q : float; value : float; n : int; beyond : int }

(* Nearest rank: the smallest sample with at least [q * n] samples at or
   below it. Its value is always one of the samples, so it lies within the
   observed [min, max]. *)
let rank ~n q =
  let k = int_of_float (Float.ceil (q *. float_of_int n)) in
  max 1 (min n k)

let percentile (s : sorted) q =
  let n = Array.length s in
  if n = 0 then Error (Printf.sprintf "p%g refused: no samples" (q *. 100.))
  else
    let k = rank ~n q in
    let beyond = n - k in
    if beyond < min_beyond then
      Error
        (Printf.sprintf "p%g refused: %d of %d samples beyond it (need %d)" (q *. 100.) beyond n
           min_beyond)
    else Ok { q; value = s.(k - 1); n; beyond }

(* Median of a handful of values (set-up times, one figure per store),
   where no rank rule applies: the middle value, or the mean of the two
   middle ones. *)
let middle = function
  | [] -> invalid_arg "Derived.middle: no values"
  | l ->
    let a = sort (Array.of_list l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---------- open loop ---------- *)

(* One arrival of an open-loop schedule: due at [due] on the simulated
   clock, whatever happened to earlier arrivals. *)
type 'a arrival = { due : int64; item : 'a }

type openloop = {
  latencies_us : int64 array;  (** per request: reply minus the due time of its first arrival *)
  issue_lag_us : int64 array;  (** per request: issue minus that due time *)
  arrivals : int;  (** arrivals served *)
}

(* Drive [arrivals] (sorted by due time) through [serve], one request at a
   time. When the clock is behind the next due time it idles forward to
   it; when it is ahead, the arrival waited in the backlog. [take] picks
   how many of the arrivals already due (at least the first) travel in
   one request. A request's latency runs from the due time of its first
   arrival to its reply, so a stall is charged to every request queued
   behind it. [continue] is asked before each request. *)
let drive ~peek ~advance_to ~take ~serve ?(continue = fun () -> true) arrivals =
  let arr = Array.of_list arrivals in
  let n = Array.length arr in
  let lat = ref [] and lag = ref [] in
  let i = ref 0 in
  while !i < n && continue () do
    let first = arr.(!i) in
    if Int64.compare (peek ()) first.due < 0 then advance_to first.due;
    let now = peek () in
    let ready = ref 1 in
    while !i + !ready < n && Int64.compare arr.(!i + !ready).due now <= 0 do
      incr ready
    done;
    let k = max 1 (min !ready (take (Array.sub arr !i !ready))) in
    serve (Array.map (fun a -> a.item) (Array.sub arr !i k));
    lat := Int64.sub (peek ()) first.due :: !lat;
    lag := Int64.sub now first.due :: !lag;
    i := !i + k
  done;
  {
    latencies_us = Array.of_list (List.rev !lat);
    issue_lag_us = Array.of_list (List.rev !lag);
    arrivals = !i;
  }

(* ---------- highest sustainable rate ---------- *)

(* Geometric bisection between [lo] and [hi] arrivals per second:
   [ok rate] runs a seeded schedule at that rate and says whether it met
   the latency limit without a growing backlog. Returns the highest rate
   seen to pass, or 0 when even [lo] fails. Deterministic whenever [ok]
   is. *)
let max_rate ~lo ~hi ~steps ~ok =
  if not (ok lo) then 0.0
  else if ok hi then hi
  else begin
    let lo = ref lo and hi = ref hi in
    for _ = 1 to steps do
      let mid = Float.sqrt (!lo *. !hi) in
      if ok mid then lo := mid else hi := mid
    done;
    !lo
  end

(* The search's pass rule for one probe run. The backlog does not grow
   when the last arrival was issued no later than the latency limit after
   it was due. *)
let sustains ~limit_us (r : openloop) =
  let n = Array.length r.latencies_us in
  n > 0
  && Int64.compare r.issue_lag_us.(n - 1) limit_us <= 0
  &&
  match percentile (sort (Array.map Int64.to_float r.latencies_us)) 0.99 with
  | Ok p -> p.value <= Int64.to_float limit_us
  | Error _ -> false

(* ---------- ledgers ---------- *)

(* Where one request's modeled time went. [ipc_us] comes from the
   transports' round-trip counters, [device_us] from the timed devices'
   busy counters, [tick_us] from the spans: the time the clock moved
   inside a handler outside any device operation, i.e. the one-tick
   advance behind each timestamp the server issues. *)
type modeled = { latency_us : int64; ipc_us : int64; device_us : int64; tick_us : int64 }

let modeled_closes m =
  Int64.compare m.tick_us 0L >= 0
  && Int64.equal m.latency_us (Int64.add m.ipc_us (Int64.add m.device_us m.tick_us))

(* One span of a request tree: its wall interval (ns), its modeled
   interval (us), and the device operations folded into it (blocks, wall
   ns, modeled us). *)
type span = {
  id : int;
  parent : int;  (** -1 for the request's root *)
  layer : string;
  w0 : int64;
  w1 : int64;
  m0 : int64;
  m1 : int64;
  dev_blocks : int;
  dev_ns : int64;
  dev_us : int64;
}

let device_layer = "worm"

let sum f l = List.fold_left (fun acc x -> Int64.add acc (f x)) 0L l

let children spans s = List.filter (fun c -> c.parent = s.id) spans

(* Modeled time that passed inside the non-root spans of one request
   without being covered by a device operation or a child span. *)
let tick_us spans =
  sum
    (fun s ->
      if s.parent < 0 then 0L
      else
        Int64.sub
          (Int64.sub (Int64.sub s.m1 s.m0) s.dev_us)
          (sum (fun c -> Int64.sub c.m1 c.m0) (children spans s)))
    spans

let ledger spans ~ipc_us ~device_us =
  match List.find_opt (fun s -> s.parent < 0) spans with
  | None -> None
  | Some root ->
    Some { latency_us = Int64.sub root.m1 root.m0; ipc_us; device_us; tick_us = tick_us spans }

(* The device ledger of one request: the blocks its spans saw the device
   wrappers handle must equal the blocks the devices themselves counted
   over the request. A device operation that escaped every span, or a path
   to a device that bypasses the wrappers, leaves it open. *)
let devices_close spans ~device_blocks =
  Int.equal (List.fold_left (fun acc s -> acc + s.dev_blocks) 0 spans) device_blocks

(* Wall self time per layer: a span's duration minus what its child spans
   and folded device operations cover; device operations count as the
   [worm] layer. By this rule the self times of a request always sum to
   its root span's duration, so that sum is no check; the device ledger
   above is. *)
let self_times spans =
  let totals = Hashtbl.create 8 in
  let add layer ns =
    Hashtbl.replace totals layer
      (Int64.add ns (Option.value ~default:0L (Hashtbl.find_opt totals layer)))
  in
  List.iter
    (fun s ->
      add s.layer
        (Int64.sub
           (Int64.sub (Int64.sub s.w1 s.w0) s.dev_ns)
           (sum (fun c -> Int64.sub c.w1 c.w0) (children spans s)));
      add device_layer s.dev_ns)
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] |> List.sort compare
