exception Timeout
exception Disconnected

type counters = { round_trips : int; bytes_sent : int; bytes_received : int }

type fault_counts = {
  mutable dropped_requests : int;
  mutable dropped_responses : int;
  mutable duplicates : int;
  mutable delays : int;
  mutable resets : int;
}

type lossy_config = {
  drop_request : float;
  drop_response : float;
  duplicate : float;
  delay : float;
  reset : float;
  timeout_us : int64;
  max_delay_us : int64;
}

let default_lossy =
  {
    drop_request = 0.05;
    drop_response = 0.05;
    duplicate = 0.05;
    delay = 0.05;
    reset = 0.02;
    timeout_us = 10_000L;
    max_delay_us = 25_000L;
  }

type t = {
  handler : string -> string;
  latency_us : int64;
  clock : Sim.Clock.t;
  mutable c : counters;
  faults : fault_counts option;
}

let local ?(latency_us = 0L) ~clock handler =
  {
    handler;
    latency_us;
    clock;
    c = { round_trips = 0; bytes_sent = 0; bytes_received = 0 };
    faults = None;
  }

(* The attempt is charged the moment the request leaves — round trip and
   request bytes count even when the handler (or a fault wrapper) raises,
   because the bytes did go out on the wire. Only the response bytes wait
   for an actual response. *)
let call t request =
  Sim.Clock.advance t.clock t.latency_us;
  t.c <-
    {
      t.c with
      round_trips = t.c.round_trips + 1;
      bytes_sent = t.c.bytes_sent + String.length request;
    };
  let response = t.handler request in
  t.c <- { t.c with bytes_received = t.c.bytes_received + String.length response };
  response

(* Faults are decided per call from the caller's [rng], so a seed fully
   determines the fault schedule. Order of checks: a reset or dropped
   request happens before the server sees anything; duplicate / delay /
   dropped response happen after the request was applied, which is exactly
   the dangerous applied-but-ack-lost window idempotency keys exist for. *)
let lossy ?(config = default_lossy) ~rng inner =
  let fc =
    { dropped_requests = 0; dropped_responses = 0; duplicates = 0; delays = 0; resets = 0 }
  in
  let handler request =
    if Sim.Rng.chance rng config.reset then begin
      fc.resets <- fc.resets + 1;
      raise Disconnected
    end
    else if Sim.Rng.chance rng config.drop_request then begin
      (* never delivered: the client burns its whole patience window *)
      fc.dropped_requests <- fc.dropped_requests + 1;
      Sim.Clock.advance inner.clock config.timeout_us;
      raise Timeout
    end
    else begin
      let response = call inner request in
      if Sim.Rng.chance rng config.duplicate then begin
        (* the network delivered the datagram twice; the server answers
           both, the client reads the first answer *)
        fc.duplicates <- fc.duplicates + 1;
        ignore (call inner request)
      end;
      let late =
        Sim.Rng.chance rng config.delay
        && begin
             fc.delays <- fc.delays + 1;
             let bound = Int64.to_int config.max_delay_us + 1 in
             let d = Int64.of_int (Sim.Rng.int rng (max 1 bound)) in
             Sim.Clock.advance inner.clock d;
             Int64.compare d config.timeout_us > 0
           end
      in
      if late || Sim.Rng.chance rng config.drop_response then begin
        (* applied, but the ack never made it back in time *)
        fc.dropped_responses <- fc.dropped_responses + 1;
        if not late then Sim.Clock.advance inner.clock config.timeout_us;
        raise Timeout
      end;
      response
    end
  in
  {
    handler;
    latency_us = 0L;
    clock = inner.clock;
    c = { round_trips = 0; bytes_sent = 0; bytes_received = 0 };
    faults = Some fc;
  }

let counters t = t.c

let diff ~after ~before =
  {
    round_trips = after.round_trips - before.round_trips;
    bytes_sent = after.bytes_sent - before.bytes_sent;
    bytes_received = after.bytes_received - before.bytes_received;
  }

let latency_us t = t.latency_us
let clock t = t.clock
let round_trips t = t.c.round_trips
let bytes_sent t = t.c.bytes_sent
let bytes_received t = t.c.bytes_received
let faults t = t.faults

let total_faults t =
  match t.faults with
  | None -> 0
  | Some f -> f.dropped_requests + f.dropped_responses + f.duplicates + f.delays + f.resets
