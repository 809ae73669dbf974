type state = Closed | Open

type t = {
  threshold : int;
  mutable errors : int;
  mutable total_errors : int;
  mutable state : state;
  mutable trips : int;
  mutable rejected : int;
}

let create ~threshold () =
  { threshold; errors = 0; total_errors = 0; state = Closed; trips = 0; rejected = 0 }

let state t = t.state
let is_open t = t.state = Open
let errors t = t.errors
let total_errors t = t.total_errors
let trips t = t.trips
let rejected t = t.rejected
let threshold t = t.threshold
let enabled t = t.threshold > 0

let trip t =
  if t.state = Closed then begin
    t.state <- Open;
    t.trips <- t.trips + 1
  end

let record_error t =
  t.errors <- t.errors + 1;
  t.total_errors <- t.total_errors + 1;
  if enabled t && t.errors >= t.threshold then trip t

let record_rejected t = t.rejected <- t.rejected + 1

let reset t =
  t.errors <- 0;
  t.state <- Closed

let state_name t = match t.state with Closed -> "closed" | Open -> "open"

let to_json t =
  Obs.Json.Obj
    [
      ("state", Obs.Json.Str (state_name t));
      ("threshold", Obs.Json.Int t.threshold);
      ("errors", Obs.Json.Int t.errors);
      ("total_errors", Obs.Json.Int t.total_errors);
      ("trips", Obs.Json.Int t.trips);
      ("writes_rejected", Obs.Json.Int t.rejected);
    ]

let pp ppf t =
  Format.fprintf ppf "breaker: %s (errors %d/%d, trips %d, writes rejected %d)"
    (state_name t) t.errors
    (if enabled t then t.threshold else 0)
    t.trips t.rejected
