type retry_policy = {
  max_attempts : int;
  deadline_us : int64;
  base_backoff_us : int64;
  max_backoff_us : int64;
}

let default_retry =
  { max_attempts = 10; deadline_us = 1_000_000L; base_backoff_us = 500L; max_backoff_us = 64_000L }

let no_retry = { default_retry with max_attempts = 1 }

type stats = {
  mutable retries : int;
  mutable timeouts : int;
  mutable disconnects : int;
  mutable deadline_exceeded : int;
}

type t = {
  transport : Transport.t;
  retry : retry_policy;
  rng : Sim.Rng.t;  (** backoff jitter + idempotency-key seed *)
  mutable next_key : int64;
  mutable redirect_hint : string option;
      (** primary address from the last [Not_primary] refusal, if any *)
  stats : stats;
}

type cursor = { client : t; id : int; mutable seq : int }

let ( let* ) = Clio.Errors.( let* )

let protocol_error = Error (Clio.Errors.Remote "protocol error: unexpected response shape")

let fresh_key t =
  let k = t.next_key in
  t.next_key <- Int64.add k 1L;
  k

let call_once t wire =
  match Transport.call t.transport wire with
  | exception Transport.Timeout ->
    t.stats.timeouts <- t.stats.timeouts + 1;
    Error Clio.Errors.Timeout
  | exception Transport.Disconnected ->
    t.stats.disconnects <- t.stats.disconnects + 1;
    Error Clio.Errors.Disconnected
  | raw -> (
    match Message.decode_response raw with
    | Ok (Message.R_error e) ->
      (match e with
      | Clio.Errors.Not_primary hint when hint <> "" -> t.redirect_hint <- Some hint
      | _ -> ());
      Error e
    | Ok r -> Ok r
    | Error e -> Error e)

let backoff_us p ~attempt =
  let b = Int64.shift_left p.base_backoff_us (min attempt 16) in
  if Int64.compare b p.max_backoff_us > 0 || Int64.compare b 0L <= 0 then p.max_backoff_us
  else b

(* The retry loop. Every request travels inside a [Keyed] envelope, so a
   resend is always safe: the server's dedup window replays the original
   answer byte-for-byte. Backoff is exponential with half-window jitter and
   advances the transport's clock, so waiting costs simulated time; the
   deadline is a per-call budget on that same clock. When the budget or the
   attempt count runs out, the last transport error surfaces ([Timeout] /
   [Disconnected]). *)
let call t req =
  let wire = Message.encode_request (Message.Keyed { key = fresh_key t; req }) in
  let p = t.retry in
  let clock = Transport.clock t.transport in
  let start = Sim.Clock.peek clock in
  let rec go attempt =
    match call_once t wire with
    | Error (Clio.Errors.Timeout | Clio.Errors.Disconnected) as r
      when attempt + 1 < p.max_attempts ->
      let elapsed = Int64.sub (Sim.Clock.peek clock) start in
      if Int64.compare elapsed p.deadline_us >= 0 then begin
        t.stats.deadline_exceeded <- t.stats.deadline_exceeded + 1;
        r
      end
      else begin
        t.stats.retries <- t.stats.retries + 1;
        let b = backoff_us p ~attempt in
        let half = Int64.div b 2L in
        let jitter = Int64.of_int (Sim.Rng.int t.rng (Int64.to_int half + 1)) in
        Sim.Clock.advance clock (Int64.add half jitter);
        go (attempt + 1)
      end
    | r -> r
  in
  go 0

(* No round trip: the first request is the first message on the wire. *)
let connect ?(retry = default_retry) ?(rng = Sim.Rng.create 0xC11E2717L) transport =
  {
    transport;
    retry;
    rng;
    next_key = Sim.Rng.next rng;
    redirect_hint = None;
    stats = { retries = 0; timeouts = 0; disconnects = 0; deadline_exceeded = 0 };
  }

let stats t = t.stats
let redirect_hint t = t.redirect_hint

let expect_id t req =
  let* r = call t req in
  match r with Message.R_id id -> Ok id | _ -> protocol_error

let expect_unit t req =
  let* r = call t req in
  match r with Message.R_unit -> Ok () | _ -> protocol_error

let expect_entry t req =
  let* r = call t req in
  match r with Message.R_entry e -> Ok e | _ -> protocol_error

let create_log ?(perms = 0o644) t path = expect_id t (Message.Create_log { path; perms })
let ensure_log ?(perms = 0o644) t path = expect_id t (Message.Ensure_log { path; perms })
let resolve t path = expect_id t (Message.Resolve path)

let path_of t id =
  let* r = call t (Message.Path_of id) in
  match r with Message.R_path p -> Ok p | _ -> protocol_error

let list_logs t path =
  let* r = call t (Message.List_dir path) in
  match r with Message.R_dir ds -> Ok ds | _ -> protocol_error

let set_perms t ~log perms = expect_unit t (Message.Set_perms { log; perms })

let force t = expect_unit t Message.Force

let append_batch ?(force = false) t items =
  if items = [] then Ok []
  else
    let* r = call t (Message.Append_batch { force; items }) in
    match r with Message.R_timestamps ts -> Ok ts | _ -> protocol_error

(* A single append is a batch of one. *)
let append ?(extra_members = []) ?(force = false) t ~log data =
  let* ts = append_batch ~force t [ { Message.log; extra_members; data } ] in
  match ts with [ ts ] -> Ok ts | _ -> protocol_error

let open_cursor t ~log whence =
  let* id = expect_id t (Message.Open_cursor { log; whence }) in
  Ok { client = t; id; seq = 0 }

let close_cursor c = expect_unit c.client (Message.Close_cursor c.id)

let default_chunk_entries = 128
let default_chunk_bytes = 256 * 1024

let chunk_of c ~max_entries ~max_bytes =
  { Message.cursor = c.id; seq = c.seq; max_entries; max_bytes }

let chunk_call c req =
  let* r = call c.client req in
  match r with
  | Message.R_entries { entries; seq; eof } ->
    c.seq <- seq;
    Ok (entries, eof)
  | _ -> protocol_error

let next_chunk ?(max_entries = default_chunk_entries) ?(max_bytes = default_chunk_bytes) c =
  chunk_call c (Message.Next_chunk (chunk_of c ~max_entries ~max_bytes))

let prev_chunk ?(max_entries = default_chunk_entries) ?(max_bytes = default_chunk_bytes) c =
  chunk_call c (Message.Prev_chunk (chunk_of c ~max_entries ~max_bytes))

(* A single step is a chunk of one. *)
let first_of (entries, _eof) = match entries with e :: _ -> Some e | [] -> None
let next c = Result.map first_of (next_chunk ~max_entries:1 c)
let prev c = Result.map first_of (prev_chunk ~max_entries:1 c)

let with_cursor t ~log whence f =
  let* c = open_cursor t ~log whence in
  match f c with
  | Ok v ->
    let* () = close_cursor c in
    Ok v
  | Error _ as e ->
    (try ignore (close_cursor c) with _ -> ());
    e
  | exception exn ->
    (try ignore (close_cursor c) with _ -> ());
    raise exn

let entry_at_or_after t ~log ts = expect_entry t (Message.Entry_at_or_after { log; ts })
let entry_before t ~log ts = expect_entry t (Message.Entry_before { log; ts })

let fold_entries ?chunk_entries ?chunk_bytes t ~log ~init f =
  with_cursor t ~log Message.From_start (fun c ->
      let rec go acc =
        let* entries, eof = next_chunk ?max_entries:chunk_entries ?max_bytes:chunk_bytes c in
        let acc = List.fold_left f acc entries in
        if eof then Ok acc else go acc
      in
      go init)
