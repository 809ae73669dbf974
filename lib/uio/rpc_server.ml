(* One [t] per connection: the cursor table, the continuation sequence
   numbers and the idempotency-key dedup window are all peer state. *)

type slot = { cur : Clio.Reader.cursor; mutable seq : int }

type t = {
  mutable srv : Clio.Server.t;
  max_cursors : int;
  mutable cursors : slot Blockcache.Lru.t;
  mutable next_cursor : int;
  dedup_capacity : int;
  dedup : (int64, string) Hashtbl.t;  (** idempotency key -> encoded response *)
  dedup_order : int64 Queue.t;  (** FIFO of live keys, oldest first *)
  mutable h_rpc : Obs.Histogram.t;
  mutable c_requests : Obs.Metrics.counter;
  mutable c_errors : Obs.Metrics.counter;
  mutable c_evicted : Obs.Metrics.counter;
  mutable c_dedup : Obs.Metrics.counter;
}

let default_max_cursors = 64
let default_dedup_window = 256

let create ?(max_cursors = default_max_cursors) ?(dedup_window = default_dedup_window) srv =
  let m = Clio.Server.metrics srv in
  {
    srv;
    max_cursors = max 1 max_cursors;
    cursors = Blockcache.Lru.create ~capacity:(max 1 max_cursors);
    next_cursor = 1;
    dedup_capacity = max 0 dedup_window;
    dedup = Hashtbl.create 64;
    dedup_order = Queue.create ();
    h_rpc = Obs.Metrics.histogram m "rpc_us";
    c_requests = Obs.Metrics.counter m "rpc_requests";
    c_errors = Obs.Metrics.counter m "rpc_errors";
    c_evicted = Obs.Metrics.counter m "rpc_cursors_evicted";
    c_dedup = Obs.Metrics.counter m "rpc_dedup_hits";
  }

let server t = t.srv

(* Swap in a server recovered after a crash restart. Cursors point into
   the old server's volumes, so they are all dropped — a reader sees
   [Cursor_expired] and reopens, exactly as after a server reboot. The
   dedup window survives: the connection itself never went away. Metric
   handles are re-resolved because the new server carries a fresh
   registry. *)
let set_server t srv =
  let m = Clio.Server.metrics srv in
  t.srv <- srv;
  t.cursors <- Blockcache.Lru.create ~capacity:t.max_cursors;
  t.h_rpc <- Obs.Metrics.histogram m "rpc_us";
  t.c_requests <- Obs.Metrics.counter m "rpc_requests";
  t.c_errors <- Obs.Metrics.counter m "rpc_errors";
  t.c_evicted <- Obs.Metrics.counter m "rpc_cursors_evicted";
  t.c_dedup <- Obs.Metrics.counter m "rpc_dedup_hits"

let rec request_name : Message.request -> string = function
  | Message.Keyed { req; _ } -> request_name req
  | Message.Create_log _ -> "rpc.create_log"
  | Message.Ensure_log _ -> "rpc.ensure_log"
  | Message.Resolve _ -> "rpc.resolve"
  | Message.Path_of _ -> "rpc.path_of"
  | Message.Set_perms _ -> "rpc.set_perms"
  | Message.Force -> "rpc.force"
  | Message.Open_cursor _ -> "rpc.open_cursor"
  | Message.Close_cursor _ -> "rpc.close_cursor"
  | Message.Entry_at_or_after _ -> "rpc.entry_at_or_after"
  | Message.Entry_before _ -> "rpc.entry_before"
  | Message.Append_batch _ -> "rpc.append_batch"
  | Message.Next_chunk _ -> "rpc.next_chunk"
  | Message.Prev_chunk _ -> "rpc.prev_chunk"
  | Message.List_dir _ -> "rpc.list_dir"
  | Message.Repl_frontier _ -> "rpc.repl_frontier"
  | Message.Repl_blocks _ -> "rpc.repl_blocks"
  | Message.Repl_tail _ -> "rpc.repl_tail"

let entry_of (e : Clio.Reader.entry) =
  {
    Message.log = e.Clio.Reader.log;
    timestamp = e.Clio.Reader.timestamp;
    payload = e.Clio.Reader.payload;
  }

let reply r f = match r with Ok v -> f v | Error e -> Message.R_error e

let register_cursor t cur =
  let id = t.next_cursor in
  t.next_cursor <- id + 1;
  (match Blockcache.Lru.add t.cursors id { cur; seq = 0 } with
  | Some _evicted -> Obs.Metrics.incr t.c_evicted
  | None -> ());
  Message.R_id id

(* A continuation token is (cursor id, seq): the id fails once the cursor
   is closed or LRU-evicted, the seq fails once a newer chunk superseded
   it, so stale and replayed tokens surface as [Cursor_expired] instead of
   silently re-reading. *)
let find_slot t (c : Message.chunk) =
  match Blockcache.Lru.find t.cursors c.Message.cursor with
  | None -> Error Clio.Errors.Cursor_expired
  | Some slot ->
    if slot.seq <> c.Message.seq then Error Clio.Errors.Cursor_expired else Ok slot

(* Pull entries until the budget is spent: at most [max_entries], stopping
   early once the accumulated payload bytes reach [max_bytes] (always
   returning at least one entry when one is available). [eof] is only set
   when the cursor actually ran off the end, so a caller can keep asking
   until then. *)
let read_chunk step slot (c : Message.chunk) =
  let max_entries = max 1 c.Message.max_entries in
  let max_bytes = max 1 c.Message.max_bytes in
  let rec go n bytes acc =
    if n >= max_entries || (n > 0 && bytes >= max_bytes) then Ok (List.rev acc, false)
    else
      match step slot.cur with
      | Error e -> if acc = [] then Error e else Ok (List.rev acc, false)
      | Ok None -> Ok (List.rev acc, true)
      | Ok (Some e) ->
        go (n + 1) (bytes + String.length e.Clio.Reader.payload) (entry_of e :: acc)
  in
  go 0 0 []

let chunk_reply t step (c : Message.chunk) =
  match find_slot t c with
  | Error e -> Message.R_error e
  | Ok slot ->
    reply (read_chunk step slot c) (fun (entries, eof) ->
        slot.seq <- slot.seq + 1;
        Message.R_entries { entries; seq = slot.seq; eof })

let rec run_inner t (req : Message.request) : Message.response =
  match req with
  | Message.Create_log { path; perms } ->
    reply (Clio.Server.create_log ~perms t.srv path) (fun id -> Message.R_id id)
  | Message.Ensure_log { path; perms } ->
    reply (Clio.Server.ensure_log ~perms t.srv path) (fun id -> Message.R_id id)
  | Message.Resolve path ->
    reply (Clio.Server.resolve t.srv path) (fun id -> Message.R_id id)
  | Message.Path_of id -> Message.R_path (Clio.Server.path_of t.srv id)
  | Message.Set_perms { log; perms } ->
    reply (Clio.Server.set_perms t.srv ~log perms) (fun () -> Message.R_unit)
  | Message.Force -> reply (Clio.Server.force t.srv) (fun () -> Message.R_unit)
  | Message.Open_cursor { log; whence } ->
    let cursor =
      match whence with
      | Message.From_start -> Ok (Clio.Server.cursor_start t.srv ~log)
      | Message.From_end -> Clio.Server.cursor_end t.srv ~log
      | Message.From_time ts -> Clio.Server.cursor_at_time t.srv ~log ts
    in
    reply cursor (register_cursor t)
  | Message.Close_cursor cid ->
    Blockcache.Lru.remove t.cursors cid;
    Message.R_unit
  | Message.Entry_at_or_after { log; ts } ->
    reply (Clio.Server.entry_at_or_after t.srv ~log ts) (fun e ->
        Message.R_entry (Option.map entry_of e))
  | Message.Entry_before { log; ts } ->
    reply (Clio.Server.entry_before t.srv ~log ts) (fun e ->
        Message.R_entry (Option.map entry_of e))
  | Message.Append_batch { force; items } ->
    let items =
      List.map
        (fun { Message.log; extra_members; data } ->
          { Clio.Server.log; extra_members; payload = data })
        items
    in
    reply (Clio.Server.append_batch ~force t.srv items) (fun ts -> Message.R_timestamps ts)
  | Message.Next_chunk c -> chunk_reply t Clio.Server.next c
  | Message.Prev_chunk c -> chunk_reply t Clio.Server.prev c
  | Message.List_dir path ->
    reply (Message.dir_entries t.srv path) (fun ds -> Message.R_dir ds)
  | Message.Repl_frontier _ | Message.Repl_blocks _ | Message.Repl_tail _ ->
    (* Replication traffic is intercepted by [Repl.Replica.handler] before
       it reaches the plain dispatcher; a shipper that reached one anyway
       is pointed at the wrong endpoint. *)
    Message.R_error (Clio.Errors.Bad_record "replication message sent to a non-replica endpoint")
  | Message.Keyed { req; _ } ->
    (* Unreachable through [handle], which unwraps the envelope to consult
       the dedup window first; kept total for direct [run] callers. *)
    run_inner t req

(* Every request gets an rpc span (the op's own span nests under it), a
   latency sample and a request count; error replies are counted too. *)
let run t (req : Message.request) : Message.response =
  Obs.Metrics.incr t.c_requests;
  let response =
    Obs.time (Clio.Server.obs t.srv) t.h_rpc (request_name req) (fun () -> run_inner t req)
  in
  (match response with
  | Message.R_error _ -> Obs.Metrics.incr t.c_errors
  | _ -> ());
  response

let run_safe t req =
  try run t req with exn -> Message.R_error (Clio.Errors.Remote (Printexc.to_string exn))

(* The dedup window remembers the encoded response of the last
   [dedup_capacity] keyed requests (FIFO). A key is recorded once — the
   response a retry replays is byte-for-byte the first one, even if a
   concurrent duplicate raced in between. *)
let dedup_store t key resp =
  if t.dedup_capacity > 0 && not (Hashtbl.mem t.dedup key) then begin
    Hashtbl.replace t.dedup key resp;
    Queue.push key t.dedup_order;
    if Hashtbl.length t.dedup > t.dedup_capacity then begin
      let oldest = Queue.pop t.dedup_order in
      Hashtbl.remove t.dedup oldest
    end
  end

let handle t raw =
  match Message.decode_request raw with
  | Error e -> Message.encode_response (Message.R_error e)
  | Ok (Message.Keyed { key; req }) -> (
    match Hashtbl.find_opt t.dedup key with
    | Some cached ->
      Obs.Metrics.incr t.c_dedup;
      cached
    | None ->
      let resp = Message.encode_response (run_safe t req) in
      dedup_store t key resp;
      resp)
  | Ok req -> Message.encode_response (run_safe t req)

let open_cursors t = Blockcache.Lru.length t.cursors
let dedup_entries t = Hashtbl.length t.dedup
