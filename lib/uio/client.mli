(** Typed client stubs over a {!Transport.t} — the application's view of a
    remote log server, mirroring the {!Clio.Server} surface. Clients never
    see server internals; everything crosses the wire, with the transport
    charging the modeled IPC cost of section 3.2.

    IPC is amortized with {!append_batch} (many entries, one request, group
    commit) and chunked cursor reads ({!next_chunk}/{!prev_chunk}, which
    {!fold_entries} uses as read-ahead). The single-operation calls are the
    same messages at size one: {!append} is a batch of one entry, and
    {!next}/{!prev} are chunks of one. All results carry typed
    {!Clio.Errors.t}.

    {b Fault tolerance.} On a lossy transport, calls ride a retry loop with
    exponential backoff, jitter and a per-call deadline budget. Every
    request travels inside a [Message.Keyed] idempotency envelope, so
    resending after a lost acknowledgement cannot apply an operation twice
    — the server's dedup window replays the original response, original
    timestamps included. *)

type t

(** When and how hard to retry a call that died in transit. [max_attempts]
    caps tries per call (1 = never retry); [deadline_us] is the per-call
    time budget on the transport's clock; backoff for attempt n is
    [min (base_backoff_us * 2^n) max_backoff_us], slept as half that plus
    uniform jitter up to the other half. *)
type retry_policy = {
  max_attempts : int;
  deadline_us : int64;
  base_backoff_us : int64;
  max_backoff_us : int64;
}

val default_retry : retry_policy
(** 10 attempts, 1 s deadline, 0.5 ms base backoff capped at 64 ms. *)

val no_retry : retry_policy
(** [max_attempts = 1]: every transport fault surfaces immediately. *)

(** Client-side resilience counters, live (same record the client
    mutates). *)
type stats = {
  mutable retries : int;  (** resends beyond each call's first attempt *)
  mutable timeouts : int;  (** attempts that ended in [Transport.Timeout] *)
  mutable disconnects : int;  (** attempts cut by [Transport.Disconnected] *)
  mutable deadline_exceeded : int;  (** calls abandoned on the deadline *)
}

val connect : ?retry:retry_policy -> ?rng:Sim.Rng.t -> Transport.t -> t
(** Bind a client to a transport; no round trip is made. [retry] (default
    {!default_retry}) governs resends; [rng] drives backoff jitter and seeds
    the idempotency keys. Retries, timeouts, disconnects and deadlines are
    counted in {!stats} only. *)

val stats : t -> stats

val redirect_hint : t -> string option
(** The primary's address from the most recent [Errors.Not_primary]
    refusal this client received (a replica rejecting a write names its
    primary). [None] until a write has been refused that way. *)

(** A remote cursor: server-side state reached by id, carrying the current
    continuation token for chunked reads. Close explicitly, or use
    {!with_cursor}; an unclosed cursor is eventually LRU-evicted by the
    server and its id answers [Errors.Cursor_expired]. *)
type cursor

val create_log : ?perms:int -> t -> string -> (Clio.Ids.logfile, Clio.Errors.t) result
val ensure_log : ?perms:int -> t -> string -> (Clio.Ids.logfile, Clio.Errors.t) result
val resolve : t -> string -> (Clio.Ids.logfile, Clio.Errors.t) result
val path_of : t -> Clio.Ids.logfile -> (string, Clio.Errors.t) result

val list_logs : t -> string -> (Message.dir_entry list, Clio.Errors.t) result
(** Children of a log file as {!Message.dir_entry} rows (id, full path,
    perms, sublog count). *)

val set_perms : t -> log:Clio.Ids.logfile -> int -> (unit, Clio.Errors.t) result

val append :
  ?extra_members:Clio.Ids.logfile list ->
  ?force:bool ->
  t ->
  log:Clio.Ids.logfile ->
  string ->
  (int64 option, Clio.Errors.t) result
(** One entry: an {!append_batch} of one. *)

val append_batch :
  ?force:bool -> t -> Message.batch_item list -> (int64 option list, Clio.Errors.t) result
(** Send many entries — possibly for different log files — in one request,
    applied in arrival order; [force] commits the whole batch with a single
    durability point at batch end (group commit: N appends share one block
    flush instead of N). Returns one timestamp per item, in order. *)

val force : t -> (unit, Clio.Errors.t) result

val open_cursor :
  t -> log:Clio.Ids.logfile -> Message.whence -> (cursor, Clio.Errors.t) result

val with_cursor :
  t ->
  log:Clio.Ids.logfile ->
  Message.whence ->
  (cursor -> ('a, Clio.Errors.t) result) ->
  ('a, Clio.Errors.t) result
(** Bracket: opens a cursor, runs the body, and guarantees [close_cursor] —
    on normal return, on [Error], and on exception. *)

val next : cursor -> (Message.entry option, Clio.Errors.t) result
(** One step forward: a {!next_chunk} of one entry. *)

val prev : cursor -> (Message.entry option, Clio.Errors.t) result
val close_cursor : cursor -> (unit, Clio.Errors.t) result

val default_chunk_entries : int
(** 128. *)

val default_chunk_bytes : int
(** 256 KiB. *)

val next_chunk :
  ?max_entries:int ->
  ?max_bytes:int ->
  cursor ->
  (Message.entry list * bool, Clio.Errors.t) result
(** One budgeted read: up to [max_entries] entries and roughly [max_bytes]
    payload bytes in a single round trip. The [bool] is end-of-log; until
    it is true, call again to continue (the continuation token advances
    inside the cursor). *)

val prev_chunk :
  ?max_entries:int ->
  ?max_bytes:int ->
  cursor ->
  (Message.entry list * bool, Clio.Errors.t) result

val entry_at_or_after :
  t -> log:Clio.Ids.logfile -> int64 -> (Message.entry option, Clio.Errors.t) result

val entry_before :
  t -> log:Clio.Ids.logfile -> int64 -> (Message.entry option, Clio.Errors.t) result

val fold_entries :
  ?chunk_entries:int ->
  ?chunk_bytes:int ->
  t ->
  log:Clio.Ids.logfile ->
  init:'a ->
  ('a -> Message.entry -> 'a) ->
  ('a, Clio.Errors.t) result
(** Forward fold streaming through chunked reads: ceil(n / chunk) round
    trips for n entries instead of the V-era one RPC per entry, with the
    cursor bracketed by {!with_cursor}. *)
