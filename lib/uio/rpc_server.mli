(** Server-side dispatcher: decodes requests, runs them against a
    {!Clio.Server.t}, encodes responses.

    One [t] per connection — it holds peer state: the cursor table and the
    dedup window. Cursors live in a bounded LRU (capacity [max_cursors]):
    opening one past the cap evicts the least-recently-used, whose id then
    answers [Errors.Cursor_expired] — no more leaking until the server dies,
    as in the V-System era. Every failure is answered with a typed
    [R_error].

    {b Idempotent retries.} A [Message.Keyed] request is answered from
    a bounded per-connection dedup window when its key was seen before: the
    cached {e encoded} response is replayed byte-for-byte (original
    timestamps included) and the operation is not re-run. The window holds
    the last [dedup_window] keys (FIFO); replays bump the [rpc_dedup_hits]
    counter. *)

type t

val default_max_cursors : int
(** 64. *)

val default_dedup_window : int
(** 256. *)

val create : ?max_cursors:int -> ?dedup_window:int -> Clio.Server.t -> t
(** [dedup_window] bounds the idempotency-key replay cache; [0] disables
    dedup entirely (every keyed request re-runs). *)

val server : t -> Clio.Server.t

val set_server : t -> Clio.Server.t -> unit
(** Swap in a server recovered after a crash restart of the one this
    endpoint served. All cursors are dropped — their ids answer
    [Cursor_expired], as after a reboot — while the dedup window survives,
    because the connection itself never went away. *)

val handle : t -> string -> string
(** Total: malformed requests and failed operations come back as
    [R_error]; [handle] never raises. *)

val open_cursors : t -> int

val dedup_entries : t -> int
(** Live keys in the dedup window (for tests and introspection). *)
