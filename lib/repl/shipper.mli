(** Primary-side replication: ships settled WORM blocks (and the volatile
    tail image) to {!Replica} endpoints over any {!Uio.Transport}.

    One {!sync} pass per peer does a frontier exchange, streams the settled
    gap in [Config.repl_batch_blocks]-sized batches of verbatim device
    blocks, and — once the peer has no settled gap — ships the current tail
    image, explicitly marked volatile ([Repl_tail]). Retries are safe by
    construction (the replica's apply is idempotent), so the shipper
    resends through timeouts and disconnects with bounded attempts and
    clock-charging backoff.

    {b Fencing.} A [Stale_epoch] refusal means some replica was promoted
    past us: the shipper marks the peer fenced and demotes its own server
    to the [Fenced] role, after which every local write answers
    [Not_primary] naming the peer that outranked us. *)

type t

val create :
  ?max_attempts:int ->
  ?backoff_us:int64 ->
  Clio.Server.t ->
  (string * Uio.Transport.t) list ->
  t
(** [create srv peers] ships [srv]'s volume sequence to each named peer
    transport. [max_attempts] (default 30) bounds resends per request;
    [backoff_us] (default 500) scales the linear inter-attempt backoff
    charged to the transport's clock. *)

val sync : t -> unit
(** One replication pass over every live peer; updates the primary's
    [repl_*] counters and the [repl_lag_blocks] gauge (worst peer). A no-op
    once the server is no longer primary. *)

val reshipped : t -> int
(** Settled blocks re-sent below a peer's highest {e received} ack —
    genuinely redundant wire work. Stays 0 under any fault schedule:
    lost-ack retries do not count (no ack was received), and the frontier
    exchange resumes exactly at the replica's ack. *)

val fenced_peers : t -> string list
