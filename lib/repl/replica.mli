(** A read replica of one Clio volume sequence.

    The replica owns a set of raw WORM devices written {e only} by applying
    the primary's shipments ({!Shipper}): verbatim settled blocks, in
    order, at the primary's indices — so its storage is byte-identical to
    the primary's up to the shipped frontier. Serving reads is then just
    recovery, run continuously: one {!Clio.Server.t} for the replica's
    whole life, caught up in place ({!Clio.Server.catch_up}) on the first
    client request after a shipment, so its cache, locate memo, catalog
    and open client cursors survive. The server carries the [Replica]
    role, so every mutating request answers [Errors.Not_primary] with the
    primary's address, while reads, locate and time search work locally.

    {b Epochs and failover.} Every replication message carries the sender's
    epoch. {!promote} catches up once more (replaying the staged tail, so
    every append the old primary acknowledged durably is served) and makes
    that same server the primary at the next epoch. From then on the
    deposed primary's shipments answer [Errors.Stale_epoch]; on seeing it
    the old primary fences itself (see {!Shipper}). A shipment carrying a
    {e newer} epoch re-demotes a promoted replica. *)

type t

val create :
  ?config:Clio.Config.t ->
  ?nvram:Worm.Nvram.t ->
  clock:Sim.Clock.t ->
  alloc:(vol_index:int -> (Worm.Block_io.t, Clio.Errors.t) result) ->
  primary_hint:string ->
  unit ->
  t
(** An empty replica. [alloc] hands out the raw device that will back each
    new volume (called when a shipment opens a new volume index, or when
    the promoted replica's own writer rolls over);
    [primary_hint] is the redirect address embedded in [Not_primary]
    refusals. [nvram] stages the primary's volatile tail between catch-ups —
    without it, tail shipments are acknowledged but not retained. Raises
    [Invalid_argument] if [config] fails {!Clio.Config.validate}. *)

val handler : t -> string -> string
(** The replica's wire endpoint, suitable for [Transport.local]: [Repl_*]
    requests are applied directly (epoch-gated); everything else catches
    the server up and goes to the embedded RPC dispatcher. Total. *)

val server : t -> (Clio.Server.t, Clio.Errors.t) result
(** The replica's one server, caught up with everything applied so far
    (no read when nothing arrived). Fails while it holds no volumes. *)

val promote : t -> (Clio.Server.t, Clio.Errors.t) result
(** Fail over to this replica: catch the server up (replaying the staged
    tail), mint epoch+1 and assert the [Primary] role on that same server.
    It accepts writes from then on; subsequent shipments from the deposed
    primary are refused with [Stale_epoch]. *)

(** {1 Introspection} *)

val epoch : t -> int
val nvols : t -> int

val device : t -> int -> Worm.Block_io.t option
(** The raw device of volume [i] (tests compare these byte-for-byte with
    the primary's). *)

val blocks_applied : t -> int
(** Lifetime settled blocks applied; this and the two below read [Stats]. *)

val tail_applies : t -> int
val epoch_rejects : t -> int
