(** Read-path memoization: entrymap entries and a per-log skip index of
    confirmed block positions.

    Everything below the active volume's frontier is write-once, so a locate
    descent's work product is immutable fact: "the level-[l] entrymap entry
    at boundary [b] decodes to [e]", "the first block ≥ [f] holding entries
    of log [L] is [b]". This module caches those facts so a warm repeated
    locate touches no device blocks at all (the paper's section 3.3 "fully
    cached" row) and so cursors can predict — and batch-prefetch — the
    blocks they are about to visit.

    Staleness has exactly one source on write-once media: invalidation
    (0xFF burn). Each volume carries a generation counter bumped on every
    invalidate; memo entries are stamped with the generation at store time
    and dropped on first contact when it has moved. Callers are responsible
    for only storing facts about {e settled} (below-frontier) blocks — the
    open tail keeps changing and must never enter the memo. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 8192) bounds each internal table; oldest facts are
    evicted first. *)

val clear : t -> unit
(** Forget everything (cold-read experiments). *)

val resident : t -> int
(** Total memoized facts, for metrics export. *)

(** {1 Entrymap entry memo} *)

val find_entry : t -> vol:int -> level:int -> boundary:int -> gen:int -> string option option
(** [Some (Some p)] — the entry in its on-medium encoding [p]; [Some None]
    — boundary known to have no (reachable) entry; [None] — not memoized. *)

val store_entry : t -> vol:int -> level:int -> boundary:int -> gen:int -> string option -> unit

(** {1 Skip index (confirmed locate results)} *)

val find_next : t -> vol:int -> log:Ids.logfile -> from:int -> gen:int -> int option
val store_next : t -> vol:int -> log:Ids.logfile -> from:int -> gen:int -> int -> unit

val find_prev :
  t -> vol:int -> log:Ids.logfile -> limit:int -> frontier:int -> gen:int -> int option
(** Keyed by the effective search limit {e and} the device frontier: a tail
    flush settles a new block without necessarily moving the written limit,
    and must invalidate pre-flush links. *)

val store_prev :
  t -> vol:int -> log:Ids.logfile -> limit:int -> frontier:int -> gen:int -> int -> unit

(** {1 Read-ahead prediction} *)

val predict_next : t -> vol:int -> log:Ids.logfile -> from:int -> gen:int -> k:int -> int list
(** Up to [k] confirmed blocks of [log] at or after [from], by chaining
    stored next-links; empty when the chain is unknown. *)

val predict_prev :
  t -> vol:int -> log:Ids.logfile -> before:int -> frontier:int -> gen:int -> k:int -> int list
(** Up to [k] confirmed blocks of [log] strictly before [before], newest
    first, by chaining stored prev-links. *)
