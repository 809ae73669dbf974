(** Error-budget circuit breaker guarding the server's write paths.

    The paper's media-failure handling (section 2.3.2) invalidates a bad
    block and retries — the right move for the occasional damaged spot on
    otherwise-healthy media. A device that keeps failing is different:
    every retry burns another block of write-once space, and an
    unfixable block (one that rejects even its invalidation write) pins
    the frontier forever. The breaker bounds that damage: each device
    error surfacing from the write path spends one unit of error budget;
    when [threshold] units are spent the breaker {e trips} and the server
    enters degraded (read-only) mode — writes answer [Errors.Degraded]
    while reads, locate, and timestamp search keep working. An operator
    inspects and resets it via [clio admin breaker] (or {!reset} through
    the server API), typically after swapping the device or salvaging to
    fresh media.

    Its counts and state are exported once, as the [breaker] section of
    the server's metrics ({!to_json}). *)

type state = Closed | Open

type t

val create : threshold:int -> unit -> t
(** [threshold] device errors trip the breaker; [threshold <= 0] disables
    tripping (errors are still counted). *)

val state : t -> state
val is_open : t -> bool
val enabled : t -> bool

val record_error : t -> unit
(** Spend one unit of error budget; trips the breaker when spent units
    reach the threshold. *)

val record_rejected : t -> unit
(** Count one write refused while open. *)

val trip : t -> unit
(** Force the breaker open (operator/test hook). Idempotent. *)

val reset : t -> unit
(** Close the breaker and restore the full error budget. *)

val errors : t -> int
(** Budget units spent since the last {!reset}. *)

val total_errors : t -> int
(** Device errors observed over the server's lifetime. *)

val trips : t -> int
val rejected : t -> int
val threshold : t -> int

val state_name : t -> string
(** ["closed"] or ["open"]. *)

val to_json : t -> Obs.Json.t
val pp : Format.formatter -> t -> unit
