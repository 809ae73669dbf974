(** Request/response transports.

    The paper measures its writes through the V-System IPC: "0.5 ms-1 ms
    were taken up by the basic synchronous client-server IPC (write)
    operation. The corresponding time for an IPC operation between
    different workstations is 2.5 ms-3 ms." A transport carries one
    request's bytes to a handler and the response's bytes back, charging a
    modeled round-trip cost against a simulated clock, so benches can put
    the paper's IPC constants back into the totals — and so the
    fewer-round-trips win of batching is directly measurable.

    {b Fault injection.} {!lossy} wraps any transport in a deterministic
    chaos layer driven by a {!Sim.Rng.t}: requests and responses get
    dropped, duplicated, delayed past the patience window or cut by a
    connection reset, surfacing to the caller as {!Timeout} /
    {!Disconnected}. Equal seeds give equal fault schedules, so every chaos
    failure is replayable. *)

exception Timeout
(** The request or its response was lost (or arrived past the patience
    window). Whether the operation was applied is {e unknown} — exactly the
    ambiguity idempotency keys resolve. *)

exception Disconnected
(** Connection reset before the request was delivered. *)

type t

(** Accounting snapshot: round trips and bytes both ways since creation.
    An attempt that dies in flight still counts its round trip and request
    bytes; only [bytes_received] requires an actual response. *)
type counters = { round_trips : int; bytes_sent : int; bytes_received : int }

(** Faults injected so far by a {!lossy} transport. [dropped_responses]
    counts applied-but-ack-lost outcomes (including delays past the
    patience window); [delays] counts every delay fault, late or not. *)
type fault_counts = {
  mutable dropped_requests : int;
  mutable dropped_responses : int;
  mutable duplicates : int;
  mutable delays : int;
  mutable resets : int;
}

(** Per-call fault probabilities (independent draws, checked in the order
    reset, drop-request, then post-delivery duplicate / delay /
    drop-response), the client patience window [timeout_us], and the delay
    bound [max_delay_us] (a delay > [timeout_us] becomes a dropped
    response). *)
type lossy_config = {
  drop_request : float;
  drop_response : float;
  duplicate : float;
  delay : float;
  reset : float;
  timeout_us : int64;
  max_delay_us : int64;
}

val default_lossy : lossy_config
(** 5% drop each way, 5% duplicate, 5% delay (≤ 25 ms), 2% reset, 10 ms
    patience — harsh enough that a few hundred calls see every fault
    kind. *)

val local :
  ?latency_us:int64 -> clock:Sim.Clock.t -> (string -> string) -> t
(** In-process loopback to [handler], charging [latency_us] (default 0)
    per round trip. Use 500–1000 for the paper's same-machine IPC, and
    2500–3000 for its cross-workstation IPC. *)

val lossy : ?config:lossy_config -> rng:Sim.Rng.t -> t -> t
(** [lossy ~rng inner] is [inner] behind the chaos layer. A duplicate
    delivers the request to [inner] twice (both charged to [inner]'s
    counters); drops and late delays raise {!Timeout} after advancing the
    clock by the patience window, resets raise {!Disconnected} before
    delivery. Each fault kind is counted in {!faults} only. *)

val call : t -> string -> string
(** May raise {!Timeout} / {!Disconnected} on a {!lossy} transport. *)

val counters : t -> counters
val diff : after:counters -> before:counters -> counters
(** [diff ~after ~before] is the accounting delta between two snapshots —
    what a specific operation cost on the wire. *)

val latency_us : t -> int64
val clock : t -> Sim.Clock.t
(** The clock this transport charges — retry backoff advances it so waiting
    takes simulated time too. *)

val round_trips : t -> int
val bytes_sent : t -> int
val bytes_received : t -> int

val faults : t -> fault_counts option
(** [Some] on a {!lossy} transport, [None] otherwise. *)

val total_faults : t -> int
(** Sum over {!fault_counts}; [0] for non-lossy transports. *)
