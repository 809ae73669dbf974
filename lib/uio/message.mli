(** The client-server message protocol.

    The paper's Clio is reached through the V-System's uniform I/O
    interface: "log files are named using the standard file directory
    mechanism, and are accessed and managed using the same I/O and utility
    routines that are used to access and manage conventional files" — i.e.
    clients talk to the log server over IPC. This module is that protocol:
    a binary request/response codec covering the whole public surface
    (naming, appending, cursors, time search), so a client needs only a
    transport, not the server's address space.

    {b One protocol.} The paper measures 0.5–3 ms of raw IPC per
    operation (section 3.2); the protocol amortizes it with fewer, bigger
    round trips, and a single operation is simply the smallest batch:
    - {!Append_batch} carries one or more entries (for possibly-different
      log files) in one request, applied in arrival order with at most one
      force at batch end (group commit), answered by {!R_timestamps};
    - {!Next_chunk}/{!Prev_chunk} carry an entry/byte budget and return a
      vector of entries plus a continuation token ([seq]) and an [eof]
      flag in {!R_entries};
    - every failure travels as {!R_error} carrying a typed
      {!Clio.Errors.t}.

    {b Fault tolerance.} The {!Keyed} envelope (tag 20) wraps a request
    with a client-generated idempotency key, letting a client retry after a
    lost acknowledgement without re-applying the operation — the server's
    per-connection dedup window replays the original response, original
    timestamps included. {!Client} sends every request keyed.

    {b Replication (server-to-server).} The [Repl_*] requests (tags 21–23),
    [R_repl_*] responses (tags 14–15) and error codes 17–18
    ([Not_primary]/[Stale_epoch]) are spoken between a primary's shipper
    and a replica endpoint ({!Repl} library). Because
    WORM volumes are append-only and byte-stable, replication reduces to
    streaming verbatim settled blocks plus an explicitly-marked volatile
    tail image; every message carries the sender's epoch so a deposed
    primary is fenced with [Stale_epoch]. A plain server answers them
    with an error.

    Cursors are server-side state named by small integers, as V-style
    file-access protocols did; the chunk [seq] makes their continuation
    tokens single-use, so a stale or replayed token is detected
    ([Errors.Cursor_expired]) instead of silently misreading. *)

type whence = From_start | From_end | From_time of int64

(** One entry of an {!Append_batch} request. *)
type batch_item = {
  log : Clio.Ids.logfile;
  extra_members : Clio.Ids.logfile list;
  data : string;
}

(** A chunked cursor-read request: [cursor] and [seq] form the continuation
    token returned by the previous {!R_entries}; [max_entries]/[max_bytes]
    bound the reply (the server always returns at least one entry unless at
    end). *)
type chunk = { cursor : int; seq : int; max_entries : int; max_bytes : int }

(** A directory-listing row: the child's id, full path, permissions and
    number of direct sublogs (directory entries). Used by both the RPC
    client and the CLI. *)
type dir_entry = {
  id : Clio.Ids.logfile;
  path : string;
  perms : int;
  entry_count : int;
}

type request =
  | Create_log of { path : string; perms : int }
  | Ensure_log of { path : string; perms : int }
  | Resolve of string
  | Path_of of Clio.Ids.logfile
  | Set_perms of { log : Clio.Ids.logfile; perms : int }
  | Force
  | Open_cursor of { log : Clio.Ids.logfile; whence : whence }
  | Close_cursor of int
  | Entry_at_or_after of { log : Clio.Ids.logfile; ts : int64 }
  | Entry_before of { log : Clio.Ids.logfile; ts : int64 }
  | Append_batch of { force : bool; items : batch_item list }
      (** group commit — one force at batch end at most *)
  | Next_chunk of chunk  (** budgeted forward read *)
  | Prev_chunk of chunk  (** budgeted backward read *)
  | List_dir of string  (** listing with {!dir_entry} rows *)
  | Keyed of { key : int64; req : request }
      (** idempotency envelope. [key] is a client-generated identifier
          for the enclosed request; the server remembers a bounded window of
          (key → response) per connection, so a retry of the same key — sent
          because the first ack was lost — replays the original response
          (same timestamps, nothing applied twice). Never nested. *)
  | Repl_frontier of { epoch : int }
      (** replication: frontier exchange. The replica answers
          {!R_repl_frontier} with its per-volume settled frontiers, so the
          shipper knows exactly which gap to stream. *)
  | Repl_blocks of {
      epoch : int;
      seq_uid : int64;
      vol_index : int;
      first_block : int;
      blocks : string list;
    }
      (** replication: a run of settled device blocks of volume
          [vol_index], verbatim bytes (invalidated all-ones blocks
          included), [blocks] occupying indices [first_block, first_block +
          length blocks). Application is idempotent: the replica skips
          blocks below its frontier and answers {!R_repl_ack}, so
          duplicated or re-sent shipments burn nothing twice. *)
  | Repl_tail of {
      epoch : int;
      seq_uid : int64;
      vol_index : int;
      block : int;
      image : string;
    }
      (** replication: the primary's volatile tail, explicitly marked as
          such — a forced block image destined for the still-unwritten
          [block]. A fully caught-up replica stages it in NVRAM (where
          promotion-time recovery replays it); a lagging replica ignores it
          and acks its unchanged frontier. *)

type entry = {
  log : Clio.Ids.logfile;
  timestamp : int64 option;
  payload : string;
}

type response =
  | R_unit
  | R_id of int
  | R_path of string
  | R_entry of entry option
  | R_timestamps of int64 option list  (** one per {!batch_item}, in order *)
  | R_entries of { entries : entry list; seq : int; eof : bool }
      (** chunk payload plus the next continuation token; [eof] means the
          cursor saw the end (resp. start) of the log *)
  | R_error of Clio.Errors.t  (** every failure, typed *)
  | R_dir of dir_entry list
  | R_repl_frontier of { epoch : int; seq_uid : int64; vols : (int * int) list }
      (** replication: the replica's epoch, the volume-sequence uid it
          holds ([0L] when empty) and one (vol_index, settled frontier)
          pair per volume it has. *)
  | R_repl_ack of { epoch : int; vol_index : int; next_block : int }
      (** replication: cumulative acknowledgement — every block of
          [vol_index] below [next_block] is settled on the replica. Doubles
          as the NACK for a shipment that would leave a gap: the replica
          answers its unchanged frontier, telling the shipper where to
          restart. *)

val encode_request : request -> string
val decode_request : string -> (request, Clio.Errors.t) result
val encode_response : response -> string
val decode_response : string -> (response, Clio.Errors.t) result

val dir_entries : Clio.Server.t -> string -> (dir_entry list, Clio.Errors.t) result
(** The directory view both the RPC dispatcher and the CLI render: children
    of [path] (internal files excluded) with full paths and sublog counts. *)
