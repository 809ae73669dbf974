(** Error type shared by the whole log service. *)

type t =
  | Device of Worm.Block_io.error  (** propagated from the log device *)
  | Corrupt_block of int  (** checksum mismatch — section 2.3.2 data loss *)
  | Bad_record of string  (** malformed record or payload *)
  | No_such_log of string
  | Log_exists of string
  | Invalid_name of string
  | Catalog_full  (** all 4095 log-file ids are in use *)
  | Entry_too_large of int
  | Volume_offline of int  (** entry lives on a volume that is not mounted *)
  | Sequence_full  (** no successor volume could be allocated *)
  | No_entry  (** search found nothing *)
  | Cursor_expired
      (** an RPC cursor or continuation token no longer names live server
          state (closed, LRU-evicted, or superseded by a newer token) *)
  | Remote of string
      (** an error without a typed encoding — an exception in the RPC
          dispatcher, or a wire error code this build does not know *)
  | Degraded
      (** the server's error-budget breaker is open: writes are refused
          until an operator resets it (reads keep working) *)
  | Timeout
      (** a request or its response was lost in transit and the per-call
          deadline budget ran out before a retry succeeded *)
  | Disconnected
      (** the transport reset mid-call; whether the request was applied is
          unknown unless the call carried an idempotency key *)
  | Not_primary of string
      (** a write reached a replica (or a fenced ex-primary); the payload is
          a redirect hint naming the primary, empty when unknown *)
  | Stale_epoch of int
      (** a replication message carried an epoch older than the one the
          receiver has seen; the payload is the receiver's current epoch.
          This is the fencing signal: a deposed primary's shipments are
          refused with it *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val ( let* ) : ('a, t) result -> ('a -> ('b, t) result) -> ('b, t) result
(** Result bind, used pervasively in the implementation. *)

val of_dev : ('a, Worm.Block_io.error) result -> ('a, t) result
