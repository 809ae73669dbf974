(** The append path.

    Responsibilities (sections 2.1–2.3):
    - pack entry records into the in-memory tail block, fragmenting entries
      that overflow a block (continuation records);
    - guarantee the first entry that starts in each block carries a
      timestamp (the block's time-search key);
    - emit entrymap log entries when a block opens at an N^l boundary;
    - flush full blocks to the device, skipping and logging bad blocks
      (invalidate + bad-block log, section 2.3.2);
    - seal a full volume and continue seamlessly on a freshly allocated
      successor, re-logging a catalog snapshot so the new volume is
      self-describing (section 2.1, volume sequences);
    - implement forced writes two ways: burn a padded partial block on pure
      WORM, or stage the tail in battery-backed RAM (section 2.3.1). *)

val init_sequence : State.t -> (unit, Errors.t) result
(** Allocates volume 0, writes its header and the (empty) catalog snapshot.
    The state must have no volumes attached. *)

val append_entry : State.t -> header:Header.t -> string -> (unit, Errors.t) result
(** Appends one logical entry to the active volume, fragmenting as needed.
    The header's timestamp (if any) must come from {!State.fresh_ts}. *)

val append_batch :
  State.t ->
  (Ids.logfile * Ids.logfile list * string) list ->
  (int64 option list, Errors.t) result
(** [append_batch st [(log, extra_members, payload); ...]] stages every
    entry of the batch, in arrival order, into the shared tail block under
    one observability span, stamping each entry as it is staged (so the
    on-media bytes match the same entries appended one by one). Returns the
    assigned timestamps. Group commit: the caller forces at most once, after
    the whole batch. Stops at the first staging error; entries staged before
    the failure remain staged. *)

val force : State.t -> (unit, Errors.t) result
(** Make everything appended so far durable: NVRAM staging when configured,
    otherwise a padded synchronous block write. *)

val flush_tail : ?forced:bool -> State.t -> Vol.t -> (unit, Errors.t) result
(** Push the open tail block to the device (used by [force] and internally
    when a block fills). No-op on an empty tail. *)

val log_catalog_op : State.t -> Catalog.op -> (unit, Errors.t) result
(** Apply a catalog change to the in-memory table and record it in the
    catalog log file ("any change to these attributes is also logged",
    section 2.2). *)

val replay_carry : State.t -> Block_format.record array -> (unit, Errors.t) result
(** Re-append previously parsed records verbatim (same headers, same
    continuation structure) — used when recovery restores the tail from
    NVRAM and when a volume roll carries unflushed records forward. *)
