(** Locating log entries by time (section 2.1).

    "The server uses a tree search, based on the timestamps in the log entry
    headers. A header timestamp is mandatory for the first log entry in each
    block, so the search succeeds to a resolution of at least a single
    block. At the upper levels of the tree, the search uses those blocks
    that happen to contain entrymap log entries" — i.e. the probe positions
    are the N^l multiples, which are exactly the blocks a reader is likely to
    have cached already.

    A block's key is the timestamp of the first entry that {e starts} in it
    ({!Block_format.first_timestamp}). A leading continuation belongs to an
    entry begun in an earlier block, so it is skipped rather than leaving
    the block unkeyed. The server's timestamps are strictly increasing in
    write order, so keys are monotone across blocks and across volumes. A
    probe walks forward only past blocks with no key (invalidated, corrupt,
    or holding no entry start), so a seek stays within about fanout × levels
    probes even when most blocks open with a continuation. *)

val seek : State.t -> int64 -> (Assemble.position, Errors.t) result
(** [seek st ts] returns a block-resolution position [p] such that every
    entry with timestamp ≥ [ts] starts at or after [p], and the block at [p]
    is the last one whose key is ≤ [ts] (so scanning forward
    from [p] finds the boundary exactly). If [ts] precedes everything, [p]
    is the start of the sequence. *)

val first_at_or_after :
  State.t -> log:Ids.logfile -> int64 -> (Reader.entry option, Errors.t) result
(** First entry of [log] whose timestamp is ≥ [ts] (entries without
    timestamps are attributed their block's resolution and skipped unless a
    later timestamped sibling qualifies). *)

val last_before :
  State.t -> log:Ids.logfile -> int64 -> (Reader.entry option, Errors.t) result
(** Last entry of [log] with timestamp < [ts]. *)
