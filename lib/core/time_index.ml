let ( let* ) = Errors.( let* )

(* Key of block [idx] (its first entry start's timestamp), walking forward
   past blocks that cannot answer: invalidated, corrupt, or holding no entry
   start (one fragment of a larger entry).
   Every probe is counted: these are the reads Table 1's search performs. *)
let first_ts_resolved st v ~limit idx =
  let rec go i =
    if i >= limit then None
    else begin
      st.State.stats.Stats.time_probe_reads <- st.State.stats.Stats.time_probe_reads + 1;
      match Vol.first_timestamp v i with Some ts -> Some ts | None -> go (i + 1)
    end
  in
  go idx

(* Largest block in [1, limit) whose key is <= ts, by N-ary
   descent probing multiples of N^(level-1) — the entrymap block positions. *)
let descend_volume st v ts =
  let limit = Vol.written_limit v in
  let rec descend level lo =
    if level = 0 then lo
    else begin
      let span = Vol.pow_fanout v (level - 1) in
      let rec walk best k =
        let cand = lo + (k * span) in
        if k > Vol.fanout v || cand >= limit then best
        else
          match first_ts_resolved st v ~limit cand with
          | None -> best
          | Some t -> if Int64.compare t ts <= 0 then walk cand (k + 1) else best
      in
      descend (level - 1) (walk lo 1)
    end
  in
  descend (Vol.levels v) 1

let seek st ts =
  Obs.time st.State.obs st.State.probes.State.h_time_search "time_search" @@ fun () ->
  if State.nvols st = 0 then Error (Errors.Bad_record "no volumes")
  else begin
    (* Pick the last volume whose first data block is not after [ts]. *)
    let rec pick i best =
      if i >= State.nvols st then Ok best
      else
        let* v = State.vol st i in
        match first_ts_resolved st v ~limit:(Vol.written_limit v) 1 with
        | Some t when Int64.compare t ts <= 0 -> pick (i + 1) i
        | Some _ -> Ok best
        | None -> pick (i + 1) best
    in
    let* vi = pick 0 0 in
    let* v = State.vol st vi in
    let block = descend_volume st v ts in
    Ok { Assemble.vol = vi; block; rec_index = 0 }
  end

let first_at_or_after st ~log ts =
  let* pos = seek st ts in
  let c = Reader.at_position st ~log pos in
  let rec scan () =
    let* e = Reader.next c in
    match e with
    | None -> Ok None
    | Some e -> (
      match e.Reader.timestamp with
      | Some t when Int64.compare t ts >= 0 -> Ok (Some e)
      | Some _ | None -> scan ())
  in
  scan ()

let last_before st ~log ts =
  (* Position after the boundary then walk backwards past any entries with
     timestamp >= ts (there may be a few in the boundary block). *)
  let* pos = seek st ts in
  let c = Reader.at_position st ~log { pos with Assemble.block = pos.Assemble.block + 1 } in
  (* First skip forward entries in the boundary block that are < ts to make
     sure we do not miss them, by scanning backward from one block past the
     seek point and filtering. *)
  let rec back () =
    let* e = Reader.prev c in
    match e with
    | None -> Ok None
    | Some e -> (
      match e.Reader.timestamp with
      | Some t when Int64.compare t ts < 0 -> Ok (Some e)
      | Some _ -> back ()
      | None -> back ())
  in
  back ()
