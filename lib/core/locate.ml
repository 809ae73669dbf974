let ( let* ) = Errors.( let* )

let vol_index_of st (v : Vol.t) =
  let rec go i = if st.State.vols.(i) == v then i else go (i + 1) in
  go 0

(* All block examinations on the locate path are counted for the Table 1 /
   Figure 3 reproductions. *)
let view st v idx =
  st.State.stats.Stats.locate_block_reads <- st.State.stats.Stats.locate_block_reads + 1;
  Vol.view_block v idx

(* How many blocks past a well-known position to scan for a displaced
   entrymap entry before falling back a level (section 2.3.2). *)
let entrymap_slack = 4

(* Slack-window scan for the entrymap entry posted at [boundary]; also
   reports the block index where it was found so the caller can decide
   whether the result is a settled (memoizable) fact. *)
let read_map_scan st v ~level ~boundary =
  let expected_base = boundary - Vol.pow_fanout v level in
  let vol = vol_index_of st v in
  let fanout = Vol.fanout v in
  let stop = min (boundary + entrymap_slack) (Vol.written_limit v) in
  let rec scan_block idx =
    if idx >= stop then Ok None
    else
      match view st v idx with
      | Vol.Missing -> Ok None
      | Vol.Invalid | Vol.Corrupted -> scan_block (idx + 1)
      | Vol.Records recs ->
        let rec scan_rec i =
          if i >= Array.length recs then scan_block (idx + 1)
          else begin
            let r = recs.(i) in
            if
              Header.is_start r.Block_format.header
              && r.Block_format.header.Header.logfile = Ids.entrymap
            then begin
              let* _, payload, _ =
                Assemble.entry_at st { Assemble.vol; block = idx; rec_index = i }
              in
              match Entrymap.decode ~fanout payload with
              | Error _ -> scan_rec (i + 1)
              | Ok entry ->
                if entry.Entrymap.level = level && entry.Entrymap.base = expected_base then
                  Ok (Some (payload, idx))
                else scan_rec (i + 1)
            end
            else scan_rec (i + 1)
          end
        in
        scan_rec 0
  in
  scan_block boundary

(* Memoizing wrapper: every entrymap read goes through here, so a repeated
   descent reads each (level, boundary) entry at most once per generation;
   it is kept encoded, and a bitmap lookup decodes only the one log file.
   Memoization rules for write-once media:
   - a found entry is a settled fact once its block is below the device
     frontier (the open tail may still be displaced on flush);
   - absence is a settled fact only once the {e whole} slack window is below
     the frontier — a deferred entry can still land inside a window that
     overlaps unwritten blocks. *)
let read_map_encoded st v ~level ~boundary =
  let memo_on = st.State.config.Config.locate_memo in
  let vol = vol_index_of st v in
  let gen = !(v.Vol.read_gen) in
  match
    if memo_on then Read_memo.find_entry st.State.read_memo ~vol ~level ~boundary ~gen
    else None
  with
  | Some cached ->
    st.State.stats.Stats.entrymap_memo_hits <- st.State.stats.Stats.entrymap_memo_hits + 1;
    Ok cached
  | None -> (
    (* Tolerate assembly failures on displaced candidates: fall through to
       "missing" rather than failing the whole locate (and never memoize a
       tolerated failure). *)
    match read_map_scan st v ~level ~boundary with
    | Ok (Some (payload, idx)) ->
      if memo_on && idx < Vol.device_frontier v then
        Read_memo.store_entry st.State.read_memo ~vol ~level ~boundary ~gen (Some payload);
      Ok (Some payload)
    | Ok None ->
      if memo_on && boundary + entrymap_slack <= Vol.device_frontier v then
        Read_memo.store_entry st.State.read_memo ~vol ~level ~boundary ~gen None;
      Ok None
    | Error (Errors.Corrupt_block _) | Error Errors.No_entry -> Ok None
    | Error _ as e -> e)

let read_map st v ~level ~boundary =
  let* p = read_map_encoded st v ~level ~boundary in
  Ok (Option.bind p (fun p -> Result.to_option (Entrymap.decode ~fanout:(Vol.fanout v) p)))

let block_contains st v ~log idx =
  match view st v idx with
  | Vol.Records recs ->
    Array.exists
      (fun r -> Catalog.is_member st.State.catalog ~log r.Block_format.header)
      recs
  | Vol.Invalid | Vol.Corrupted | Vol.Missing -> false

(* The bitmap covering [base, base + N^level) — from pending if that range
   is still accumulating, else from the entrymap entry at its boundary.
   Every successful lookup counts as one entrymap examination: a pending hit
   is the in-memory analogue of the paper's cached entrymap entry. *)
type map_source = Map of Bitmap.t | Missing_map

let get_bitmap st v ~level ~base ~log =
  let count () =
    st.State.stats.Stats.entrymap_records_examined <-
      st.State.stats.Stats.entrymap_records_examined + 1
  in
  if Entrymap.Pending.covers v.Vol.pending ~level ~base then begin
    match Entrymap.Pending.query v.Vol.pending ~level ~base log with
    | Some bm ->
      count ();
      Ok (Map bm)
    | None -> Ok Missing_map
  end
  else begin
    let boundary = base + Vol.pow_fanout v level in
    if boundary > Vol.written_limit v then Ok Missing_map
    else
      let* entry = read_map_encoded st v ~level ~boundary in
      match entry with
      | None -> Ok Missing_map
      | Some p ->
        count ();
        (match Entrymap.find ~fanout:(Vol.fanout v) p log with
        | Some bm -> Ok (Map bm)
        | None -> Ok (Map (Bitmap.create (Vol.fanout v))))
  end

let align_down block span = block - (block mod span)

let tail_candidate st v ~log =
  if
    v.Vol.tail_open
    && (not (Block_format.Builder.is_empty v.Vol.tail))
    && block_contains st v ~log v.Vol.tail_index
  then Some v.Vol.tail_index
  else None

(* ---------------- conservative descent (missing maps) ---------------- *)

(* Greatest verified matching block in [base, base + N^level) ∩ [1, limit),
   searching lower levels when a map is missing (section 2.3.2). *)
let rec search_down_prev st v ~log ~level ~base ~limit =
  if base >= limit then Ok None
  else if level = 0 then begin
    if base >= 1 && block_contains st v ~log base then Ok (Some base) else Ok None
  end
  else begin
    let child_span = Vol.pow_fanout v (level - 1) in
    let* src = get_bitmap st v ~level ~base ~log in
    let covered g = match src with Map bm -> Bitmap.get bm g | Missing_map -> true in
    let g_hi = min (Vol.fanout v - 1) ((limit - 1 - base) / child_span) in
    let rec try_group g =
      if g < 0 then Ok None
      else if covered g then begin
        let* r =
          search_down_prev st v ~log ~level:(level - 1) ~base:(base + (g * child_span)) ~limit
        in
        match r with Some _ -> Ok r | None -> try_group (g - 1)
      end
      else try_group (g - 1)
    in
    try_group g_hi
  end

(* Smallest verified matching block in [max(base, from), base + N^level) ∩
   [1, limit). *)
let rec search_down_next st v ~log ~level ~base ~from ~limit =
  if base >= limit then Ok None
  else if level = 0 then begin
    if base >= max from 1 && base < limit && block_contains st v ~log base then Ok (Some base)
    else Ok None
  end
  else begin
    let child_span = Vol.pow_fanout v (level - 1) in
    let* src = get_bitmap st v ~level ~base ~log in
    let covered g = match src with Map bm -> Bitmap.get bm g | Missing_map -> true in
    let g_lo = if from <= base then 0 else (from - base) / child_span in
    let rec try_group g =
      if g >= Vol.fanout v || base + (g * child_span) >= limit then Ok None
      else if covered g then begin
        let* r =
          search_down_next st v ~log ~level:(level - 1) ~base:(base + (g * child_span)) ~from
            ~limit
        in
        match r with Some _ -> Ok r | None -> try_group (g + 1)
      end
      else try_group (g + 1)
    in
    try_group g_lo
  end

(* -------------------- skip index (locate memoization) ----------------- *)

(* A locate's verified answer over settled storage is an immutable fact:
   blocks below the device frontier can never gain or lose log membership
   except through invalidation (which bumps the volume generation). The two
   wrappers below consult the skip index before running the full descent and
   learn confirmed results afterwards — but only results strictly below the
   frontier; the open tail re-answers through [tail_candidate], which is
   always checked before these run. *)

let memo_next st v ~log ~from compute =
  if not st.State.config.Config.locate_memo then compute ()
  else begin
    let vol = vol_index_of st v in
    let gen = !(v.Vol.read_gen) in
    match Read_memo.find_next st.State.read_memo ~vol ~log ~from ~gen with
    | Some b ->
      st.State.stats.Stats.locate_memo_hits <- st.State.stats.Stats.locate_memo_hits + 1;
      Ok (Some b)
    | None ->
      let r = compute () in
      (match r with
      | Ok (Some b) when b < Vol.device_frontier v ->
        Read_memo.store_next st.State.read_memo ~vol ~log ~from ~gen b
      | _ -> ());
      r
  end

(* Prev links additionally key on the device frontier: a tail flush settles
   a new highest block without bumping the generation, and a pre-flush
   "greatest block < limit" answer must not survive it. *)
let memo_prev st v ~log ~limit compute =
  if not st.State.config.Config.locate_memo then compute ()
  else begin
    let vol = vol_index_of st v in
    let frontier = Vol.device_frontier v in
    let gen = !(v.Vol.read_gen) in
    match Read_memo.find_prev st.State.read_memo ~vol ~log ~limit ~frontier ~gen with
    | Some b ->
      st.State.stats.Stats.locate_memo_hits <- st.State.stats.Stats.locate_memo_hits + 1;
      Ok (Some b)
    | None ->
      let r = compute () in
      (match r with
      | Ok (Some b) when b < frontier ->
        Read_memo.store_prev st.State.read_memo ~vol ~log ~limit ~frontier ~gen b
      | _ -> ());
      r
  end

(* ------------------------- previous direction ------------------------ *)

(* Bottom-up, as the paper describes: examine the level-1 bitmap around the
   start position, climb while nothing is found (each climb examines one
   entrymap entry), then descend into the highest marked group (one entry
   per level). Near entries stay cheap; an entry N^k blocks away costs about
   2k-1 examinations (Table 1). *)
let prev_block st v ~log ~before =
  Obs.time st.State.obs st.State.probes.State.h_locate "locate.prev" @@ fun () ->
  let limit = min before (Vol.written_limit v) in
  if limit <= 1 then Ok None
  else if log = Ids.root then begin
    (* Every written block belongs to the volume-sequence log. *)
    memo_prev st v ~log ~limit @@ fun () ->
    let rec down idx =
      if idx < 1 then Ok None
      else
        match view st v idx with
        | Vol.Records recs when Array.length recs > 0 -> Ok (Some idx)
        | Vol.Records _ | Vol.Invalid | Vol.Corrupted | Vol.Missing -> down (idx - 1)
    in
    down (limit - 1)
  end
  else begin
    match tail_candidate st v ~log with
    | Some t when t < before -> Ok (Some t)
    | Some _ | None ->
      memo_prev st v ~log ~limit @@ fun () ->
      let top = Vol.levels v in
      (* Invariant: no matching block in [cur, limit). *)
      let rec climb level cur =
        if cur <= 1 then Ok None
        else if level > top then Ok None
        else begin
          let span = Vol.pow_fanout v level in
          let child_span = Vol.pow_fanout v (level - 1) in
          let base = align_down (cur - 1) span in
          let* src = get_bitmap st v ~level ~base ~log in
          match src with
          | Missing_map ->
            let* r = search_down_prev st v ~log ~level ~base ~limit:cur in
            (match r with Some _ -> Ok r | None -> climb (level + 1) base)
          | Map bm ->
            let g_cur = (cur - 1 - base) / child_span in
            let rec groups g =
              if g < 0 then climb (level + 1) base
              else if Bitmap.get bm g then begin
                let* r =
                  search_down_prev st v ~log ~level:(level - 1)
                    ~base:(base + (g * child_span)) ~limit:cur
                in
                match r with Some _ -> Ok r | None -> groups (g - 1)
              end
              else groups (g - 1)
            in
            groups g_cur
        end
      in
      climb 1 limit
  end

(* --------------------------- next direction -------------------------- *)

let next_block st v ~log ~from =
  Obs.time st.State.obs st.State.probes.State.h_locate "locate.next" @@ fun () ->
  let limit = Vol.written_limit v in
  let from = max from 1 in
  if from >= limit then Ok None
  else if log = Ids.root then begin
    memo_next st v ~log ~from @@ fun () ->
    let rec up idx =
      if idx >= limit then Ok None
      else
        match view st v idx with
        | Vol.Records recs when Array.length recs > 0 -> Ok (Some idx)
        | Vol.Records _ | Vol.Invalid | Vol.Corrupted | Vol.Missing -> up (idx + 1)
    in
    up from
  end
  else begin
    memo_next st v ~log ~from @@ fun () ->
    let top = Vol.levels v in
    let check_tail () =
      match tail_candidate st v ~log with
      | Some t when t >= from -> Ok (Some t)
      | Some _ | None -> Ok None
    in
    (* Invariant: no matching block in [from, cur). *)
    let rec climb level cur =
      if cur >= limit then check_tail ()
      else if level > top then check_tail ()
      else begin
        let span = Vol.pow_fanout v level in
        let child_span = Vol.pow_fanout v (level - 1) in
        let base = align_down cur span in
        let* src = get_bitmap st v ~level ~base ~log in
        match src with
        | Missing_map ->
          let* r = search_down_next st v ~log ~level ~base ~from:cur ~limit in
          (match r with Some _ -> Ok r | None -> climb (level + 1) (base + span))
        | Map bm ->
          let g_cur = (cur - base) / child_span in
          let rec groups g =
            if g >= Vol.fanout v || base + (g * child_span) >= limit then
              climb (level + 1) (base + span)
            else if Bitmap.get bm g then begin
              let* r =
                search_down_next st v ~log ~level:(level - 1) ~base:(base + (g * child_span))
                  ~from:cur ~limit
              in
              match r with Some _ -> Ok r | None -> groups (g + 1)
            end
            else groups (g + 1)
          in
          groups g_cur
      end
    in
    climb 1 from
  end
