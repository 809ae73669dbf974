let ( let* ) = Errors.( let* )

let find_frontier st (dev : Worm.Block_io.t) =
  match dev.frontier () with
  | Some f -> f
  | None ->
    (* Binary search for the first unreadable block: all written blocks
       precede all unwritten ones on an append-only medium. *)
    let probe idx =
      st.State.stats.Stats.frontier_probe_reads <-
        st.State.stats.Stats.frontier_probe_reads + 1;
      match dev.read idx with Ok _ -> true | Error _ -> false
    in
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if probe mid then search (mid + 1) hi else search lo mid
      end
    in
    search 0 dev.capacity

(* Walk down from the discovered frontier invalidating garbage blocks a
   crashed writer left past the last valid block (section 2.3.2); their
   locations are queued for the bad-block log. Returns the new frontier. *)
let quarantine_garbage st (v : Vol.t) upper =
  (* A crashed writer may have sprayed readable garbage past the reported
     frontier; probe forward until the first truly unreadable block. *)
  let upper = ref upper in
  let rec extend () =
    if !upper < v.hdr.Volume.capacity then begin
      st.State.stats.Stats.frontier_probe_reads <- st.State.stats.Stats.frontier_probe_reads + 1;
      match v.dev.Worm.Block_io.read !upper with
      | Ok _ ->
        incr upper;
        extend ()
      | Error _ -> ()
    end
  in
  extend ();
  let upper = !upper in
  let classify idx =
    match v.dev.Worm.Block_io.read idx with
    | Error _ -> `Unreadable
    | Ok b ->
      if idx = 0 then if Volume.is_volume_header b then `Valid else `Garbage
      else (
        match Block_format.classify b with
        | Block_format.Valid _ -> `Valid
        | Block_format.Invalidated -> `Valid (* deliberately burned: fine *)
        | Block_format.Corrupt -> `Garbage)
  in
  let rec collect i acc =
    if i < 0 then acc
    else
      match classify i with
      | `Valid -> acc
      | `Garbage | `Unreadable -> collect (i - 1) (i :: acc)
  in
  let garbage = collect (upper - 1) [] in
  List.iter
    (fun idx ->
      st.State.stats.Stats.bad_blocks <- st.State.stats.Stats.bad_blocks + 1;
      (match v.io.Worm.Block_io.invalidate idx with Ok () | Error _ -> ());
      st.State.badblock_queue <- idx :: st.State.badblock_queue)
    garbage;
  match v.dev.Worm.Block_io.frontier () with Some f -> max f upper | None -> upper

let align_down block span = block - (block mod span)

let rebuild_pending st (v : Vol.t) =
  let f = v.tail_index in
  if f > 1 then begin
    let fanout = Vol.fanout v in
    let reads_before = st.State.stats.Stats.locate_block_reads in
    let own = ref 0 in
    (* Every level's accumulating range must point at the range containing
       the last written block BEFORE any seeding: if the whole range turns
       out to be invalid blocks (quarantined garbage), no seed call would
       ever move the base off its initial value, and a stale base claims
       authoritative empty coverage of blocks whose entrymap entry is on
       the medium. *)
    for level = 1 to Vol.levels v do
      Entrymap.Pending.retarget v.pending ~level ~block:(f - 1)
    done;
    (* Level 1: examine the raw blocks written since the last level-1
       boundary (between 0 and N of them). *)
    let base1 = align_down (f - 1) fanout in
    for b = base1 to f - 1 do
      incr own;
      match Vol.view_block v b with
      | Vol.Records recs ->
        let files =
          Array.fold_left
            (fun acc r -> State.expand_members st r.Block_format.header @ acc)
            [] recs
          |> List.sort_uniq compare
        in
        if files <> [] then Entrymap.Pending.seed v.pending ~level:1 ~block:b files
      | Vol.Invalid | Vol.Corrupted | Vol.Missing -> ()
    done;
    (* Levels >= 2: examine the level-(l-1) entrymap entries written since
       the last level-l boundary (between 0 and N of them), falling back to
       raw blocks where an entry is missing. *)
    for level = 2 to Vol.levels v do
      let child_span = Vol.pow_fanout v (level - 1) in
      let base_l = align_down (f - 1) (Vol.pow_fanout v level) in
      let top_child = align_down (f - 1) child_span in
      let boundary = ref (base_l + child_span) in
      while !boundary <= top_child do
        let repr = !boundary - child_span in
        (match Locate.read_map st v ~level:(level - 1) ~boundary:!boundary with
        | Ok (Some e) ->
          List.iter
            (fun (id, bm) ->
              if not (Bitmap.is_empty bm) then
                Entrymap.Pending.seed v.pending ~level ~block:repr [ id ])
            e.Entrymap.maps
        | Ok None | Error _ ->
          (* Missing entrymap entry: assume nothing and search the raw
             blocks of that child range (section 2.3.2). *)
          for b = repr to !boundary - 1 do
            incr own;
            st.State.stats.Stats.fallback_blocks_scanned <-
              st.State.stats.Stats.fallback_blocks_scanned + 1;
            match Vol.view_block v b with
            | Vol.Records recs ->
              let files =
                Array.fold_left
                  (fun acc r -> State.expand_members st r.Block_format.header @ acc)
                  [] recs
                |> List.sort_uniq compare
              in
              if files <> [] then Entrymap.Pending.seed v.pending ~level ~block:b files
            | Vol.Invalid | Vol.Corrupted | Vol.Missing -> ()
          done);
        boundary := !boundary + child_span
      done;
      (* The child range still accumulating contributes the files of the
         level below, which was just rebuilt. *)
      let files = Entrymap.Pending.files_at v.pending ~level:(level - 1) in
      if files <> [] then Entrymap.Pending.seed v.pending ~level ~block:top_child files
    done;
    let map_reads = st.State.stats.Stats.locate_block_reads - reads_before in
    st.State.stats.Stats.recovery_blocks_examined <-
      st.State.stats.Stats.recovery_blocks_examined + !own + map_reads
  end

let restore_last_ts st (v : Vol.t) =
  let max_ts recs =
    Array.fold_left
      (fun acc (r : Block_format.record) ->
        match r.Block_format.header.Header.timestamp with
        | Some t when Int64.compare t acc > 0 -> t
        | Some _ | None -> acc)
      st.State.last_ts recs
  in
  if v.tail_open then st.State.last_ts <- max_ts (Block_format.Builder.records v.tail);
  let rec down idx =
    if idx >= 1 then
      match Vol.view_block v idx with
      | Vol.Records recs -> st.State.last_ts <- max_ts recs
      | Vol.Invalid | Vol.Corrupted -> down (idx - 1)
      | Vol.Missing -> down (idx - 1)
  in
  down (v.tail_index - 1);
  if Int64.compare v.hdr.Volume.created st.State.last_ts > 0 then
    st.State.last_ts <- v.hdr.Volume.created

(* Continue the catalog replay past the last entry replayed; a volume opens
   with a snapshot of every live descriptor, so never before the active one. *)
let replay_catalog st =
  let last = State.nvols st - 1 in
  let from =
    if st.State.catalog_resume.State.vol < last then { State.vol = last; block = 1; rec_index = 0 }
    else st.State.catalog_resume
  in
  let cursor = Reader.at_position st ~log:Ids.catalog from in
  let rec loop () =
    let* e = Reader.next cursor in
    match e with
    | None -> Ok ()
    | Some e ->
      let* () = Catalog.replay st.State.catalog e.Reader.payload in
      let pos = e.Reader.pos in
      st.State.catalog_resume <- { pos with State.rec_index = pos.State.rec_index + 1 };
      loop ()
  in
  loop ()

(* Once settled blocks pass a virtual tail, they carry its entrymap entries. *)
let close_tail st (v : Vol.t) =
  if v.Vol.tail_open then begin
    v.Vol.tail_open <- false;
    Block_format.Builder.reset v.Vol.tail;
    Queue.clear st.State.deferred_emissions
  end

(* Read and validate the headers of [devices] (any order) and mount them
   after the volumes already attached, sealing every predecessor. *)
let attach st devices =
  let* headed =
    List.fold_left
      (fun acc dev ->
        let* acc = acc in
        let* block0 = Errors.of_dev (dev.Worm.Block_io.read 0) in
        let* hdr = Volume.decode_header block0 in
        Ok ((hdr, dev) :: acc))
      (Ok []) devices
  in
  let headed = List.sort (fun (a, _) (b, _) -> compare a.Volume.vol_index b.Volume.vol_index) headed in
  let seq =
    match headed with
    | (h, _) :: _ when State.nvols st = 0 -> h.Volume.seq_uid
    | _ -> st.State.seq_uid
  in
  let rec check i = function
    | [] -> Ok ()
    | (h, _) :: rest ->
      if h.Volume.seq_uid <> seq then Error (Errors.Bad_record "volumes from different sequences")
      else if h.Volume.vol_index <> i then Error (Errors.Bad_record "volume sequence has gaps")
      else check (i + 1) rest
  in
  let* () = check (State.nvols st) headed in
  List.iter
    (fun (hdr, dev) ->
      Array.iter (fun v -> v.Vol.sealed <- true; close_tail st v) st.State.vols;
      st.State.vols <- Array.append st.State.vols [| Vol.make ~config:st.State.config ~hdr dev |];
      st.State.seq_uid <- hdr.Volume.seq_uid;
      let m = max hdr.Volume.vol_uid hdr.Volume.seq_uid in
      if Int64.compare m st.State.next_vol_uid >= 0 then st.State.next_vol_uid <- Int64.add m 1L)
    headed;
  Ok ()

(* Restore a forced tail block from battery-backed RAM (section 2.3.1);
   returns whether the tail changed (not for an image it already holds). *)
let restore_tail st (active : Vol.t) =
  match st.State.nvram with
  | None -> Ok false
  | Some nv -> (
    match Worm.Nvram.load nv with
    | None -> Ok false
    | Some (block, image)
      when active.Vol.tail_open && block = active.Vol.tail_index
           && Bytes.equal image (Block_format.Builder.finish ~forced:true active.Vol.tail) ->
      Ok false
    | Some (block, image) ->
      (* An image naming another block than the tail has TWO causes: the
         block reached the medium (stale — clear), or a torn burn left
         garbage there that quarantine invalidated, moving the tail past an
         image that never landed (NOT stale — it holds force-acknowledged
         entries, to be restored at the new tail). Only a block that reads
         back as valid records proves the image landed. *)
      let stale =
        block <> active.Vol.tail_index
        &&
        match active.Vol.dev.Worm.Block_io.read block with
        | Ok b -> (
          match Block_format.classify b with
          | Block_format.Valid _ -> true
          | Block_format.Invalidated | Block_format.Corrupt -> false)
        | Error _ -> false
      in
      if stale then begin
        Worm.Nvram.clear nv;
        Ok false
      end
      else (
        match Block_format.classify image with
        | Block_format.Valid records ->
          Block_format.Builder.reset active.Vol.tail;
          let* () = Block_format.Builder.load active.Vol.tail records in
          active.Vol.tail_open <- true;
          (* Re-queue any entrymap entries due at the (possibly moved)
             tail boundary; duplicates are harmless (locate takes the
             first match), and a level already taken yields none. *)
          let block = active.Vol.tail_index in
          let due = Entrymap.Pending.due_at active.Vol.pending ~block in
          List.iter
            (fun level ->
              match Entrymap.Pending.take active.Vol.pending ~level ~boundary:block with
              | Some e -> Queue.add (active, e) st.State.deferred_emissions
              | None -> ())
            due;
          Ok true
        | Block_format.Invalidated | Block_format.Corrupt ->
          Worm.Nvram.clear nv;
          Ok false))

(* The recovery steps of section 2.3.1, applied in place to what the volumes
   gained since they last ran: advance each to its frontier ([frontier_of]),
   rebuild the pending bits of those that moved, settle the virtual tail,
   continue the catalog replay. Unchanged frontiers and NVRAM do nothing. *)
let advance st ~frontier_of =
  let moved =
    List.filter
      (fun v ->
        let f = max (frontier_of v) 1 in
        f <> v.Vol.tail_index && (v.Vol.tail_index <- f; true))
      (Array.to_list st.State.vols)
  in
  List.iter (rebuild_pending st) moved;
  match State.active st with
  | Error _ -> Ok ()
  | Ok active ->
    if List.memq active moved then close_tail st active;
    let* restored = restore_tail st active in
    if moved = [] && not restored then Ok ()
    else begin
      let* () = replay_catalog st in
      (* Pending bits rebuilt before the catalog caught up may lack sublog
         ancestors. Re-seeding is additive (same ranges, OR-ed bits) and
         cache-warm; only hierarchical catalogs need it. *)
      let hierarchical =
        List.exists
          (fun d -> d.Catalog.parent <> Ids.root)
          (Catalog.live_descriptors st.State.catalog)
      in
      if hierarchical then List.iter (rebuild_pending st) moved;
      restore_last_ts st active;
      Ok ()
    end

let catch_up st ~devices =
  let* () = attach st (List.filteri (fun i _ -> i >= State.nvols st) devices) in
  advance st ~frontier_of:(fun v -> find_frontier st v.Vol.dev)

let recover ~config ~clock ?nvram ~alloc_volume ~devices () =
  let* config = Config.validate config in
  let st = State.make ~config ~clock ?nvram ~alloc_volume () in
  Obs.time st.State.obs st.State.probes.State.h_recover "recover" @@ fun () ->
  st.State.stats.Stats.recoveries <- st.State.stats.Stats.recoveries + 1;
  let* () = attach st devices in
  let* () =
    advance st ~frontier_of:(fun v -> quarantine_garbage st v (find_frontier st v.Vol.dev))
  in
  Ok st
