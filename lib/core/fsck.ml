type report = {
  volumes : int;
  blocks_scanned : int;
  valid_blocks : int;
  invalidated_blocks : int;
  corrupt_blocks : (int * int) list;
  entries : int;
  truncated_entries : int;
  errors : string list;
}

let ( let* ) = Errors.( let* )

let pp_report ppf r =
  Format.fprintf ppf
    "volumes:%d scanned:%d valid:%d invalidated:%d corrupt:%d entries:%d truncated:%d errors:%d"
    r.volumes r.blocks_scanned r.valid_blocks r.invalidated_blocks
    (List.length r.corrupt_blocks) r.entries r.truncated_entries (List.length r.errors)

let is_healthy r = r.corrupt_blocks = [] && r.errors = []

type acc = {
  mutable blocks_scanned : int;
  mutable valid_blocks : int;
  mutable invalidated_blocks : int;
  mutable corrupt : (int * int) list;
  mutable entries : int;
  mutable truncated : int;
  mutable errors : string list;
}

let error acc fmt = Printf.ksprintf (fun s -> acc.errors <- s :: acc.errors) fmt

let check_volume_header st acc vi (v : Vol.t) =
  match v.Vol.dev.Worm.Block_io.read 0 with
  | Error e ->
    error acc "volume %d: header block unreadable: %s" vi (Worm.Block_io.error_to_string e)
  | Ok block0 -> (
    match Volume.decode_header block0 with
    | Error e -> error acc "volume %d: bad header: %s" vi (Errors.to_string e)
    | Ok hdr ->
      if hdr.Volume.vol_index <> vi then
        error acc "volume %d: header claims index %d" vi hdr.Volume.vol_index;
      if hdr.Volume.seq_uid <> st.State.seq_uid then
        error acc "volume %d: wrong sequence uid" vi;
      if vi > 0 then begin
        let prev = st.State.vols.(vi - 1) in
        if hdr.Volume.prev_uid <> prev.Vol.hdr.Volume.vol_uid then
          error acc "volume %d: broken predecessor link" vi
      end)

let scan_blocks st acc vi (v : Vol.t) =
  let limit = Vol.written_limit v in
  let last_ts = ref Int64.min_int in
  for b = 1 to limit - 1 do
    acc.blocks_scanned <- acc.blocks_scanned + 1;
    match Vol.view_block v b with
    | Vol.Missing -> () (* a hole below the frontier can only be device weirdness *)
    | Vol.Invalid -> acc.invalidated_blocks <- acc.invalidated_blocks + 1
    | Vol.Corrupted -> acc.corrupt <- (vi, b) :: acc.corrupt
    | Vol.Records recs ->
      acc.valid_blocks <- acc.valid_blocks + 1;
      if Array.length recs > 0 then begin
        (* The time search's key, under the one definition it uses. A block
           holding no start record (one fragment of a larger entry) has no
           key; one whose first start record lacks a timestamp breaks the
           mandatory-timestamp rule. *)
        (match Block_format.first_timestamp recs with
        | Some ts ->
          if Int64.compare ts !last_ts < 0 then
            error acc "volume %d block %d: block key regresses" vi b;
          last_ts := ts
        | None ->
          let is_start (r : Block_format.record) = Header.is_start r.Block_format.header in
          if Array.exists is_start recs then
            error acc "volume %d block %d: first start record lacks a timestamp" vi b);
        Array.iter
          (fun (r : Block_format.record) ->
            let id = r.Block_format.header.Header.logfile in
            if not (Catalog.exists st.State.catalog id) then
              error acc "volume %d block %d: record references unknown log file %d" vi b id)
          recs
      end
  done

(* Walk every entry of the volume-sequence log, proving each start record
   reassembles. *)
let check_entries st acc =
  let cursor = Reader.at_start st ~log:Ids.root in
  let rec go () =
    match Reader.next cursor with
    | Ok (Some _) ->
      acc.entries <- acc.entries + 1;
      go ()
    | Ok None -> ()
    | Error e -> error acc "entry walk failed: %s" (Errors.to_string e)
  in
  go ();
  (* Count the dangling in-flight entry at the very end, if any: the last
     record of the last readable block continuing into nothing. *)
  match State.active st with
  | Error _ -> ()
  | Ok v ->
    let limit = Vol.written_limit v in
    let rec last_block b =
      if b < 1 then ()
      else
        match Vol.view_block v b with
        | Vol.Records recs when Array.length recs > 0 ->
          let last = recs.(Array.length recs - 1) in
          if last.Block_format.continues then acc.truncated <- acc.truncated + 1
        | Vol.Records _ | Vol.Invalid | Vol.Corrupted | Vol.Missing -> last_block (b - 1)
    in
    last_block (limit - 1)

let verify_entrymap_tree st acc =
  let logs =
    Catalog.live_descriptors st.State.catalog |> List.map (fun d -> d.Catalog.id)
  in
  Array.iteri
    (fun vi v ->
      let limit = Vol.written_limit v in
      List.iter
        (fun log ->
          (* Ground truth by direct scan, then binary-search-style spot
             checks of locate at every position would be O(b^2); instead
             compare the full sets of blocks each method finds. *)
          let rec collect_scan b acc_blocks =
            if b >= limit then List.rev acc_blocks
            else
              collect_scan (b + 1)
                (if Locate.block_contains st v ~log b then b :: acc_blocks else acc_blocks)
          in
          let truth = collect_scan 1 [] in
          let rec collect_locate from acc_blocks =
            match Locate.next_block st v ~log ~from with
            | Ok (Some b) -> collect_locate (b + 1) (b :: acc_blocks)
            | Ok None -> List.rev acc_blocks
            | Error e ->
              error acc "locate failed on volume %d log %d: %s" vi log (Errors.to_string e);
              List.rev acc_blocks
          in
          let found = collect_locate 1 [] in
          if truth <> found then
            error acc "volume %d log %d: entrymap disagrees with scan (%d vs %d blocks)" vi log
              (List.length found) (List.length truth))
        logs)
    st.State.vols

let check ?(verify_entrymap = false) st =
  let acc =
    {
      blocks_scanned = 0;
      valid_blocks = 0;
      invalidated_blocks = 0;
      corrupt = [];
      entries = 0;
      truncated = 0;
      errors = [];
    }
  in
  let* () = if State.nvols st = 0 then Error (Errors.Bad_record "no volumes") else Ok () in
  Array.iteri
    (fun vi v ->
      check_volume_header st acc vi v;
      scan_blocks st acc vi v)
    st.State.vols;
  check_entries st acc;
  if verify_entrymap then verify_entrymap_tree st acc;
  Ok
    {
      volumes = State.nvols st;
      blocks_scanned = acc.blocks_scanned;
      valid_blocks = acc.valid_blocks;
      invalidated_blocks = acc.invalidated_blocks;
      corrupt_blocks = List.rev acc.corrupt;
      entries = acc.entries;
      truncated_entries = acc.truncated;
      errors = List.rev acc.errors;
    }
