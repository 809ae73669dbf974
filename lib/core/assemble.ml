type position = State.position = { vol : int; block : int; rec_index : int }

let compare_position a b =
  match compare a.vol b.vol with
  | 0 -> ( match compare a.block b.block with 0 -> compare a.rec_index b.rec_index | c -> c)
  | c -> c

let pp_position ppf p = Format.fprintf ppf "v%d/b%d/r%d" p.vol p.block p.rec_index

let ( let* ) = Errors.( let* )

(* [`Recs recs] - log data; [`Skip] - invalidated block (burned to 1s: it
   holds nothing, scans step over it); [`End] - never written. A corrupt
   block is an error: any fragment it held is lost (section 2.3.2). *)
let records_at st pos =
  let* v = State.vol st pos.vol in
  match Vol.view_block v pos.block with
  | Vol.Records recs -> Ok (`Recs recs)
  | Vol.Invalid -> Ok `Skip
  | Vol.Missing -> Ok `End
  | Vol.Corrupted -> Error (Errors.Corrupt_block pos.block)

(* Step to the next block position, crossing into the next volume's first
   data block when this volume's written region ends. *)
let next_block_pos st pos =
  let* v = State.vol st pos.vol in
  let limit = Vol.written_limit v in
  if pos.block + 1 < limit then Ok (Some { pos with block = pos.block + 1; rec_index = 0 })
  else if pos.vol + 1 < State.nvols st then
    Ok (Some { vol = pos.vol + 1; block = 1; rec_index = 0 })
  else Ok None

let entry_at st pos =
  let* recs = records_at st pos in
  match recs with
  | `Skip | `End -> Error (Errors.Bad_record "entry start block unreadable")
  | `Recs recs ->
    if pos.rec_index >= Array.length recs then Error (Errors.Bad_record "record index out of range")
    else begin
      let start = recs.(pos.rec_index) in
      if not (Header.is_start start.Block_format.header) then
        Error (Errors.Bad_record "position is a continuation record")
      else begin
        let id = start.Block_format.header.Header.logfile in
        let buf = Buffer.create (String.length start.Block_format.payload) in
        Buffer.add_string buf start.Block_format.payload;
        (* The chain checksum of everything accumulated so far: the next
           fragment must carry exactly this tag. A same-file continuation
           with a different tag belongs to a *different* entry — its own
           earlier fragments were lost with an invalidated block (a
           scrubbed corruption, or recovery quarantining a torn write) — so
           gluing it here would fabricate an entry that was never written. *)
        let chain = ref (Header.chain_update Header.chain_seed start.Block_format.payload) in
        (* Scan forward for version-3 records of [id], accumulating payload
           until a fragment ends the entry. *)
        let rec scan pos from_rec =
          let* recs = records_at st pos in
          match recs with
          | `End -> Error Errors.No_entry
          | `Skip ->
            (* Invalidated block: it holds nothing; the continuation landed
               in a later block (the write path skipped the bad medium). *)
            let* next = next_block_pos st { pos with rec_index = 0 } in
            (match next with Some p -> scan p 0 | None -> Error Errors.No_entry)
          | `Recs recs ->
            (* A *start* record of the same file before the continuation
               means the entry was truncated by a crash: fragments of one
               file never interleave with its starts in normal operation
               (section 2.3.1 volatile-tail loss). A continuation of the
               same file with the wrong chain tag means the same thing —
               our entry's real continuation is gone. *)
            let rec in_block i =
              if i >= Array.length recs then `Not_here
              else begin
                let h = recs.(i).Block_format.header in
                if h.Header.logfile <> id then in_block (i + 1)
                else if Header.is_start h then `Truncated
                else if h.Header.chain = !chain then `Found (recs.(i), i)
                else `Truncated
              end
            in
            let advance () =
              let* next = next_block_pos st { pos with rec_index = 0 } in
              match next with Some p -> scan p 0 | None -> Error Errors.No_entry
            in
            (match in_block from_rec with
            | `Found (r, i) ->
              Buffer.add_string buf r.Block_format.payload;
              chain := Header.chain_update !chain r.Block_format.payload;
              if r.Block_format.continues then
                (* The next fragment may sit later in this very block (a
                   volume roll re-stages carried fragments wherever they
                   fit), so keep scanning here before advancing. *)
                scan pos (i + 1)
              else Ok { pos with rec_index = i }
            | `Truncated -> Error Errors.No_entry
            | `Not_here -> advance ())
        in
        let* end_pos =
          if start.Block_format.continues then scan pos (pos.rec_index + 1) else Ok pos
        in
        Ok (start.Block_format.header, Buffer.contents buf, end_pos)
      end
    end

(* Walk a continuation record back to its entry's start: the nearest earlier
   record of the same file; keep stepping while we land on continuations. *)
let start_of st pos =
  let* recs0 = records_at st pos in
  match recs0 with
  | `Skip | `End -> Error (Errors.Bad_record "unreadable block")
  | `Recs recs0 ->
    if pos.rec_index >= Array.length recs0 then
      Error (Errors.Bad_record "record index out of range")
    else begin
      let id = recs0.(pos.rec_index).Block_format.header.Header.logfile in
      let prev_block_pos st pos =
        if pos.block > 1 then Ok (Some { pos with block = pos.block - 1 })
        else if pos.vol > 0 then
          let* v = State.vol st (pos.vol - 1) in
          let limit = Vol.written_limit v in
          if limit <= 1 then Ok None
          else Ok (Some { vol = pos.vol - 1; block = limit - 1; rec_index = 0 })
        else Ok None
      in
      let rec back pos from_rec =
        let* recs = records_at st pos in
        match recs with
        | `Skip | `End -> (
          (* Nothing here (invalidated / unwritten): keep walking back. *)
          let* prev = prev_block_pos st pos in
          match prev with
          | Some p -> back p max_int
          | None -> Error Errors.No_entry)
        | `Recs recs ->
          let hi = min (from_rec - 1) (Array.length recs - 1) in
          let rec in_block i =
            if i < 0 then `Not_here
            else
              let r = recs.(i) in
              if r.Block_format.header.Header.logfile = id then
                if Header.is_start r.Block_format.header then `Start i else `Cont i
              else in_block (i - 1)
          in
          (match in_block hi with
          | `Start i -> Ok { pos with rec_index = i }
          | `Cont i -> back { pos with rec_index = i } i
          | `Not_here -> (
            let* prev = prev_block_pos st pos in
            match prev with
            | Some p -> back p max_int
            | None -> Error Errors.No_entry))
      in
      if Header.is_start recs0.(pos.rec_index).Block_format.header then Ok pos
      else back pos pos.rec_index
    end
