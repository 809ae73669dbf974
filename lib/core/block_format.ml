type record = {
  header : Header.t;
  payload : string;
  continues : bool;
  offset : int;
  index : int;
}

let magic = 0xC110
let format_version = 1
let trailer_bytes = 12
let index_entry_bytes = 2
let flag_forced = 0x01

type status = Valid of record array | Invalidated | Corrupt

let ( let* ) = Errors.( let* )

let parse_records block ~count ~data_bytes =
  let bs = Bytes.length block in
  let index_pos i = bs - trailer_bytes - (index_entry_bytes * (i + 1)) in
  let rec go i offset acc =
    if i >= count then Ok (Array.of_list (List.rev acc))
    else begin
      let slot = Wire.get_u16 block (index_pos i) in
      let continues = slot land 0x8000 <> 0 in
      let footprint = slot land 0x7FFF in
      if footprint = 0 || offset + footprint > data_bytes then
        Error (Errors.Bad_record "record footprint out of range")
      else
        let* header, payload_pos = Header.decode block ~pos:offset in
        let payload_len = footprint - (payload_pos - offset) in
        if payload_len < 0 then Error (Errors.Bad_record "record shorter than header")
        else begin
          let payload = Bytes.sub_string block payload_pos payload_len in
          let r = { header; payload; continues; offset; index = i } in
          go (i + 1) (offset + footprint) (r :: acc)
        end
    end
  in
  go 0 0 []

let classify block =
  let bs = Bytes.length block in
  if bs < trailer_bytes then Corrupt
  else if Worm.Block_io.is_invalidated_pattern block then Invalidated
  else begin
    let tpos = bs - trailer_bytes in
    let m = Wire.get_u16 block tpos in
    let v = Wire.get_u8 block (tpos + 2) in
    let count = Wire.get_u16 block (tpos + 4) in
    let data_bytes = Wire.get_u16 block (tpos + 6) in
    let crc_stored = Wire.get_u32 block (tpos + 8) in
    if m <> magic || v <> format_version then Corrupt
    else if crc_stored <> Wire.crc32 block ~pos:0 ~len:(bs - 4) then Corrupt
    else if data_bytes + (index_entry_bytes * count) + trailer_bytes > bs then Corrupt
    else
      match parse_records block ~count ~data_bytes with
      | Ok records -> Valid records
      | Error _ -> Corrupt
  end

let is_forced block =
  let bs = Bytes.length block in
  bs >= trailer_bytes && Wire.get_u8 block (bs - trailer_bytes + 3) land flag_forced <> 0

let parse block =
  match classify block with
  | Valid records -> Ok records
  | Invalidated -> Error (Errors.Bad_record "block is invalidated")
  | Corrupt -> Error (Errors.Bad_record "block is corrupt")

let first_timestamp records =
  match Array.find_opt (fun r -> Header.is_start r.header) records with
  | Some r -> r.header.Header.timestamp
  | None -> None

module Builder = struct
  type t = {
    block_size : int;
    mutable recs : record list;  (* newest first *)
    mutable count : int;
    mutable data_bytes : int;
    mutable has_start : bool;
  }

  let create ~block_size =
    assert (block_size > trailer_bytes + index_entry_bytes + 16);
    { block_size; recs = []; count = 0; data_bytes = 0; has_start = false }

  let block_size t = t.block_size
  let count t = t.count
  let is_empty t = t.count = 0
  let has_start t = t.has_start
  let data_bytes t = t.data_bytes

  let used t = t.data_bytes + (index_entry_bytes * t.count) + trailer_bytes
  let free_bytes t = t.block_size - used t - index_entry_bytes

  let add t header ~continues payload =
    let footprint = Header.byte_size header + String.length payload in
    if footprint > free_bytes t then Error (Errors.Entry_too_large footprint)
    else if footprint > 0x7FFF then Error (Errors.Entry_too_large footprint)
    else begin
      let r =
        { header; payload; continues; offset = t.data_bytes; index = t.count }
      in
      t.recs <- r :: t.recs;
      t.count <- t.count + 1;
      t.data_bytes <- t.data_bytes + footprint;
      if Header.is_start header then t.has_start <- true;
      Ok ()
    end

  let records t = Array.of_list (List.rev t.recs)

  let padding_if_finished t = t.block_size - used t

  let finish ?(forced = false) t =
    let block = Bytes.make t.block_size '\000' in
    let in_order = List.rev t.recs in
    List.iter
      (fun r ->
        let enc = Wire.Enc.create () in
        Header.encode enc r.header;
        let hdr = Wire.Enc.contents enc in
        Bytes.blit_string hdr 0 block r.offset (String.length hdr);
        Bytes.blit_string r.payload 0 block
          (r.offset + String.length hdr)
          (String.length r.payload);
        let footprint = String.length hdr + String.length r.payload in
        let slot = footprint lor (if r.continues then 0x8000 else 0) in
        let ipos = t.block_size - trailer_bytes - (index_entry_bytes * (r.index + 1)) in
        Wire.set_u16 block ipos slot)
      in_order;
    let tpos = t.block_size - trailer_bytes in
    Wire.set_u16 block tpos magic;
    Wire.set_u8 block (tpos + 2) format_version;
    Wire.set_u8 block (tpos + 3) (if forced then flag_forced else 0);
    Wire.set_u16 block (tpos + 4) t.count;
    Wire.set_u16 block (tpos + 6) t.data_bytes;
    Wire.set_u32 block (tpos + 8) (Wire.crc32 block ~pos:0 ~len:(t.block_size - 4));
    block

  let reset t =
    t.recs <- [];
    t.count <- 0;
    t.data_bytes <- 0;
    t.has_start <- false

  let load t records =
    if not (is_empty t) then Error (Errors.Bad_record "builder not empty")
    else begin
      let rec go i =
        if i >= Array.length records then Ok ()
        else
          let r = records.(i) in
          let* () = add t r.header ~continues:r.continues r.payload in
          go (i + 1)
      in
      go 0
    end
end

let max_payload_in_empty_block ~block_size ~header =
  block_size - trailer_bytes - index_entry_bytes - Header.byte_size header
