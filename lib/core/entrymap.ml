type entry = {
  level : int;
  base : int;
  maps : (Ids.logfile * Bitmap.t) list;
}

let ( let* ) = Errors.( let* )

let encode e =
  let enc = Wire.Enc.create () in
  Wire.Enc.u8 enc e.level;
  Wire.Enc.u8 enc 0;
  Wire.Enc.u32 enc e.base;
  Wire.Enc.u16 enc (List.length e.maps);
  List.iter
    (fun (id, bm) ->
      Wire.Enc.u16 enc id;
      Wire.Enc.bytes enc (Bitmap.to_string bm))
    e.maps;
  Wire.Enc.contents enc

let decode ~fanout payload =
  let dec = Wire.Dec.of_string payload in
  let* level = Wire.Dec.u8 dec in
  let* _reserved = Wire.Dec.u8 dec in
  let* base = Wire.Dec.u32 dec in
  let* count = Wire.Dec.u16 dec in
  let bm_bytes = (fanout + 7) / 8 in
  let rec go i acc =
    if i >= count then Ok { level; base; maps = List.rev acc }
    else
      let* id = Wire.Dec.u16 dec in
      let* raw = Wire.Dec.bytes dec bm_bytes in
      let* bm = Bitmap.of_string ~width:fanout raw in
      go (i + 1) ((id, bm) :: acc)
  in
  go 0 []

let find ~fanout payload id =
  let size = 2 + ((fanout + 7) / 8) in
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let at = 8 + (mid * size) in
      let k = String.get_uint16_le payload at in
      if k < id then search (mid + 1) hi
      else if k > id then search lo mid
      else Result.to_option (Bitmap.of_string ~width:fanout (String.sub payload (at + 2) (size - 2)))
  in
  search 0 (String.get_uint16_le payload 6)

let entry_overhead_bytes ~fanout ~files = 8 + (files * (2 + ((fanout + 7) / 8)))

module Pending = struct
  type level_state = {
    mutable base : int;  (* start of the range currently accumulating *)
    maps : (Ids.logfile, Bitmap.t) Hashtbl.t;
  }

  type t = {
    fanout : int;
    nlevels : int;
    states : level_state array;
  }

  let create ~fanout ~levels =
    assert (levels >= 1);
    {
      fanout;
      nlevels = levels;
      states = Array.init levels (fun _ -> { base = 0; maps = Hashtbl.create 8 });
    }

  let levels t = t.nlevels
  let fanout t = t.fanout

  let pow t l =
    let rec go acc l = if l = 0 then acc else go (acc * t.fanout) (l - 1) in
    go 1 l

  let align_down t ~level block =
    let span = pow t level in
    block - (block mod span)

  let retarget t ~level ~block =
    let st = t.states.(level - 1) in
    let base = align_down t ~level block in
    if st.base <> base then begin
      st.base <- base;
      Hashtbl.reset st.maps
    end

  let seed t ~level ~block files =
    let st = t.states.(level - 1) in
    let base = align_down t ~level block in
    if st.base <> base then begin
      (* Either we crossed a boundary (the old range was emitted by [take])
         or a boundary was skipped; in both cases start accumulating the
         new range. *)
      st.base <- base;
      Hashtbl.reset st.maps
    end;
    let group = (block - base) / pow t (level - 1) in
    List.iter
      (fun id ->
        let bm =
          match Hashtbl.find_opt st.maps id with
          | Some bm -> bm
          | None ->
            let bm = Bitmap.create t.fanout in
            Hashtbl.replace st.maps id bm;
            bm
        in
        Bitmap.set bm group)
      files

  let note_block t ~block files =
    for l = 1 to t.nlevels do
      seed t ~level:l ~block files
    done

  let due_at t ~block =
    if block = 0 then []
    else begin
      let rec go l acc =
        if l > t.nlevels then List.rev acc
        else if block mod pow t l = 0 then go (l + 1) (l :: acc)
        else List.rev acc
      in
      go 1 []
    end

  let take t ~level ~boundary =
    let st = t.states.(level - 1) in
    let expected_base = boundary - pow t level in
    if st.base > expected_base then
      (* Already accumulating a newer range (this boundary's emission was
         skipped); leave it untouched. *)
      None
    else if st.base < expected_base || Hashtbl.length st.maps = 0 then begin
      (* Stale older range or empty: advance and emit nothing. *)
      st.base <- boundary;
      Hashtbl.reset st.maps;
      None
    end
    else begin
      let maps =
        Hashtbl.fold (fun id bm acc -> (id, Bitmap.copy bm) :: acc) st.maps []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      st.base <- boundary;
      Hashtbl.reset st.maps;
      Some { level; base = expected_base; maps }
    end

  let covers t ~level ~base = t.states.(level - 1).base = base

  let query t ~level ~base id =
    let st = t.states.(level - 1) in
    if st.base <> base then None
    else
      match Hashtbl.find_opt st.maps id with
      | Some bm -> Some (Bitmap.copy bm)
      | None -> Some (Bitmap.create t.fanout)

  let files_at t ~level =
    let st = t.states.(level - 1) in
    Hashtbl.fold (fun id _ acc -> id :: acc) st.maps [] |> List.sort compare
end
