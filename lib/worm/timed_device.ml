type t = {
  inner : Block_io.t;
  clock : Sim.Clock.t;
  model : Sim.Seek_model.t;
  separate_heads : bool;
  mutable read_head : int;
  mutable write_head : int;
  mutable busy_us : int64;
  mutable seeks : int;
}

let create ~clock ~model ?(separate_heads = true) inner =
  {
    inner;
    clock;
    model;
    separate_heads;
    read_head = 0;
    write_head = 0;
    busy_us = 0L;
    seeks = 0;
  }

let charge t us =
  t.busy_us <- Int64.add t.busy_us us;
  Sim.Clock.advance t.clock us

let charge_read t idx bytes =
  let dist = abs (idx - t.read_head) in
  t.read_head <- idx;
  t.seeks <- t.seeks + 1;
  let us =
    Int64.add (t.model.Sim.Seek_model.seek_us ~dist) (t.model.Sim.Seek_model.transfer_us ~bytes)
  in
  charge t us

let charge_write t idx bytes =
  let from = if t.separate_heads then t.write_head else t.read_head in
  let dist = abs (idx - from) in
  t.write_head <- idx;
  if not t.separate_heads then t.read_head <- idx;
  t.seeks <- t.seeks + 1;
  let us =
    Int64.add (t.model.Sim.Seek_model.seek_us ~dist) (t.model.Sim.Seek_model.transfer_us ~bytes)
  in
  charge t us

let read t idx =
  match t.inner.Block_io.read idx with
  | Ok b ->
    charge_read t idx (Bytes.length b);
    Ok b
  | Error _ as e ->
    (* A failed read still seeks. *)
    charge_read t idx 0;
    e

(* Batched read: each contiguous run of indices costs one seek (to its first
   block) plus the transfer of every block actually read — the head sweeps
   the run without repositioning. This is the device-level half of the
   read-ahead story: K predicted blocks fetched in one batch cost one head
   movement instead of K. *)
let read_many t idxs =
  let run_results run =
    let results = List.map t.inner.Block_io.read run in
    let first = List.hd run in
    let dist = abs (first - t.read_head) in
    t.read_head <- List.nth run (List.length run - 1);
    t.seeks <- t.seeks + 1;
    let bytes =
      List.fold_left
        (fun acc r -> match r with Ok b -> acc + Bytes.length b | Error _ -> acc)
        0 results
    in
    let us =
      Int64.add (t.model.Sim.Seek_model.seek_us ~dist)
        (t.model.Sim.Seek_model.transfer_us ~bytes)
    in
    charge t us;
    results
  in
  List.concat_map run_results (Block_io.contiguous_runs idxs)

let append t data =
  match t.inner.Block_io.append data with
  | Ok idx ->
    charge_write t idx (Bytes.length data);
    Ok idx
  | Error _ as e -> e

let invalidate t idx =
  match t.inner.Block_io.invalidate idx with
  | Ok () ->
    charge_write t idx t.inner.Block_io.block_size;
    Ok ()
  | Error _ as e -> e

let io t : Block_io.t =
  {
    t.inner with
    read = read t;
    read_many = Some (read_many t);
    append = append t;
    invalidate = invalidate t;
  }

let busy_us t = t.busy_us
let head_position t = t.read_head
let seeks t = t.seeks
