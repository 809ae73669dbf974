type t = {
  hdr : Volume.header;
  dev : Worm.Block_io.t;
  cache : Blockcache.Cache.t;
  io : Worm.Block_io.t;
  pending : Entrymap.Pending.t;
  tail : Block_format.Builder.t;
  mutable tail_index : int;
  mutable tail_open : bool;
  mutable sealed : bool;
  mutable online : bool;
  read_gen : int ref;
}

(* Partition hint for the segmented cache: entrymap (and other internal)
   blocks are the interior nodes every locate descends through — they go to
   the meta partition so a data scan can never displace them. The first
   record of a block starts at offset 0, so one header decode suffices. *)
let classify_block b =
  match Header.decode b ~pos:0 with
  | Ok (h, _) when Ids.is_internal h.Header.logfile -> Blockcache.Cache.Meta
  | Ok _ | Error _ -> Blockcache.Cache.Data

let make ~config ~hdr dev =
  let cache =
    Blockcache.Cache.create ~capacity_blocks:config.Config.cache_blocks
      ~classify:classify_block dev
  in
  let cache_io = Blockcache.Cache.io cache in
  (* Invalidation is the only way a settled block's contents can change on
     write-once media; bumping the generation here lazily flushes every
     read-path memo entry for this volume. *)
  let read_gen = ref 0 in
  let io =
    {
      cache_io with
      Worm.Block_io.invalidate =
        (fun idx ->
          incr read_gen;
          cache_io.Worm.Block_io.invalidate idx);
    }
  in
  let levels = Config.levels config ~capacity:hdr.Volume.capacity in
  {
    hdr;
    dev;
    cache;
    io;
    pending = Entrymap.Pending.create ~fanout:hdr.Volume.fanout ~levels;
    tail = Block_format.Builder.create ~block_size:hdr.Volume.block_size;
    tail_index = 0;
    tail_open = false;
    sealed = false;
    online = true;
    read_gen;
  }

let levels t = Entrymap.Pending.levels t.pending
let fanout t = t.hdr.Volume.fanout

let pow_fanout t l =
  let rec go acc l = if l = 0 then acc else go (acc * fanout t) (l - 1) in
  go 1 l

let device_frontier t =
  match t.dev.Worm.Block_io.frontier () with
  | Some f -> f
  | None -> if t.tail_open then t.tail_index else t.tail_index

let written_limit t =
  if t.tail_open && not (Block_format.Builder.is_empty t.tail) then t.tail_index + 1
  else device_frontier t

type view =
  | Records of Block_format.record array
  | Invalid
  | Corrupted
  | Missing

let view_block t idx =
  if idx <= 0 || idx >= t.hdr.Volume.capacity then Invalid
  else if t.tail_open && idx = t.tail_index then
    Records (Block_format.Builder.records t.tail)
  else
    match t.io.Worm.Block_io.read idx with
    | Error (Worm.Block_io.Unwritten _) -> Missing
    | Error _ -> Missing
    | Ok b -> (
      match Block_format.classify b with
      | Block_format.Valid records -> Records records
      | Block_format.Invalidated -> Invalid
      | Block_format.Corrupt -> Corrupted)

let first_timestamp t idx =
  match view_block t idx with
  | Records records -> Block_format.first_timestamp records
  | Invalid | Corrupted | Missing -> None
