type partition = Meta | Data

type segment_stats = {
  meta_hits : int;
  meta_misses : int;
  data_hits : int;
  data_misses : int;
  meta_resident : int;
  probation_resident : int;
  protected_resident : int;
  meta_evictions : int;
  data_evictions : int;
  promotions : int;
}

type t = {
  inner : Worm.Block_io.t;
  meta : bytes Lru.t;
  probation : bytes Lru.t;
  protected : bytes Lru.t;
  classify : bytes -> partition;
  mutable misses : int;
  mutable meta_hits : int;
  mutable meta_misses : int;
  mutable data_hits : int;
  mutable data_misses : int;
  mutable meta_evictions : int;
  mutable data_evictions : int;
  mutable promotions : int;
}

let create ?(capacity_blocks = 1024) ?meta_blocks ?(classify = fun _ -> Data) inner =
  (* The entrymap interior nodes every locate descends through are a small
     fraction of the traffic but the highest-value residents; they get their
     own partition so a data scan can never push them out. The data side is
     segmented LRU: first touch lands in probation, only a second touch earns
     protected residency, so a one-pass scan churns probation alone. *)
  let meta_cap =
    match meta_blocks with Some m -> max 1 m | None -> max 1 (capacity_blocks / 8)
  in
  let data_cap = max 2 (capacity_blocks - meta_cap) in
  let probation_cap = max 1 (data_cap / 2) in
  let protected_cap = max 1 (data_cap - probation_cap) in
  {
    inner;
    meta = Lru.create ~capacity:meta_cap;
    probation = Lru.create ~capacity:probation_cap;
    protected = Lru.create ~capacity:protected_cap;
    classify;
    misses = 0;
    meta_hits = 0;
    meta_misses = 0;
    data_hits = 0;
    data_misses = 0;
    meta_evictions = 0;
    data_evictions = 0;
    promotions = 0;
  }

let count_hit t = function
  | Meta -> t.meta_hits <- t.meta_hits + 1
  | Data -> t.data_hits <- t.data_hits + 1

let count_miss_partition t = function
  | Meta -> t.meta_misses <- t.meta_misses + 1
  | Data -> t.data_misses <- t.data_misses + 1

(* Resident lookup with the segmented promotion policy: a probation hit is
   the block's second touch, which moves it to the protected segment; the
   protected segment's own LRU victim is demoted back to probation (one more
   chance) rather than dropped outright. *)
let find_resident t idx =
  match Lru.find t.meta idx with
  | Some b -> Some (Meta, b)
  | None -> (
    match Lru.find t.protected idx with
    | Some b -> Some (Data, b)
    | None -> (
      match Lru.find t.probation idx with
      | Some b ->
        Lru.remove t.probation idx;
        (match Lru.add t.protected idx b with
        | Some (k, v) -> (
          match Lru.add t.probation k v with
          | Some _ -> t.data_evictions <- t.data_evictions + 1
          | None -> ())
        | None -> ());
        t.promotions <- t.promotions + 1;
        Some (Data, b)
      | None -> None))

let insert t idx b =
  let p = t.classify b in
  (match p with
  | Meta -> (
    match Lru.add t.meta idx (Bytes.copy b) with
    | Some _ -> t.meta_evictions <- t.meta_evictions + 1
    | None -> ())
  | Data -> (
    match Lru.add t.probation idx (Bytes.copy b) with
    | Some _ -> t.data_evictions <- t.data_evictions + 1
    | None -> ()));
  p

(* Cached blocks are handed out as copies in both directions: the cache owns
   its buffers exclusively. Returning the resident [bytes] aliased let a
   caller's in-place mutation silently corrupt every later hit (and any CRC
   check made against it). *)
let read t idx : (bytes, Worm.Block_io.error) result =
  match find_resident t idx with
  | Some (p, b) ->
    count_hit t p;
    Ok (Bytes.copy b)
  | None -> (
    t.misses <- t.misses + 1;
    match t.inner.Worm.Block_io.read idx with
    | Ok b ->
      count_miss_partition t (insert t idx b);
      Ok b
    | Error _ as e -> e)

(* Batched read: resident blocks are served (and promoted) from the cache;
   the misses go to the device in one [read_many] call, so a seek-charging
   device pays one head movement per contiguous run of absent blocks. *)
let read_many t idxs : (bytes, Worm.Block_io.error) result list =
  let first_pass =
    List.map
      (fun idx ->
        match find_resident t idx with
        | Some (p, b) ->
          count_hit t p;
          (idx, Some (Ok (Bytes.copy b)))
        | None ->
          t.misses <- t.misses + 1;
          (idx, None))
      idxs
  in
  let missing = List.filter_map (fun (idx, r) -> if r = None then Some idx else None) first_pass in
  let fetched =
    if missing = [] then []
    else
      List.combine missing (Worm.Block_io.read_many t.inner missing)
  in
  List.iter
    (fun (idx, r) -> match r with Ok b -> ignore (count_miss_partition t (insert t idx b)) | Error _ -> ())
    fetched;
  let remaining = ref fetched in
  List.map
    (fun (_, r) ->
      match r with
      | Some r -> r
      | None ->
        let _, r = List.hd !remaining in
        remaining := List.tl !remaining;
        r)
    first_pass

let append t data =
  match t.inner.Worm.Block_io.append data with
  | Ok idx ->
    ignore (insert t idx data);
    Ok idx
  | Error _ as e -> e

let invalidate t idx =
  Lru.remove t.meta idx;
  Lru.remove t.probation idx;
  Lru.remove t.protected idx;
  t.inner.Worm.Block_io.invalidate idx

let io t : Worm.Block_io.t =
  {
    t.inner with
    read = read t;
    read_many = Some (read_many t);
    append = append t;
    invalidate = invalidate t;
  }

let hits t = t.meta_hits + t.data_hits
let misses t = t.misses
let resident t = Lru.length t.meta + Lru.length t.probation + Lru.length t.protected

let contains t idx =
  Lru.peek t.meta idx <> None
  || Lru.peek t.probation idx <> None
  || Lru.peek t.protected idx <> None

let segments t =
  {
    meta_hits = t.meta_hits;
    meta_misses = t.meta_misses;
    data_hits = t.data_hits;
    data_misses = t.data_misses;
    meta_resident = Lru.length t.meta;
    probation_resident = Lru.length t.probation;
    protected_resident = Lru.length t.protected;
    meta_evictions = t.meta_evictions;
    data_evictions = t.data_evictions;
    promotions = t.promotions;
  }

let preload t idx =
  match read t idx with Ok _ -> Ok () | Error e -> Error e

let drop t =
  Lru.clear t.meta;
  Lru.clear t.probation;
  Lru.clear t.protected

let reset_counters t =
  t.misses <- 0;
  t.meta_hits <- 0;
  t.meta_misses <- 0;
  t.data_hits <- 0;
  t.data_misses <- 0;
  t.meta_evictions <- 0;
  t.data_evictions <- 0;
  t.promotions <- 0
