(* Bounded memo table: hash table + FIFO insertion queue. A FIFO bound (not
   LRU) is enough here — entries are cheap to recompute and the table only
   exists to make the steady state free. *)
module Bounded = struct
  type ('k, 'v) t = { cap : int; tbl : ('k, 'v) Hashtbl.t; fifo : 'k Queue.t }

  let create cap = { cap; tbl = Hashtbl.create 256; fifo = Queue.create () }
  let find t k = Hashtbl.find_opt t.tbl k
  let remove t k = Hashtbl.remove t.tbl k

  let set t k v =
    if not (Hashtbl.mem t.tbl k) then begin
      (* Evict oldest first; keys already replaced out of the table make the
         removal a no-op and the loop keeps going. *)
      while Hashtbl.length t.tbl >= t.cap && not (Queue.is_empty t.fifo) do
        Hashtbl.remove t.tbl (Queue.pop t.fifo)
      done;
      Queue.push k t.fifo
    end;
    Hashtbl.replace t.tbl k v

  let clear t =
    Hashtbl.reset t.tbl;
    Queue.clear t.fifo

  let length t = Hashtbl.length t.tbl
end

type t = {
  entries : (int * int * int, string option * int) Bounded.t;
      (* (vol, level, boundary) -> encoded entrymap entry (4 B per log file,
         some 90 decoded) or confirmed absence, stamped with the generation *)
  next_links : (int * int * int, int * int) Bounded.t;
      (* (vol, log, from) -> smallest settled block >= from holding entries
         of log, with nothing of log in [from, block) *)
  prev_links : (int * int * int * int, int * int) Bounded.t;
      (* (vol, log, limit, frontier) -> greatest settled block < limit
         holding entries of log. The device frontier is part of the key: a
         tail flush adds a settled block without necessarily moving the
         written limit, and links learned before the flush must not answer
         queries made after it. *)
}

let create ?(capacity = 8192) () =
  {
    entries = Bounded.create capacity;
    next_links = Bounded.create capacity;
    prev_links = Bounded.create capacity;
  }

let clear t =
  Bounded.clear t.entries;
  Bounded.clear t.next_links;
  Bounded.clear t.prev_links

let resident t =
  Bounded.length t.entries + Bounded.length t.next_links + Bounded.length t.prev_links

(* Every lookup is generation-checked: invalidating any block of a volume
   bumps its generation, and a stale entry is dropped on first contact. This
   is coarse (one invalidation flushes the whole volume's memo) but
   invalidations are rare — bad blocks and scrubbing — and write-once media
   guarantee everything else can never go stale. *)

let check_gen tbl key ~gen =
  match Bounded.find tbl key with
  | Some (v, g) when g = gen -> Some v
  | Some _ ->
    Bounded.remove tbl key;
    None
  | None -> None

let find_entry t ~vol ~level ~boundary ~gen = check_gen t.entries (vol, level, boundary) ~gen

let store_entry t ~vol ~level ~boundary ~gen entry =
  Bounded.set t.entries (vol, level, boundary) (entry, gen)

let find_next t ~vol ~log ~from ~gen = check_gen t.next_links (vol, log, from) ~gen
let store_next t ~vol ~log ~from ~gen block = Bounded.set t.next_links (vol, log, from) (block, gen)

let find_prev t ~vol ~log ~limit ~frontier ~gen =
  check_gen t.prev_links (vol, log, limit, frontier) ~gen

let store_prev t ~vol ~log ~limit ~frontier ~gen block =
  Bounded.set t.prev_links (vol, log, limit, frontier) (block, gen)

(* Read-ahead prediction: follow confirmed links outward from [start],
   collecting up to [k] blocks the cursor is about to visit. *)

let predict_next t ~vol ~log ~from ~gen ~k =
  let rec go from k acc =
    if k <= 0 then List.rev acc
    else
      match find_next t ~vol ~log ~from ~gen with
      | Some b -> go (b + 1) (k - 1) (b :: acc)
      | None -> List.rev acc
  in
  go from k []

let predict_prev t ~vol ~log ~before ~frontier ~gen ~k =
  let rec go before k acc =
    if k <= 0 then List.rev acc
    else
      match find_prev t ~vol ~log ~limit:before ~frontier ~gen with
      | Some b -> go b (k - 1) (b :: acc)
      | None -> List.rev acc
  in
  go before k []
