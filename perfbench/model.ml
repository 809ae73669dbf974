(* The benchmark's own record of every acknowledged append: per sublog,
   the timestamps and payload digests in append order, plus a global
   sequence number and the durability watermark (every append acked before
   the last forced write must survive a crash). Read results are checked
   against it, never against the server. *)

let ( let* ) = Result.bind

type sublog = {
  path : string;
  id : Clio.Ids.logfile;
  mutable n : int;
  mutable ts : int64 array;
  mutable dg : string array;
  mutable seq : int array;
}

type t = {
  logs : (string, sublog) Hashtbl.t;
  mutable order : sublog array;  (** in creation order *)
  mutable next_seq : int;
  mutable durable : int;  (** appends with [seq < durable] were forced *)
  mutable payload_bytes : int;
  mutable min_ts : int64;
  mutable max_ts : int64;
}

let create () =
  {
    logs = Hashtbl.create 256;
    order = [||];
    next_seq = 0;
    durable = 0;
    payload_bytes = 0;
    min_ts = Int64.max_int;
    max_ts = Int64.min_int;
  }

let add_log t path id =
  match Hashtbl.find_opt t.logs path with
  | Some s -> s
  | None ->
    let s = { path; id; n = 0; ts = Array.make 16 0L; dg = Array.make 16 ""; seq = Array.make 16 0 } in
    Hashtbl.replace t.logs path s;
    t.order <- Array.append t.order [| s |];
    s

let find t path = Hashtbl.find t.logs path

let grow s =
  let cap = 2 * Array.length s.ts in
  let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  s.ts <- extend s.ts 0L;
  s.dg <- extend s.dg "";
  s.seq <- extend s.seq 0

let digest payload = Digest.string payload

(* Record one acknowledged append. Timestamps of a sublog must increase. *)
let ack t s ts payload =
  if s.n = Array.length s.ts then grow s;
  if s.n > 0 && Int64.compare ts s.ts.(s.n - 1) <= 0 then
    failwith (Printf.sprintf "%s: timestamp %Ld not after %Ld" s.path ts s.ts.(s.n - 1));
  s.ts.(s.n) <- ts;
  s.dg.(s.n) <- digest payload;
  s.seq.(s.n) <- t.next_seq;
  s.n <- s.n + 1;
  t.next_seq <- t.next_seq + 1;
  t.payload_bytes <- t.payload_bytes + String.length payload;
  if Int64.compare ts t.min_ts < 0 then t.min_ts <- ts;
  if Int64.compare ts t.max_ts > 0 then t.max_ts <- ts

(* A forced write was acknowledged: everything acked so far is durable. *)
let forced t = t.durable <- t.next_seq

(* Index of the first entry with timestamp >= [ts] ([s.n] if none). *)
let first_at_or_after s ts =
  let lo = ref 0 and hi = ref s.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.compare s.ts.(mid) ts < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let matches s i ~ts ~payload = i < s.n && Int64.equal s.ts.(i) ts && String.equal s.dg.(i) (digest payload)

(* Check the whole store, streamed back entry by entry in any
   interleaving of sublogs but in order within each: [step] takes one
   entry, [finish] checks nothing acked is left over. [allow_loss] lets
   appends acked after the last force be missing (a crash may lose them),
   never any other difference. *)
let check_stream t ~allow_loss =
  let pos = Hashtbl.create 256 in
  Array.iter (fun s -> Hashtbl.replace pos s.id (s, ref 0)) t.order;
  let lossy s i = allow_loss && s.seq.(i) >= t.durable in
  let step ~log ~ts ~payload =
    match Hashtbl.find_opt pos log with
    | None -> Error (Printf.sprintf "entry ts %Ld of an unknown sublog" ts)
    | Some (s, i) ->
      let rec go () =
        if !i >= s.n then Error (Printf.sprintf "%s: unexpected entry ts %Ld" s.path ts)
        else if matches s !i ~ts ~payload then Ok (incr i)
        else if lossy s !i then (incr i; go ())
        else Error (Printf.sprintf "%s: entry %d differs (ts %Ld, want %Ld)" s.path !i ts s.ts.(!i))
      in
      go ()
  in
  let finish () =
    Hashtbl.fold
      (fun _ (s, i) acc ->
        let* () = acc in
        let rec rest j =
          if j >= s.n then Ok ()
          else if lossy s j then rest (j + 1)
          else Error (Printf.sprintf "%s: acked entry %d (ts %Ld) missing" s.path j s.ts.(j))
        in
        rest !i)
      pos (Ok ())
  in
  (step, finish)
