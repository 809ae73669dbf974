(* In-memory span recorder, driven from the benchmark's own wrappers around
   the calls into each layer (client call, transport handler, device op,
   shipper sync, recovery). A span carries its request id and its parent;
   device operations are folded into the span that issued them (count,
   wall ns, modeled us) rather than kept one by one, because a single time
   search can touch hundreds of blocks. With [on = false] every entry
   point is a plain call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  req : int;
  layer : string;
  w0 : int64;  (** wall ns *)
  mutable w1 : int64;
  m0 : int64;  (** modeled us *)
  mutable m1 : int64;
  mutable dev_ops : int;
  mutable dev_blocks : int;  (** blocks read, appended or invalidated *)
  mutable dev_ns : int64;
  mutable dev_us : int64;
}

type t = {
  clock : Sim.Clock.t;
  mutable on : bool;
  mutable stack : span list;
  mutable spans : span list;  (** finished and not yet taken, newest first *)
  mutable kept : span list;
  mutable kept_n : int;
  mutable next_id : int;
  mutable req : int;
}

let wall_ns () = Monotonic_clock.now ()

(* [from] is the tracer of the stack this one replaces: its kept spans
   and its ids carry over, so one run's spans stay one record. *)
let create ?from clock =
  match from with
  | None -> { clock; on = false; stack = []; spans = []; kept = []; kept_n = 0; next_id = 0; req = 0 }
  | Some f -> { f with clock; on = false; stack = []; spans = [] }

let span t layer f =
  if not t.on then f ()
  else begin
    let parent, req =
      match t.stack with
      | p :: _ -> (p.id, p.req)
      | [] ->
        t.req <- t.req + 1;
        (-1, t.req)
    in
    let s =
      {
        id = t.next_id;
        parent;
        req;
        layer;
        w0 = wall_ns ();
        w1 = 0L;
        m0 = Sim.Clock.peek t.clock;
        m1 = 0L;
        dev_ops = 0;
        dev_blocks = 0;
        dev_ns = 0L;
        dev_us = 0L;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- s :: t.stack;
    let finish () =
      s.w1 <- wall_ns ();
      s.m1 <- Sim.Clock.peek t.clock;
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A device operation on [blocks] blocks: charged to the innermost open
   span. Operations outside any span (preloading during set-up) are not
   recorded. *)
let device t ~blocks f =
  match t.stack with
  | s :: _ when t.on ->
    let w0 = wall_ns () and m0 = Sim.Clock.peek t.clock in
    let v = f () in
    s.dev_ops <- s.dev_ops + 1;
    s.dev_blocks <- s.dev_blocks + blocks;
    s.dev_ns <- Int64.add s.dev_ns (Int64.sub (wall_ns ()) w0);
    s.dev_us <- Int64.add s.dev_us (Int64.sub (Sim.Clock.peek t.clock) m0);
    v
  | _ -> f ()

let to_derived (s : span) : Derived.span =
  { id = s.id; parent = s.parent; layer = s.layer; w0 = s.w0; w1 = s.w1; m0 = s.m0; m1 = s.m1; dev_blocks = s.dev_blocks; dev_ns = s.dev_ns; dev_us = s.dev_us }

(* Remove and return the spans of the request that finished last (its
   root and every descendant, which finished before it). The first
   [keep_limit] spans taken are also kept for {!write_jsonl}. *)
let keep_limit = 20000

let take_request t =
  match t.spans with
  | [] -> []
  | root :: _ ->
    let mine, rest = List.partition (fun (s : span) -> s.req = root.req) t.spans in
    t.spans <- rest;
    if t.kept_n < keep_limit then begin
      t.kept <- List.rev_append mine t.kept;
      t.kept_n <- t.kept_n + List.length mine
    end;
    List.map to_derived mine

let jsonl_line s =
  Printf.sprintf
    {|{"id":%d,"parent":%d,"req":%d,"layer":"%s","wall_ns":[%Ld,%Ld],"modeled_us":[%Ld,%Ld],"device":{"ops":%d,"blocks":%d,"wall_ns":%Ld,"modeled_us":%Ld}}|}
    s.id s.parent s.req s.layer s.w0 s.w1 s.m0 s.m1 s.dev_ops s.dev_blocks s.dev_ns s.dev_us

let write_jsonl t path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (jsonl_line s ^ "\n")) (List.sort (fun (a : span) b -> compare a.id b.id) t.kept);
  close_out oc
