(* A read replica: raw WORM devices populated exclusively by the primary's
   shipper, one server caught up from them in place, and an RPC endpoint
   that intercepts Repl_* traffic before the plain dispatcher sees it.

   The invariant everything rests on: the replica's devices are written only
   by [apply] (verbatim shipped bytes, in order, at the shipped indices), so
   they are byte-identical to the primary's settled storage up to the
   frontier, and the server runs recovery's steps over them a few blocks at
   a time — replication is recovery, continuously. *)

type t = {
  alloc : vol_index:int -> (Worm.Block_io.t, Clio.Errors.t) result;
      (** the raw device backing a new volume, recorded in [devices] *)
  primary_hint : string;
  devices : (int, Worm.Block_io.t) Hashtbl.t;  (** vol_index -> raw device *)
  mutable seq_uid : int64;  (** 0L until the first shipment names one *)
  srv : Clio.Server.t;
      (** holds no volumes until the first shipment; its role carries the
          epoch, and [Primary] once promoted *)
  rpc : Uio.Rpc_server.t;
}

let ( let* ) = Clio.Errors.( let* )

let demote srv ~epoch ~primary_hint =
  Clio.Server.set_role srv (Clio.State.Replica { epoch; primary_hint })

(* A new volume arrives by shipment, or, once promoted, when the server's
   own writer rolls over; either way it is one of the replica's devices. *)
let create ?config ?nvram ~clock ~alloc ~primary_hint () =
  let devices = Hashtbl.create 4 in
  let alloc ~vol_index =
    let* d = alloc ~vol_index in
    Hashtbl.replace devices vol_index d;
    Ok d
  in
  let srv =
    match Clio.Server.recover ?config ~clock ?nvram ~alloc_volume:alloc ~devices:[] () with
    | Ok srv -> srv
    | Error e -> invalid_arg ("Replica.create: " ^ Clio.Errors.to_string e)
  in
  demote srv ~epoch:1 ~primary_hint;
  let rpc = Uio.Rpc_server.create srv in
  { alloc; primary_hint; devices; seq_uid = 0L; srv; rpc }

let stats t = Clio.Server.stats t.srv
let epoch t = Clio.Server.epoch t.srv
let blocks_applied t = (stats t).Clio.Stats.repl_blocks_applied
let tail_applies t = (stats t).Clio.Stats.repl_tail_applies
let epoch_rejects t = (stats t).Clio.Stats.repl_epoch_rejects

let nvols t = Hashtbl.length t.devices
let nvram t = (Clio.Server.state t.srv).Clio.State.nvram

let device t i = Hashtbl.find_opt t.devices i
let devices t = List.init (nvols t) (Hashtbl.find t.devices)

let frontier_of dev =
  match dev.Worm.Block_io.frontier () with Some f -> f | None -> 0

(* Bring the server up to whatever has been applied: exactly the steps a
   rebooted primary runs, so catalog, entrymaps and the NVRAM-staged tail
   replay identically. A promoted replica writes its own devices and is
   past catching up. *)
let server t =
  if nvols t = 0 then Error (Clio.Errors.Bad_record "replica holds no volumes yet")
  else
    match Clio.Server.role t.srv with
    | Clio.State.Primary _ -> Ok t.srv
    | Clio.State.Replica _ | Clio.State.Fenced _ ->
      let* () = Clio.Server.catch_up t.srv ~devices:(devices t) in
      Ok t.srv

(* Drop the staged tail image once applied settled blocks have passed the
   block it names: the settled bytes supersede it. Without this, a tail that
   the primary's bad-block retry displaced to a later index would survive
   the recovery stale-check (the named block reads back invalidated, not
   valid) and resurrect already-settled entries on promotion. *)
let drop_stale_tail t ~frontier =
  match nvram t with
  | None -> ()
  | Some nv -> (
    match Worm.Nvram.load nv with
    | Some (block, _) when block < frontier -> Worm.Nvram.clear nv
    | _ -> ())

let ack t ~vol_index ~next_block =
  Uio.Message.R_repl_ack { epoch = epoch t; vol_index; next_block }

let apply_blocks t ~seq_uid ~vol_index ~first_block blocks =
  if t.seq_uid <> 0L && seq_uid <> t.seq_uid then
    Error (Clio.Errors.Bad_record "replication shipment from a different volume sequence")
  else begin
    t.seq_uid <- seq_uid;
    match device t vol_index with
    | None when vol_index <> nvols t || first_block <> 0 ->
      (* A volume we have never seen must arrive from its header on;
         NACK-ack frontier 0 so the shipper restarts that stream. *)
      Ok (ack t ~vol_index ~next_block:0)
    | found ->
      let* dev = match found with Some d -> Ok d | None -> t.alloc ~vol_index in
      let frontier = frontier_of dev in
      if first_block > frontier then
        (* Gap: an earlier shipment was lost. NACK-ack where we really are. *)
        Ok (ack t ~vol_index ~next_block:frontier)
      else begin
        (* Skip the prefix we already hold (idempotent re-delivery), append
           the rest in order, insisting the device lands each block exactly
           where the primary had it. *)
        let rec go idx = function
          | [] -> Ok ()
          | image :: rest ->
            if idx < frontier then go (idx + 1) rest
            else if String.length image <> dev.Worm.Block_io.block_size then
              Error (Clio.Errors.Bad_record "shipped block has the wrong size")
            else begin
              match dev.Worm.Block_io.append (Bytes.of_string image) with
              | Ok got when got = idx ->
                let s = stats t in
                s.Clio.Stats.repl_blocks_applied <- s.Clio.Stats.repl_blocks_applied + 1;
                go (idx + 1) rest
              | Ok got ->
                Error
                  (Clio.Errors.Bad_record
                     (Printf.sprintf "replica device diverged: block %d landed at %d" idx got))
              | Error e -> Error (Clio.Errors.Device e)
            end
        in
        let* () = go first_block blocks in
        let f = frontier_of dev in
        drop_stale_tail t ~frontier:f;
        Ok (ack t ~vol_index ~next_block:f)
      end
  end

let apply_tail t ~seq_uid ~vol_index ~block image =
  if t.seq_uid <> 0L && seq_uid <> t.seq_uid then
    Error (Clio.Errors.Bad_record "replication shipment from a different volume sequence")
  else
    match device t vol_index with
    | None -> Ok (ack t ~vol_index ~next_block:0)
    | Some dev ->
      let frontier = frontier_of dev in
      (* Only a fully caught-up replica stages the tail: the image is
         meaningful only at the exact frontier, and only for the active
         (last) volume. A lagging replica acks its unchanged frontier. *)
      (if frontier = block && vol_index = nvols t - 1 then
         match nvram t with
         | Some nv ->
           Worm.Nvram.store nv ~block (Bytes.of_string image);
           let s = stats t in
           s.Clio.Stats.repl_tail_applies <- s.Clio.Stats.repl_tail_applies + 1
         | None -> ());
      Ok (ack t ~vol_index ~next_block:frontier)

let frontiers t = List.mapi (fun i d -> (i, frontier_of d)) (devices t)

(* Epoch gate, shared by every Repl_* message. A stale sender gets
   [Stale_epoch] (that is how a deposed primary learns it was fenced); a
   newer epoch is adopted — if we had promoted ourselves, a newer primary
   re-demotes us. *)
let check_epoch t e =
  if e < epoch t then begin
    let s = stats t in
    s.Clio.Stats.repl_epoch_rejects <- s.Clio.Stats.repl_epoch_rejects + 1;
    Error (Clio.Errors.Stale_epoch (epoch t))
  end
  else begin
    if e > epoch t then demote t.srv ~epoch:e ~primary_hint:t.primary_hint;
    Ok ()
  end

let encode r = Uio.Message.encode_response r
let encode_err e = Uio.Message.encode_response (Uio.Message.R_error e)

let handle_repl t (req : Uio.Message.request) =
  match req with
  | Uio.Message.Repl_frontier { epoch } ->
    let* () = check_epoch t epoch in
    Ok
      (Uio.Message.R_repl_frontier
         { epoch = Clio.Server.epoch t.srv; seq_uid = t.seq_uid; vols = frontiers t })
  | Uio.Message.Repl_blocks { epoch; seq_uid; vol_index; first_block; blocks } ->
    let* () = check_epoch t epoch in
    apply_blocks t ~seq_uid ~vol_index ~first_block blocks
  | Uio.Message.Repl_tail { epoch; seq_uid; vol_index; block; image } ->
    let* () = check_epoch t epoch in
    apply_tail t ~seq_uid ~vol_index ~block image
  | _ -> assert false

let handler t raw =
  match Uio.Message.decode_request raw with
  | Ok
      ((Uio.Message.Repl_frontier _ | Uio.Message.Repl_blocks _ | Uio.Message.Repl_tail _)
       as req) -> (
    match handle_repl t req with Ok r -> encode r | Error e -> encode_err e)
  | Ok _ | Error _ -> (
    (* Client traffic: catch the server up with whatever has been applied
       so far, then let the ordinary dispatcher answer. The Replica role
       refuses writes with [Not_primary] + hint. *)
    match server t with
    | Error e -> encode_err e
    | Ok _ -> Uio.Rpc_server.handle t.rpc raw)

let promote t =
  (* The last catch-up replays the NVRAM-staged tail image, so every entry
     the primary had acknowledged — settled or staged — is served by the
     new primary, on the same server that served the reads. *)
  let* srv = server t in
  Clio.Server.set_role srv (Clio.State.Primary { epoch = epoch t + 1 });
  Ok srv
