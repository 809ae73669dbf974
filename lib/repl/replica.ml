(* A read replica: raw WORM devices populated exclusively by the primary's
   shipper, a server rebuilt from them on demand, and an RPC endpoint that
   intercepts Repl_* traffic before the plain dispatcher sees it.

   The invariant everything rests on: the replica's devices are written only
   by [apply] (verbatim shipped bytes, in order, at the shipped indices), so
   they are byte-identical to the primary's settled storage up to the
   frontier. The server layered on top is therefore the same server recovery
   would build on the primary after a crash — replication is recovery,
   continuously. *)

type t = {
  config : Clio.Config.t;
  clock : Sim.Clock.t;
  nvram : Worm.Nvram.t option;
  alloc : vol_index:int -> (Worm.Block_io.t, Clio.Errors.t) result;
      (** hands out the raw device backing a newly shipped volume *)
  primary_hint : string;
  devices : (int, Worm.Block_io.t) Hashtbl.t;  (** vol_index -> raw device *)
  mutable epoch : int;
  mutable seq_uid : int64;  (** 0L until the first shipment names one *)
  mutable promoted : bool;
  mutable srv : Clio.Server.t option;  (** None until first rebuild *)
  mutable rpc : Uio.Rpc_server.t option;
  mutable dirty : bool;  (** devices/NVRAM changed since [srv] was built *)
  (* Lifetime counters. A rebuild starts a fresh [Stats.t], so the replica
     carries these across and writes them back into each new server. *)
  mutable blocks_applied : int;
  mutable tail_applies : int;
  mutable epoch_rejects : int;
}

let ( let* ) = Clio.Errors.( let* )

let create ?config ?nvram ~clock ~alloc ~primary_hint () =
  {
    config = (match config with Some c -> c | None -> Clio.Config.default);
    clock;
    nvram;
    alloc;
    primary_hint;
    devices = Hashtbl.create 4;
    epoch = 1;
    seq_uid = 0L;
    promoted = false;
    srv = None;
    rpc = None;
    dirty = false;
    blocks_applied = 0;
    tail_applies = 0;
    epoch_rejects = 0;
  }

let epoch t = t.epoch
let blocks_applied t = t.blocks_applied
let tail_applies t = t.tail_applies
let epoch_rejects t = t.epoch_rejects

let nvols t = Hashtbl.length t.devices

let device t i = Hashtbl.find_opt t.devices i

let frontier_of dev =
  match dev.Worm.Block_io.frontier () with Some f -> f | None -> 0

let role t : Clio.State.role =
  if t.promoted then Clio.State.Primary { epoch = t.epoch }
  else Clio.State.Replica { epoch = t.epoch; primary_hint = t.primary_hint }

let carry_counters t srv =
  let s = Clio.Server.stats srv in
  ignore (Clio.Stats.set_field s "repl_blocks_applied" t.blocks_applied);
  ignore (Clio.Stats.set_field s "repl_tail_applies" t.tail_applies);
  ignore (Clio.Stats.set_field s "repl_epoch_rejects" t.epoch_rejects)

(* Recovery over the shipped devices — exactly the code path a rebooted
   primary runs, so catalog, entrymaps and the NVRAM-staged tail replay
   identically. The rebuilt server is then demoted to its real role. *)
let rebuild t =
  let devices =
    Hashtbl.fold (fun i d acc -> (i, d) :: acc) t.devices []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  if devices = [] then Error (Clio.Errors.Bad_record "replica holds no volumes yet")
  else
    let alloc_volume ~vol_index:_ = Error (Clio.Errors.Not_primary t.primary_hint) in
    let* srv =
      Clio.Server.recover ~config:t.config ~clock:t.clock ?nvram:t.nvram ~alloc_volume
        ~devices ()
    in
    Clio.Server.set_role srv (role t);
    carry_counters t srv;
    t.srv <- Some srv;
    (match t.rpc with
    | None -> t.rpc <- Some (Uio.Rpc_server.create srv)
    | Some rpc -> Uio.Rpc_server.set_server rpc srv);
    t.dirty <- false;
    Ok srv

let server t =
  match t.srv with
  | Some srv when not t.dirty -> Ok srv
  | _ -> rebuild t

(* Drop the staged tail image once applied settled blocks have passed the
   block it names: the settled bytes supersede it. Without this, a tail that
   the primary's bad-block retry displaced to a later index would survive
   the recovery stale-check (the named block reads back invalidated, not
   valid) and resurrect already-settled entries on promotion. *)
let drop_stale_tail t ~frontier =
  match t.nvram with
  | None -> ()
  | Some nv -> (
    match Worm.Nvram.load nv with
    | Some (block, _) when block < frontier -> Worm.Nvram.clear nv
    | _ -> ())

let ack t ~vol_index ~next_block =
  Uio.Message.R_repl_ack { epoch = t.epoch; vol_index; next_block }

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
      let* dev =
        match found with
        | Some d -> Ok d
        | None ->
          let* d = t.alloc ~vol_index in
          Hashtbl.replace t.devices vol_index d;
          Ok d
      in
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
                t.blocks_applied <- t.blocks_applied + 1;
                t.dirty <- true;
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
         match t.nvram with
         | Some nv ->
           Worm.Nvram.store nv ~block (Bytes.of_string image);
           t.tail_applies <- t.tail_applies + 1;
           t.dirty <- true
         | None -> ());
      Ok (ack t ~vol_index ~next_block:frontier)

let frontiers t =
  List.init (nvols t) (fun i ->
      (i, match device t i with Some d -> frontier_of d | None -> 0))

(* Epoch gate, shared by every Repl_* message. A stale sender gets
   [Stale_epoch] (that is how a deposed primary learns it was fenced); a
   newer epoch is adopted — if we had promoted ourselves, a newer primary
   re-demotes us. *)
let check_epoch t e =
  if e < t.epoch then begin
    t.epoch_rejects <- t.epoch_rejects + 1;
    (match t.srv with Some srv -> carry_counters t srv | None -> ());
    Error (Clio.Errors.Stale_epoch t.epoch)
  end
  else begin
    if e > t.epoch then begin
      t.epoch <- e;
      t.promoted <- false;
      match t.srv with Some srv -> Clio.Server.set_role srv (role t) | None -> ()
    end;
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
         { epoch = t.epoch; seq_uid = t.seq_uid; vols = frontiers t })
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
    (* Client traffic: lazily rebuild the server over whatever has been
       applied so far, then let the ordinary dispatcher answer. The rebuilt
       server's Replica role refuses writes with [Not_primary] + hint. *)
    match server t with
    | Error e -> encode_err e
    | Ok _ -> (
      match t.rpc with
      | Some rpc -> Uio.Rpc_server.handle rpc raw
      | None -> encode_err (Clio.Errors.Bad_record "replica has no server")))

let promote t =
  t.epoch <- t.epoch + 1;
  t.promoted <- true;
  t.dirty <- true;
  (* Rebuild replays the NVRAM-staged tail image through ordinary recovery,
     so every entry the primary had acknowledged — settled or staged — is
     served by the new primary. *)
  let* srv = rebuild t in
  Ok srv
