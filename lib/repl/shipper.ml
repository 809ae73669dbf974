(* Primary-side replication driver. One [sync] pass per peer: exchange
   frontiers, stream the settled gap in [Config.repl_batch_blocks]-sized
   runs of verbatim device blocks, then ship the volatile tail image to
   peers that are fully caught up.

   Everything is pull-shaped from the primary's point of view but push-
   shaped on the wire: the replica's frontier (and the cumulative ack after
   every batch) tells the shipper exactly where to resume, so lost
   shipments, lost acks and duplicated deliveries all converge — the
   replica's frontier-skip apply is idempotent, and a retry after a lost
   ack re-sends bytes the replica simply skips. [reshipped] counts the
   genuinely wasted case — blocks re-sent below the highest ack we have
   actually received — and stays 0 under any fault schedule. *)

type peer = {
  name : string;
  transport : Uio.Transport.t;
  acked : (int, int) Hashtbl.t;  (** vol_index -> highest received cumulative ack *)
  mutable fenced : bool;  (** this peer outranks us (or speaks a foreign sequence) *)
}

type t = {
  srv : Clio.Server.t;
  peers : peer list;
  max_attempts : int;
  backoff_us : int64;
  mutable reshipped : int;
}

let create ?(max_attempts = 30) ?(backoff_us = 500L) srv peers =
  let peers =
    List.map
      (fun (name, transport) ->
        { name; transport; acked = Hashtbl.create 4; fenced = false })
      peers
  in
  { srv; peers; max_attempts; backoff_us; reshipped = 0 }

let reshipped t = t.reshipped
let fenced_peers t = List.filter_map (fun p -> if p.fenced then Some p.name else None) t.peers

let stats t = Clio.Server.stats t.srv

(* Bounded resend loop over a possibly-lossy transport. Safe to retry
   blindly: every replication request is idempotent by construction (the
   replica skips below its frontier, re-stages an identical tail image,
   re-answers a frontier). Backoff advances the transport's clock so
   waiting costs simulated time. *)
let call t peer req =
  let wire = Uio.Message.encode_request req in
  let clock = Uio.Transport.clock peer.transport in
  let rec go attempt =
    match Uio.Transport.call peer.transport wire with
    | exception Uio.Transport.Timeout when attempt + 1 < t.max_attempts ->
      Sim.Clock.advance clock (Int64.mul t.backoff_us (Int64.of_int (attempt + 1)));
      go (attempt + 1)
    | exception Uio.Transport.Disconnected when attempt + 1 < t.max_attempts ->
      Sim.Clock.advance clock (Int64.mul t.backoff_us (Int64.of_int (attempt + 1)));
      go (attempt + 1)
    | exception Uio.Transport.Timeout -> Error Clio.Errors.Timeout
    | exception Uio.Transport.Disconnected -> Error Clio.Errors.Disconnected
    | raw -> (
      match Uio.Message.decode_response raw with
      | Ok (Uio.Message.R_error e) -> Error e
      | Ok r -> Ok r
      | Error e -> Error e)
  in
  go 0

let fence t peer ~epoch =
  peer.fenced <- true;
  Clio.Server.set_role t.srv (Clio.State.Fenced { epoch; hint = peer.name })

let note_ack peer ~vol_index ~next_block =
  let prev = Option.value ~default:0 (Hashtbl.find_opt peer.acked vol_index) in
  if next_block > prev then Hashtbl.replace peer.acked vol_index next_block

(* Stream [from, settled) of one volume to [peer]. Returns how far the
   replica acknowledged (which is also where the next sync resumes). *)
let ship_vol t peer ~epoch ~seq_uid ~vol_index v ~from ~settled =
  let dev = v.Clio.Vol.dev in
  let batch = (Clio.Server.config t.srv).Clio.Config.repl_batch_blocks in
  let rec go cur =
    if cur >= settled || peer.fenced then cur
    else begin
      let n = min batch (settled - cur) in
      let idxs = List.init n (fun i -> cur + i) in
      let reads = Worm.Block_io.read_many dev idxs in
      let ok, blocks =
        List.fold_left
          (fun (ok, acc) r ->
            match r with Ok b -> (ok, Bytes.to_string b :: acc) | Error _ -> (false, acc))
          (true, []) reads
      in
      if not ok then cur
      else begin
        let blocks = List.rev blocks in
        let high = Option.value ~default:0 (Hashtbl.find_opt peer.acked vol_index) in
        List.iter (fun i -> if i < high then t.reshipped <- t.reshipped + 1) idxs;
        match
          call t peer
            (Uio.Message.Repl_blocks { epoch; seq_uid; vol_index; first_block = cur; blocks })
        with
        | Ok (Uio.Message.R_repl_ack { next_block; _ }) ->
          let s = stats t in
          s.Clio.Stats.repl_blocks_shipped <- s.Clio.Stats.repl_blocks_shipped + n;
          note_ack peer ~vol_index ~next_block;
          if next_block <= cur then cur (* no progress; retry next sync *)
          else go next_block
        | Ok _ -> cur
        | Error (Clio.Errors.Stale_epoch e) ->
          fence t peer ~epoch:e;
          cur
        | Error _ -> cur
      end
    end
  in
  go from

let ship_tail t peer ~epoch ~seq_uid ~vol_index v =
  if (not v.Clio.Vol.tail_open) || Clio.Block_format.Builder.is_empty v.Clio.Vol.tail then ()
  else begin
    let image = Clio.Block_format.Builder.finish ~forced:true v.Clio.Vol.tail in
    match
      call t peer
        (Uio.Message.Repl_tail
           {
             epoch;
             seq_uid;
             vol_index;
             block = v.Clio.Vol.tail_index;
             image = Bytes.to_string image;
           })
    with
    | Ok (Uio.Message.R_repl_ack _) ->
      let s = stats t in
      s.Clio.Stats.repl_tail_ships <- s.Clio.Stats.repl_tail_ships + 1
    | Ok _ -> ()
    | Error (Clio.Errors.Stale_epoch e) -> fence t peer ~epoch:e
    | Error _ -> ()
  end

(* One replication pass for one peer: frontier exchange, gap streaming per
   volume, tail shipment when fully caught up. Returns the peer's lag in
   settled blocks as of this pass. *)
let sync_peer t peer =
  let st = Clio.Server.state t.srv in
  let epoch = Clio.Server.epoch t.srv in
  let seq_uid = st.Clio.State.seq_uid in
  match call t peer (Uio.Message.Repl_frontier { epoch }) with
  | Error (Clio.Errors.Stale_epoch e) ->
    fence t peer ~epoch:e;
    0
  | Error _ ->
    (* Peer unreachable this pass; report lag from what we know. *)
    Array.to_list st.Clio.State.vols
    |> List.mapi (fun i v ->
           let settled = Clio.Vol.device_frontier v in
           let acked = Option.value ~default:0 (Hashtbl.find_opt peer.acked i) in
           max 0 (settled - acked))
    |> List.fold_left ( + ) 0
  | Ok (Uio.Message.R_repl_frontier { seq_uid = rsuid; vols = rvols; _ }) ->
    if rsuid <> 0L && rsuid <> seq_uid then begin
      (* A replica holding a foreign volume sequence can never be caught
         up by shipping; stop talking to it rather than corrupt it. *)
      peer.fenced <- true;
      0
    end
    else begin
      let nvols = Array.length st.Clio.State.vols in
      let had_gap = ref false in
      let lag = ref 0 in
      (* Volumes ship strictly in order: a replica holds a volume whole
         before it sees its successor's header, so a reader crossing the
         boundary never passes blocks still in flight. *)
      let stalled = ref false in
      Array.iteri
        (fun vol_index v ->
          if not peer.fenced then begin
            let settled = Clio.Vol.device_frontier v in
            let rf =
              Option.value ~default:0 (List.assoc_opt vol_index rvols)
            in
            note_ack peer ~vol_index ~next_block:rf;
            if rf < settled then had_gap := true;
            let reached =
              if rf < settled && not !stalled then
                ship_vol t peer ~epoch ~seq_uid ~vol_index v ~from:rf ~settled
              else rf
            in
            if reached < settled then stalled := true;
            lag := !lag + max 0 (settled - reached)
          end)
        st.Clio.State.vols;
      if !had_gap then begin
        let s = stats t in
        s.Clio.Stats.repl_catchup_rounds <- s.Clio.Stats.repl_catchup_rounds + 1
      end;
      (* Only a peer with no settled gap can meaningfully stage the tail. *)
      if (not peer.fenced) && !lag = 0 && nvols > 0 then
        ship_tail t peer ~epoch ~seq_uid ~vol_index:(nvols - 1)
          st.Clio.State.vols.(nvols - 1);
      !lag
    end
  | Ok _ -> 0

let sync t =
  match Clio.Server.role t.srv with
  | Clio.State.Replica _ | Clio.State.Fenced _ -> ()
  | Clio.State.Primary _ ->
    (* Re-check the role between peers: fencing discovered while syncing
       one peer must stop the pass — a deposed primary has no business
       pushing its tail to the replicas it hasn't talked to yet. *)
    let worst =
      List.fold_left
        (fun acc peer ->
          match Clio.Server.role t.srv with
          | Clio.State.Primary _ when not peer.fenced -> max acc (sync_peer t peer)
          | _ -> acc)
        0 t.peers
    in
    Clio.Server.set_repl_lag_blocks t.srv worst
