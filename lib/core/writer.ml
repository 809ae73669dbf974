let ( let* ) = Errors.( let* )

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let collect_files st records =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      List.iter
        (fun id -> if not (Hashtbl.mem tbl id) then Hashtbl.replace tbl id ())
        (State.expand_members st r.Block_format.header))
    records;
  Hashtbl.fold (fun id () acc -> id :: acc) tbl []

let account st hdr_bytes frag_bytes id =
  let s = st.State.stats in
  if id = Ids.entrymap then
    s.Stats.bytes_entrymap <- s.Stats.bytes_entrymap + hdr_bytes + frag_bytes
  else if id = Ids.catalog || id = Ids.badblocks then
    s.Stats.bytes_catalog <- s.Stats.bytes_catalog + hdr_bytes + frag_bytes
  else begin
    s.Stats.bytes_header <- s.Stats.bytes_header + hdr_bytes;
    s.Stats.bytes_client <- s.Stats.bytes_client + frag_bytes
  end

(* ------------------------------------------------------------------ *)
(* Tail lifecycle, fragmentation, flushing, rollover                   *)
(* ------------------------------------------------------------------ *)

(* Opening a block at an N^l boundary makes that boundary's entrymap entries
   due. Emission is itself an append, so it is deferred until no entry is
   mid-flight — fragments of one log file must never interleave, or
   continuation reassembly would mix entries. A deferred entry may land a
   few records or blocks past its well-known position; the locate slack scan
   (section 2.3.2's displacement rule) absorbs that. *)
let rec open_tail st (v : Vol.t) : (unit, Errors.t) result =
  if v.tail_open then Ok ()
  else begin
    v.tail_index <- Vol.device_frontier v;
    v.tail_open <- true;
    let boundary = v.tail_index in
    (* Capture each due entrymap entry now — its covered range is complete
       the moment the boundary block opens — and write it once no entry is
       mid-flight. *)
    let due = Entrymap.Pending.due_at v.pending ~block:boundary in
    List.iter
      (fun level ->
        match Entrymap.Pending.take v.pending ~level ~boundary with
        | None -> ()
        | Some entry -> Queue.add (v, entry) st.State.deferred_emissions)
      due;
    if st.State.in_entry then Ok () else pump_emissions st
  end

and pump_emissions st : (unit, Errors.t) result =
  match Queue.take_opt st.State.deferred_emissions with
  | None -> Ok ()
  | Some (v, entry) ->
    let* active = State.active st in
    if v.Vol.sealed || v != active then pump_emissions st (* lost to a roll; locate falls back *)
    else begin
      let payload = Entrymap.encode entry in
      let header = Header.make ~timestamp:(State.fresh_ts st) Ids.entrymap in
      let* () =
        as_entry st (fun () -> put_bytes st ~first:header ~continues_after:false payload)
      in
      pump_emissions st
    end

(* Run [f] with the in-entry flag set, then emit any entrymap entries that
   became due while it ran. *)
and as_entry st f : (unit, Errors.t) result =
  if st.State.in_entry then f ()
  else begin
    st.State.in_entry <- true;
    let r = f () in
    st.State.in_entry <- false;
    let* () = r in
    pump_emissions st
  end

(* Write [payload] as one or more fragment records on the active volume.
   The first fragment uses [first]; later fragments are version-3
   continuations. [continues_after] marks the final fragment as still
   continuing (used only when re-appending carried records that were
   themselves fragments of a larger entry). *)
and put_bytes st ~first ~continues_after payload : (unit, Errors.t) result =
  let total = String.length payload in
  let cont_id = first.Header.logfile in
  (* [chain] is the fragment-chain checksum of every entry byte already
     written before [offset]. A carried continuation record seeds it from
     its own stored tag, so re-fragmenting the carry keeps tags aligned
     with the original entry's byte stream. *)
  let rec put offset chain hdr =
    let* v = State.active st in
    let* () = open_tail st v in
    (* The first entry that starts in a block must carry a timestamp
       (section 2.1): it is the block's time-search key
       ({!Block_format.first_timestamp}). Upgrade a plain start header staged
       into a block that holds no start yet — whether the block is empty or
       opens with a continuation, which cannot carry a timestamp. *)
    let hdr =
      if
        (not (Block_format.Builder.has_start v.tail))
        && Header.is_start hdr
        && hdr.Header.timestamp = None
      then Header.make ~timestamp:(State.fresh_ts st) hdr.Header.logfile
      else hdr
    in
    let hsize = Header.byte_size hdr in
    let avail = Block_format.Builder.free_bytes v.tail - hsize in
    let remaining = total - offset in
    if avail < 0 || (avail = 0 && remaining > 0) then
      if Block_format.Builder.is_empty v.tail then
        Error (Errors.Entry_too_large (hsize + remaining))
      else
        let* () = flush_tail st v in
        put offset chain hdr
    else begin
      let n = min avail remaining in
      let continues = offset + n < total || continues_after in
      let frag = String.sub payload offset n in
      let* () = Block_format.Builder.add v.tail hdr ~continues frag in
      account st hsize n cont_id;
      if offset + n < total then begin
        let* () = flush_tail st v in
        let chain = Header.chain_update chain frag in
        put (offset + n) chain (Header.continuation ~chain cont_id)
      end
      else Ok ()
    end
  in
  let chain0 =
    if Header.is_start first then Header.chain_seed else first.Header.chain
  in
  put 0 chain0 first

and flush_tail ?(forced = false) st (v : Vol.t) : (unit, Errors.t) result =
  if (not v.tail_open) || Block_format.Builder.is_empty v.tail then begin
    v.tail_open <- false;
    Ok ()
  end
  else begin
    let records = Block_format.Builder.records v.tail in
    let count = Block_format.Builder.count v.tail in
    let data_bytes = Block_format.Builder.data_bytes v.tail in
    let image = Block_format.Builder.finish ~forced v.tail in
    let rec attempt retries =
      match v.io.Worm.Block_io.append image with
      | Ok idx ->
        let s = st.State.stats in
        if idx <> v.tail_index then s.Stats.displaced_blocks <- s.Stats.displaced_blocks + 1;
        Entrymap.Pending.note_block v.pending ~block:idx (collect_files st records);
        s.Stats.blocks_flushed <- s.Stats.blocks_flushed + 1;
        s.Stats.bytes_trailer <- s.Stats.bytes_trailer + Block_format.trailer_bytes;
        s.Stats.bytes_index <- s.Stats.bytes_index + (Block_format.index_entry_bytes * count);
        s.Stats.bytes_padding <-
          s.Stats.bytes_padding
          + (v.hdr.Volume.block_size - data_bytes
            - (Block_format.index_entry_bytes * count)
            - Block_format.trailer_bytes);
        Block_format.Builder.reset v.tail;
        v.tail_open <- false;
        v.tail_index <- idx + 1;
        (match st.State.nvram with Some nv -> Worm.Nvram.clear nv | None -> ());
        drain_badblocks st
      | Error (Worm.Block_io.Bad_block f) ->
        (* Invalidate the damaged block so the frontier moves past it, and
           remember to record its location in the bad-block log
           (section 2.3.2). If the invalidation itself fails, the frontier
           cannot advance and retrying would hit the same block forever, so
           the failure must surface; the capacity cap is a backstop against
           a device that accepts invalidations without moving its frontier. *)
        let s = st.State.stats in
        s.Stats.bad_blocks <- s.Stats.bad_blocks + 1;
        s.Stats.flush_retries <- s.Stats.flush_retries + 1;
        if retries >= v.hdr.Volume.capacity then
          Error (Errors.Device (Worm.Block_io.Bad_block f))
        else begin
          match v.io.Worm.Block_io.invalidate f with
          | Error e -> Error (Errors.Device e)
          | Ok () ->
            st.State.badblock_queue <- f :: st.State.badblock_queue;
            attempt (retries + 1)
        end
      | Error Worm.Block_io.Out_of_space ->
        (* Volume full: seal it, continue on a successor, and re-stage the
           unflushed records there. A non-forced flush stops at staging (the
           new tail flushes when it fills); a forced one must reach
           durability on the new volume too. *)
        let* () = roll_volume st in
        let* () = replay_carry st records in
        if forced then begin
          let* v' = State.active st in
          flush_tail ~forced st v'
        end
        else Ok ()
      | Error e -> Error (Errors.Device e)
    in
    Obs.time st.State.obs st.State.probes.State.h_flush "flush" (fun () -> attempt 0)
  end

and roll_volume st : (unit, Errors.t) result =
  let* old = State.active st in
  (* Sealing is a durability point: the full volume's blocks reach stable
     storage before the sequence moves on, so a later force on the
     successor leaves nothing unsynced behind it. *)
  let* () = Errors.of_dev (old.io.Worm.Block_io.flush ()) in
  old.sealed <- true;
  old.tail_open <- false;
  Block_format.Builder.reset old.tail;
  st.State.stats.Stats.volumes_sealed <- st.State.stats.Stats.volumes_sealed + 1;
  let vol_index = State.nvols st in
  let* dev = st.State.alloc_volume ~vol_index in
  let hdr =
    {
      Volume.block_size = dev.Worm.Block_io.block_size;
      capacity = dev.Worm.Block_io.capacity;
      fanout = st.State.config.Config.fanout;
      seq_uid = st.State.seq_uid;
      vol_index;
      vol_uid = State.fresh_vol_uid st;
      prev_uid = old.hdr.Volume.vol_uid;
      created = State.fresh_ts st;
    }
  in
  let* hdr_idx = Errors.of_dev (dev.Worm.Block_io.append (Volume.encode_header hdr)) in
  if hdr_idx <> 0 then Error (Errors.Bad_record "successor volume not blank")
  else begin
    let v = Vol.make ~config:st.State.config ~hdr dev in
    v.tail_index <- 1;
    st.State.vols <- Array.append st.State.vols [| v |];
    snapshot_catalog st
  end

and snapshot_catalog st : (unit, Errors.t) result =
  let rec log_all = function
    | [] -> Ok ()
    | d :: rest ->
      let payload = Catalog.encode_op (Catalog.Create d) in
      let header = Header.make ~timestamp:(State.fresh_ts st) Ids.catalog in
      let* () = as_entry st (fun () -> put_bytes st ~first:header ~continues_after:false payload) in
      log_all rest
  in
  log_all (Catalog.live_descriptors st.State.catalog)

and drain_badblocks st : (unit, Errors.t) result =
  match st.State.badblock_queue with
  | [] -> Ok ()
  | blocks ->
    st.State.badblock_queue <- [];
    let enc = Wire.Enc.create () in
    Wire.Enc.u16 enc (List.length blocks);
    List.iter (fun b -> Wire.Enc.u32 enc b) blocks;
    let header = Header.make ~timestamp:(State.fresh_ts st) Ids.badblocks in
    as_entry st (fun () -> put_bytes st ~first:header ~continues_after:false (Wire.Enc.contents enc))

and replay_carry st records : (unit, Errors.t) result =
  let rec go i =
    if i >= Array.length records then Ok ()
    else begin
      let r = records.(i) in
      (* Carried records are re-stamped: their old timestamps were assigned
         while volatile (never durable under that stamp), and on a
         successor volume they would precede the catalog snapshot's fresh
         stamps, breaking the block-timestamp monotonicity the time search
         depends on. *)
      let header =
        let h = r.Block_format.header in
        if Header.is_start h && h.Header.timestamp <> None then
          Header.make ~timestamp:(State.fresh_ts st) ~extra_members:h.Header.extra_members
            h.Header.logfile
        else h
      in
      let* () =
        as_entry st (fun () ->
            put_bytes st ~first:header ~continues_after:r.Block_format.continues
              r.Block_format.payload)
      in
      go (i + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

let init_sequence st : (unit, Errors.t) result =
  if State.nvols st > 0 then Error (Errors.Bad_record "sequence already initialized")
  else begin
    st.State.seq_uid <- State.fresh_vol_uid st;
    let* dev = st.State.alloc_volume ~vol_index:0 in
    let hdr =
      {
        Volume.block_size = dev.Worm.Block_io.block_size;
        capacity = dev.Worm.Block_io.capacity;
        fanout = st.State.config.Config.fanout;
        seq_uid = st.State.seq_uid;
        vol_index = 0;
        vol_uid = State.fresh_vol_uid st;
        prev_uid = 0L;
        created = State.fresh_ts st;
      }
    in
    let* hdr_idx = Errors.of_dev (dev.Worm.Block_io.append (Volume.encode_header hdr)) in
    if hdr_idx <> 0 then Error (Errors.Bad_record "first volume not blank")
    else begin
      let v = Vol.make ~config:st.State.config ~hdr dev in
      v.tail_index <- 1;
      st.State.vols <- [| v |];
      Ok ()
    end
  end

let append_entry st ~header payload =
  Obs.Histogram.record st.State.probes.State.h_entry_bytes (String.length payload);
  Obs.time st.State.obs st.State.probes.State.h_append "append" (fun () ->
      as_entry st (fun () -> put_bytes st ~first:header ~continues_after:false payload))

(* Group-commit staging: every entry of the batch goes into the same tail
   builder back to back (flushing only when a block actually fills), under a
   single span. Durability is the caller's business — {!Server.append_batch}
   issues at most one [force] after the whole batch is staged, so N entries
   share one block flush instead of N. Each entry is stamped immediately
   before it is staged (not all up front): staging can itself consume
   timestamps (entrymap emissions, block-start upgrades), and interleaving
   keeps the on-media bytes identical to the same entries sent one by one. *)
let append_batch st items =
  Obs.Histogram.record st.State.probes.State.h_batch (List.length items);
  Obs.time st.State.obs st.State.probes.State.h_append "append_batch" (fun () ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (log, extra_members, payload) :: rest ->
          let timestamp =
            if st.State.config.Config.timestamp_all then Some (State.fresh_ts st) else None
          in
          let header = Header.make ?timestamp ~extra_members log in
          Obs.Histogram.record st.State.probes.State.h_entry_bytes (String.length payload);
          let* () =
            as_entry st (fun () -> put_bytes st ~first:header ~continues_after:false payload)
          in
          go (header.Header.timestamp :: acc) rest
      in
      go [] items)

let force_inner st : (unit, Errors.t) result =
  let* v = State.active st in
  st.State.stats.Stats.forces <- st.State.stats.Stats.forces + 1;
  let* () =
    if (not v.tail_open) || Block_format.Builder.is_empty v.tail then Ok ()
    else
      match (st.State.config.Config.nvram_tail, st.State.nvram) with
      | true, Some nv ->
        (* Stage the partial tail in battery-backed RAM; it keeps filling and
           reaches the WORM medium only when full (section 2.3.1). The staged
           image must carry the forced flag like a burned force would: if it
           is replayed verbatim after a crash, recovery has to see that this
           block boundary was a durability point. *)
        let image = Block_format.Builder.finish ~forced:true v.tail in
        Worm.Nvram.store nv ~block:v.tail_index image;
        st.State.stats.Stats.nvram_syncs <- st.State.stats.Stats.nvram_syncs + 1;
        Ok ()
      | _ ->
        (* Pure write-once: burn the partial block, wasting its free space. *)
        flush_tail ~forced:true st v
  in
  (* The durability point: every block burned so far — the forced tail and
     the full blocks before it — must reach stable storage (an fsync on a
     file-backed volume) before the force is acknowledged. A force that
     rolled the sequence burned its tail on the successor volume. *)
  let* v = State.active st in
  Errors.of_dev (v.io.Worm.Block_io.flush ())

let force st : (unit, Errors.t) result =
  Obs.time st.State.obs st.State.probes.State.h_force "force" (fun () -> force_inner st)

let log_catalog_op st op : (unit, Errors.t) result =
  let* () = Catalog.apply st.State.catalog op in
  let payload = Catalog.encode_op op in
  let header = Header.make ~timestamp:(State.fresh_ts st) Ids.catalog in
  as_entry st (fun () -> put_bytes st ~first:header ~continues_after:false payload)
