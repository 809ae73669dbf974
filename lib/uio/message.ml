type whence = From_start | From_end | From_time of int64

(* One request/response protocol. A single append is an [Append_batch] of
   one and a single step is a chunk of one, so every operation has exactly
   one message. Tags are stable wire numbers. The gaps (requests 5, 7, 10,
   11, 15; responses 4, 5, 8, 9) stay unassigned, so a message from an
   older peer decodes as unknown rather than as something else. The
   [Keyed] idempotency envelope is request tag 20.

   The replication messages (request tags 21-23, response tags 14-15, error
   codes 17-18) are spoken between a shipper and a replica endpoint. *)

type batch_item = {
  log : Clio.Ids.logfile;
  extra_members : Clio.Ids.logfile list;
  data : string;
}

type chunk = { cursor : int; seq : int; max_entries : int; max_bytes : int }

type dir_entry = {
  id : Clio.Ids.logfile;
  path : string;
  perms : int;
  entry_count : int;
}

type request =
  | Create_log of { path : string; perms : int }
  | Ensure_log of { path : string; perms : int }
  | Resolve of string
  | Path_of of Clio.Ids.logfile
  | Set_perms of { log : Clio.Ids.logfile; perms : int }
  | Force
  | Open_cursor of { log : Clio.Ids.logfile; whence : whence }
  | Close_cursor of int
  | Entry_at_or_after of { log : Clio.Ids.logfile; ts : int64 }
  | Entry_before of { log : Clio.Ids.logfile; ts : int64 }
  | Append_batch of { force : bool; items : batch_item list }
  | Next_chunk of chunk
  | Prev_chunk of chunk
  | List_dir of string
  | Keyed of { key : int64; req : request }
      (* idempotency envelope: [key] is a client-generated id; the server
         keeps a bounded window of (key -> response) so a retried request
         after a lost ack replays the original answer. Never nested. *)
  (* --------------------- replication (server-to-server) --------------------- *)
  | Repl_frontier of { epoch : int }
      (* frontier exchange: the replica answers with its per-volume settled
         frontiers so the shipper knows what gap to stream *)
  | Repl_blocks of {
      epoch : int;
      seq_uid : int64;
      vol_index : int;
      first_block : int;
      blocks : string list;
    }
      (* a run of settled device blocks, verbatim bytes (invalidated blocks
         included), starting at [first_block] of volume [vol_index] *)
  | Repl_tail of {
      epoch : int;
      seq_uid : int64;
      vol_index : int;
      block : int;
      image : string;
    }
      (* the primary's volatile tail, explicitly marked as such: a forced
         block image destined for (unwritten) [block]. The replica stages it
         in NVRAM only when fully caught up; it never reaches the medium
         until the block actually settles *)

type entry = {
  log : Clio.Ids.logfile;
  timestamp : int64 option;
  payload : string;
}

type response =
  | R_unit
  | R_id of int
  | R_path of string
  | R_entry of entry option
  | R_timestamps of int64 option list
  | R_entries of { entries : entry list; seq : int; eof : bool }
  | R_error of Clio.Errors.t
  | R_dir of dir_entry list
  (* --------------------------- replication --------------------------- *)
  | R_repl_frontier of { epoch : int; seq_uid : int64; vols : (int * int) list }
      (* the replica's view: its current epoch, the volume sequence it
         holds (0 when it holds nothing yet) and one (vol_index, settled
         frontier) pair per volume *)
  | R_repl_ack of { epoch : int; vol_index : int; next_block : int }
      (* cumulative acknowledgement: every block of [vol_index] below
         [next_block] is settled on the replica. Doubles as a NACK — a
         shipment that left a gap is answered with the replica's unchanged
         frontier, telling the shipper where to restart *)

let ( let* ) = Clio.Errors.( let* )

module E = Clio.Wire.Enc
module D = Clio.Wire.Dec

let put_string enc s =
  E.u32 enc (String.length s);
  E.bytes enc s

let get_string dec =
  let* n = D.u32 dec in
  D.bytes dec n

let put_ts_opt enc = function
  | None -> E.u8 enc 0
  | Some ts ->
    E.u8 enc 1;
    E.i64 enc ts

let get_ts_opt dec =
  let* tag = D.u8 dec in
  if tag = 0 then Ok None
  else
    let* ts = D.i64 dec in
    Ok (Some ts)

let rec get_list dec n get acc =
  if n = 0 then Ok (List.rev acc)
  else
    let* x = get dec in
    get_list dec (n - 1) get (x :: acc)

(* ------------------------------ errors ------------------------------ *)

(* Typed errors cross the wire with a fixed layout — code byte, subcode
   byte, one u32 integer argument, one length-prefixed detail string — so a
   decoder that does not know a code can still read the record and fall
   back to [Errors.Remote detail] (the string escape hatch). *)

let encode_error enc (e : Clio.Errors.t) =
  let put ?(sub = 0) ?(int_arg = 0) ?(detail = "") code =
    E.u8 enc code;
    E.u8 enc sub;
    E.u32 enc int_arg;
    put_string enc detail
  in
  match e with
  | Clio.Errors.Corrupt_block b -> put 1 ~int_arg:b
  | Clio.Errors.Bad_record s -> put 2 ~detail:s
  | Clio.Errors.No_such_log s -> put 3 ~detail:s
  | Clio.Errors.Log_exists s -> put 4 ~detail:s
  | Clio.Errors.Invalid_name s -> put 5 ~detail:s
  | Clio.Errors.Catalog_full -> put 6
  | Clio.Errors.Entry_too_large n -> put 7 ~int_arg:n
  | Clio.Errors.Volume_offline v -> put 8 ~int_arg:v
  | Clio.Errors.Sequence_full -> put 9
  | Clio.Errors.No_entry -> put 10
  | Clio.Errors.Cursor_expired -> put 11
  | Clio.Errors.Remote s -> put 12 ~detail:s
  | Clio.Errors.Degraded -> put 14
  | Clio.Errors.Timeout -> put 15
  | Clio.Errors.Disconnected -> put 16
  | Clio.Errors.Not_primary hint -> put 17 ~detail:hint
  | Clio.Errors.Stale_epoch e -> put 18 ~int_arg:e
  | Clio.Errors.Device d -> (
    match d with
    | Worm.Block_io.Out_of_space -> put 13 ~sub:1
    | Worm.Block_io.Write_once_violation -> put 13 ~sub:2
    | Worm.Block_io.Unwritten b -> put 13 ~sub:3 ~int_arg:b
    | Worm.Block_io.Bad_block b -> put 13 ~sub:4 ~int_arg:b
    | Worm.Block_io.Out_of_range b -> put 13 ~sub:5 ~int_arg:b
    | Worm.Block_io.Wrong_size n -> put 13 ~sub:6 ~int_arg:n
    | Worm.Block_io.Io_error s -> put 13 ~sub:7 ~detail:s)

let decode_error dec : (Clio.Errors.t, Clio.Errors.t) result =
  let* code = D.u8 dec in
  let* sub = D.u8 dec in
  let* int_arg = D.u32 dec in
  let* detail = get_string dec in
  let unknown () =
    Clio.Errors.Remote
      (if detail <> "" then detail
       else Printf.sprintf "unknown remote error code %d/%d" code sub)
  in
  Ok
    (match code with
    | 1 -> Clio.Errors.Corrupt_block int_arg
    | 2 -> Clio.Errors.Bad_record detail
    | 3 -> Clio.Errors.No_such_log detail
    | 4 -> Clio.Errors.Log_exists detail
    | 5 -> Clio.Errors.Invalid_name detail
    | 6 -> Clio.Errors.Catalog_full
    | 7 -> Clio.Errors.Entry_too_large int_arg
    | 8 -> Clio.Errors.Volume_offline int_arg
    | 9 -> Clio.Errors.Sequence_full
    | 10 -> Clio.Errors.No_entry
    | 11 -> Clio.Errors.Cursor_expired
    | 12 -> Clio.Errors.Remote detail
    | 14 -> Clio.Errors.Degraded
    | 15 -> Clio.Errors.Timeout
    | 16 -> Clio.Errors.Disconnected
    | 17 -> Clio.Errors.Not_primary detail
    | 18 -> Clio.Errors.Stale_epoch int_arg
    | 13 -> (
      match sub with
      | 1 -> Clio.Errors.Device Worm.Block_io.Out_of_space
      | 2 -> Clio.Errors.Device Worm.Block_io.Write_once_violation
      | 3 -> Clio.Errors.Device (Worm.Block_io.Unwritten int_arg)
      | 4 -> Clio.Errors.Device (Worm.Block_io.Bad_block int_arg)
      | 5 -> Clio.Errors.Device (Worm.Block_io.Out_of_range int_arg)
      | 6 -> Clio.Errors.Device (Worm.Block_io.Wrong_size int_arg)
      | 7 -> Clio.Errors.Device (Worm.Block_io.Io_error detail)
      | _ -> unknown ())
    | _ -> unknown ())

(* ----------------------------- requests ----------------------------- *)

let put_chunk enc { cursor; seq; max_entries; max_bytes } =
  E.u32 enc cursor;
  E.u32 enc seq;
  E.u16 enc max_entries;
  E.u32 enc max_bytes

let get_chunk dec =
  let* cursor = D.u32 dec in
  let* seq = D.u32 dec in
  let* max_entries = D.u16 dec in
  let* max_bytes = D.u32 dec in
  Ok { cursor; seq; max_entries; max_bytes }

let rec put_request enc r =
  match r with
  | Create_log { path; perms } ->
    E.u8 enc 1;
    E.u16 enc perms;
    put_string enc path
  | Ensure_log { path; perms } ->
    E.u8 enc 2;
    E.u16 enc perms;
    put_string enc path
  | Resolve path ->
    E.u8 enc 3;
    put_string enc path
  | Path_of id ->
    E.u8 enc 4;
    E.u16 enc id
  | Set_perms { log; perms } ->
    E.u8 enc 6;
    E.u16 enc log;
    E.u16 enc perms
  | Force -> E.u8 enc 8
  | Open_cursor { log; whence } ->
    E.u8 enc 9;
    E.u16 enc log;
    (match whence with
    | From_start -> E.u8 enc 0
    | From_end -> E.u8 enc 1
    | From_time ts ->
      E.u8 enc 2;
      E.i64 enc ts)
  | Close_cursor c ->
    E.u8 enc 12;
    E.u32 enc c
  | Entry_at_or_after { log; ts } ->
    E.u8 enc 13;
    E.u16 enc log;
    E.i64 enc ts
  | Entry_before { log; ts } ->
    E.u8 enc 14;
    E.u16 enc log;
    E.i64 enc ts
  | Append_batch { force; items } ->
    E.u8 enc 16;
    E.u8 enc (if force then 1 else 0);
    E.u16 enc (List.length items);
    List.iter
      (fun { log; extra_members; data } ->
        E.u16 enc log;
        E.u8 enc (List.length extra_members);
        List.iter (fun id -> E.u16 enc id) extra_members;
        put_string enc data)
      items
  | Next_chunk c ->
    E.u8 enc 17;
    put_chunk enc c
  | Prev_chunk c ->
    E.u8 enc 18;
    put_chunk enc c
  | List_dir path ->
    E.u8 enc 19;
    put_string enc path
  | Keyed { key; req } ->
    E.u8 enc 20;
    E.i64 enc key;
    put_request enc req
  | Repl_frontier { epoch } ->
    E.u8 enc 21;
    E.u32 enc epoch
  | Repl_blocks { epoch; seq_uid; vol_index; first_block; blocks } ->
    E.u8 enc 22;
    E.u32 enc epoch;
    E.i64 enc seq_uid;
    E.u16 enc vol_index;
    E.u32 enc first_block;
    E.u16 enc (List.length blocks);
    List.iter (put_string enc) blocks
  | Repl_tail { epoch; seq_uid; vol_index; block; image } ->
    E.u8 enc 23;
    E.u32 enc epoch;
    E.i64 enc seq_uid;
    E.u16 enc vol_index;
    E.u32 enc block;
    put_string enc image

let encode_request r =
  let enc = E.create () in
  put_request enc r;
  E.contents enc

let decode_request s =
  let dec = D.of_string s in
  let rec go ~keyed =
  let* tag = D.u8 dec in
  match tag with
  | 1 | 2 ->
    let* perms = D.u16 dec in
    let* path = get_string dec in
    Ok (if tag = 1 then Create_log { path; perms } else Ensure_log { path; perms })
  | 3 ->
    let* path = get_string dec in
    Ok (Resolve path)
  | 4 ->
    let* id = D.u16 dec in
    Ok (Path_of id)
  | 6 ->
    let* log = D.u16 dec in
    let* perms = D.u16 dec in
    Ok (Set_perms { log; perms })
  | 8 -> Ok Force
  | 9 ->
    let* log = D.u16 dec in
    let* w = D.u8 dec in
    let* whence =
      match w with
      | 0 -> Ok From_start
      | 1 -> Ok From_end
      | 2 ->
        let* ts = D.i64 dec in
        Ok (From_time ts)
      | _ -> Error (Clio.Errors.Bad_record "bad whence")
    in
    Ok (Open_cursor { log; whence })
  | 12 ->
    let* c = D.u32 dec in
    Ok (Close_cursor c)
  | 13 | 14 ->
    let* log = D.u16 dec in
    let* ts = D.i64 dec in
    Ok (if tag = 13 then Entry_at_or_after { log; ts } else Entry_before { log; ts })
  | 16 ->
    let* force = D.u8 dec in
    let* n = D.u16 dec in
    let get_item dec =
      let* log = D.u16 dec in
      let* n_extra = D.u8 dec in
      let* extra_members = get_list dec n_extra D.u16 [] in
      let* data = get_string dec in
      Ok { log; extra_members; data }
    in
    let* items = get_list dec n get_item [] in
    Ok (Append_batch { force = force = 1; items })
  | 17 | 18 ->
    let* c = get_chunk dec in
    Ok (if tag = 17 then Next_chunk c else Prev_chunk c)
  | 19 ->
    let* path = get_string dec in
    Ok (List_dir path)
  | 20 ->
    if keyed then Error (Clio.Errors.Bad_record "nested keyed request")
    else
      let* key = D.i64 dec in
      let* req = go ~keyed:true in
      Ok (Keyed { key; req })
  | 21 ->
    let* epoch = D.u32 dec in
    Ok (Repl_frontier { epoch })
  | 22 ->
    let* epoch = D.u32 dec in
    let* seq_uid = D.i64 dec in
    let* vol_index = D.u16 dec in
    let* first_block = D.u32 dec in
    let* n = D.u16 dec in
    let* blocks = get_list dec n get_string [] in
    Ok (Repl_blocks { epoch; seq_uid; vol_index; first_block; blocks })
  | 23 ->
    let* epoch = D.u32 dec in
    let* seq_uid = D.i64 dec in
    let* vol_index = D.u16 dec in
    let* block = D.u32 dec in
    let* image = get_string dec in
    Ok (Repl_tail { epoch; seq_uid; vol_index; block; image })
  | t -> Error (Clio.Errors.Bad_record (Printf.sprintf "unknown request tag %d" t))
  in
  go ~keyed:false

(* ----------------------------- responses ----------------------------- *)

let put_entry enc (e : entry) =
  E.u16 enc e.log;
  put_ts_opt enc e.timestamp;
  put_string enc e.payload

let get_entry dec =
  let* log = D.u16 dec in
  let* timestamp = get_ts_opt dec in
  let* payload = get_string dec in
  Ok { log; timestamp; payload }

let encode_response r =
  let enc = E.create () in
  (match r with
  | R_unit -> E.u8 enc 1
  | R_id id ->
    E.u8 enc 2;
    E.u32 enc id
  | R_path p ->
    E.u8 enc 3;
    put_string enc p
  | R_entry None -> E.u8 enc 6
  | R_entry (Some e) ->
    E.u8 enc 7;
    put_entry enc e
  | R_timestamps ts ->
    E.u8 enc 10;
    E.u16 enc (List.length ts);
    List.iter (put_ts_opt enc) ts
  | R_entries { entries; seq; eof } ->
    E.u8 enc 11;
    E.u32 enc seq;
    E.u8 enc (if eof then 1 else 0);
    E.u16 enc (List.length entries);
    List.iter (put_entry enc) entries
  | R_error e ->
    E.u8 enc 12;
    encode_error enc e
  | R_dir entries ->
    E.u8 enc 13;
    E.u16 enc (List.length entries);
    List.iter
      (fun { id; path; perms; entry_count } ->
        E.u16 enc id;
        E.u16 enc perms;
        E.u32 enc entry_count;
        put_string enc path)
      entries
  | R_repl_frontier { epoch; seq_uid; vols } ->
    E.u8 enc 14;
    E.u32 enc epoch;
    E.i64 enc seq_uid;
    E.u16 enc (List.length vols);
    List.iter
      (fun (vol_index, frontier) ->
        E.u16 enc vol_index;
        E.u32 enc frontier)
      vols
  | R_repl_ack { epoch; vol_index; next_block } ->
    E.u8 enc 15;
    E.u32 enc epoch;
    E.u16 enc vol_index;
    E.u32 enc next_block);
  E.contents enc

let decode_response s =
  let dec = D.of_string s in
  let* tag = D.u8 dec in
  match tag with
  | 1 -> Ok R_unit
  | 2 ->
    let* id = D.u32 dec in
    Ok (R_id id)
  | 3 ->
    let* p = get_string dec in
    Ok (R_path p)
  | 6 -> Ok (R_entry None)
  | 7 ->
    let* e = get_entry dec in
    Ok (R_entry (Some e))
  | 10 ->
    let* n = D.u16 dec in
    let* ts = get_list dec n get_ts_opt [] in
    Ok (R_timestamps ts)
  | 11 ->
    let* seq = D.u32 dec in
    let* eof = D.u8 dec in
    let* n = D.u16 dec in
    let* entries = get_list dec n get_entry [] in
    Ok (R_entries { entries; seq; eof = eof = 1 })
  | 12 ->
    let* e = decode_error dec in
    Ok (R_error e)
  | 13 ->
    let* n = D.u16 dec in
    let get_dir dec =
      let* id = D.u16 dec in
      let* perms = D.u16 dec in
      let* entry_count = D.u32 dec in
      let* path = get_string dec in
      Ok { id; path; perms; entry_count }
    in
    let* entries = get_list dec n get_dir [] in
    Ok (R_dir entries)
  | 14 ->
    let* epoch = D.u32 dec in
    let* seq_uid = D.i64 dec in
    let* n = D.u16 dec in
    let get_vol dec =
      let* vol_index = D.u16 dec in
      let* frontier = D.u32 dec in
      Ok (vol_index, frontier)
    in
    let* vols = get_list dec n get_vol [] in
    Ok (R_repl_frontier { epoch; seq_uid; vols })
  | 15 ->
    let* epoch = D.u32 dec in
    let* vol_index = D.u16 dec in
    let* next_block = D.u32 dec in
    Ok (R_repl_ack { epoch; vol_index; next_block })
  | t -> Error (Clio.Errors.Bad_record (Printf.sprintf "unknown response tag %d" t))

(* --------------------------- directory view --------------------------- *)

(* The one materialization of a directory listing, shared by the RPC
   dispatcher and the CLI so both render the same fields. [entry_count] is
   the number of direct sublogs (directory entries) of each child. *)
let dir_entries srv path =
  let* ds = Clio.Server.list_logs srv path in
  Ok
    (List.map
       (fun (d : Clio.Catalog.descriptor) ->
         let child_path = Clio.Server.path_of srv d.Clio.Catalog.id in
         let entry_count =
           match Clio.Server.list_logs srv child_path with
           | Ok children -> List.length children
           | Error _ -> 0
         in
         { id = d.Clio.Catalog.id; path = child_path; perms = d.Clio.Catalog.perms; entry_count })
       ds)
