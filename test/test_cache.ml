(* LRU and the block cache (the paper's buffer pool). *)

let test_lru_basic () =
  let l = Blockcache.Lru.create ~capacity:2 in
  Alcotest.(check (option (pair int string))) "no eviction" None (Blockcache.Lru.add l 1 "a");
  Alcotest.(check (option (pair int string))) "no eviction" None (Blockcache.Lru.add l 2 "b");
  Alcotest.(check (option string)) "find 1" (Some "a") (Blockcache.Lru.find l 1);
  (* 2 is now least-recently-used. *)
  (match Blockcache.Lru.add l 3 "c" with
  | Some (2, "b") -> ()
  | _ -> Alcotest.fail "expected eviction of 2");
  Alcotest.(check (option string)) "2 gone" None (Blockcache.Lru.find l 2);
  Alcotest.(check int) "length" 2 (Blockcache.Lru.length l)

let test_lru_replace () =
  let l = Blockcache.Lru.create ~capacity:2 in
  ignore (Blockcache.Lru.add l 1 "a");
  ignore (Blockcache.Lru.add l 1 "a2");
  Alcotest.(check int) "no duplicate" 1 (Blockcache.Lru.length l);
  Alcotest.(check (option string)) "replaced" (Some "a2") (Blockcache.Lru.find l 1)

let test_lru_peek_does_not_promote () =
  let l = Blockcache.Lru.create ~capacity:2 in
  ignore (Blockcache.Lru.add l 1 "a");
  ignore (Blockcache.Lru.add l 2 "b");
  ignore (Blockcache.Lru.peek l 1);
  (match Blockcache.Lru.add l 3 "c" with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "peek should not promote")

let test_lru_remove_and_clear () =
  let l = Blockcache.Lru.create ~capacity:4 in
  ignore (Blockcache.Lru.add l 1 "a");
  ignore (Blockcache.Lru.add l 2 "b");
  Blockcache.Lru.remove l 1;
  Alcotest.(check (option string)) "removed" None (Blockcache.Lru.find l 1);
  Blockcache.Lru.clear l;
  Alcotest.(check int) "cleared" 0 (Blockcache.Lru.length l)

let test_lru_mru_order () =
  let l = Blockcache.Lru.create ~capacity:4 in
  List.iter (fun k -> ignore (Blockcache.Lru.add l k "")) [ 1; 2; 3 ];
  ignore (Blockcache.Lru.find l 1);
  Alcotest.(check (list int)) "order" [ 1; 3; 2 ] (Blockcache.Lru.keys_mru_order l)

let test_lru_stress () =
  let l = Blockcache.Lru.create ~capacity:16 in
  for i = 0 to 999 do
    ignore (Blockcache.Lru.add l (i mod 40) (string_of_int i))
  done;
  Alcotest.(check int) "bounded" 16 (Blockcache.Lru.length l)

let test_lru_capacity_one_churn () =
  (* The smallest legal cache must behave: every add evicts the previous
     sole resident, and the survivor is always readable. *)
  let l = Blockcache.Lru.create ~capacity:1 in
  Alcotest.(check (option (pair int string))) "first add free" None (Blockcache.Lru.add l 0 "v0");
  for i = 1 to 99 do
    match Blockcache.Lru.add l i (Printf.sprintf "v%d" i) with
    | Some (k, _) when k = i - 1 -> ()
    | Some (k, _) -> Alcotest.failf "evicted %d, expected %d" k (i - 1)
    | None -> Alcotest.fail "expected an eviction"
  done;
  Alcotest.(check int) "one resident" 1 (Blockcache.Lru.length l);
  Alcotest.(check (option string)) "survivor" (Some "v99") (Blockcache.Lru.find l 99)

let test_lru_replace_at_full_no_evict () =
  (* Re-adding a resident key to a full LRU is a value update, not an
     insertion: nothing may be evicted. *)
  let l = Blockcache.Lru.create ~capacity:2 in
  ignore (Blockcache.Lru.add l 1 "a");
  ignore (Blockcache.Lru.add l 2 "b");
  Alcotest.(check (option (pair int string)))
    "replace evicts nothing" None (Blockcache.Lru.add l 1 "a2");
  Alcotest.(check int) "still full" 2 (Blockcache.Lru.length l);
  Alcotest.(check (option string)) "updated" (Some "a2") (Blockcache.Lru.peek l 1);
  Alcotest.(check (option string)) "other intact" (Some "b") (Blockcache.Lru.peek l 2);
  (* And the replace refreshed key 1, so 2 is now the LRU victim. *)
  (match Blockcache.Lru.add l 3 "c" with
  | Some (2, "b") -> ()
  | _ -> Alcotest.fail "expected eviction of 2 after replace refreshed 1")

let test_lru_mru_order_after_interleaved_remove () =
  let l = Blockcache.Lru.create ~capacity:8 in
  List.iter (fun k -> ignore (Blockcache.Lru.add l k "")) [ 1; 2; 3; 4; 5 ];
  Blockcache.Lru.remove l 3;
  ignore (Blockcache.Lru.find l 2);
  Blockcache.Lru.remove l 5;
  ignore (Blockcache.Lru.add l 6 "");
  Alcotest.(check (list int)) "order" [ 6; 2; 4; 1 ] (Blockcache.Lru.keys_mru_order l);
  (* Removing head and tail keeps the list linked. *)
  Blockcache.Lru.remove l 6;
  Blockcache.Lru.remove l 1;
  Alcotest.(check (list int)) "ends removed" [ 2; 4 ] (Blockcache.Lru.keys_mru_order l)

let mk_cached () =
  let d = Worm.Mem_device.create ~block_size:64 ~capacity:64 () in
  let c = Blockcache.Cache.create ~capacity_blocks:4 (Worm.Mem_device.io d) in
  (d, c, Blockcache.Cache.io c)

let test_cache_read_through () =
  let d, c, io = mk_cached () in
  ignore (io.Worm.Block_io.append (Bytes.make 64 'a'));
  Blockcache.Cache.drop c;
  Blockcache.Cache.reset_counters c;
  ignore (io.Worm.Block_io.read 0);
  ignore (io.Worm.Block_io.read 0);
  Alcotest.(check int) "one miss" 1 (Blockcache.Cache.misses c);
  Alcotest.(check int) "one hit" 1 (Blockcache.Cache.hits c);
  ignore d

let test_cache_appends_inserted () =
  let _, c, io = mk_cached () in
  ignore (io.Worm.Block_io.append (Bytes.make 64 'a'));
  Alcotest.(check bool) "appended block cached" true (Blockcache.Cache.contains c 0);
  ignore (io.Worm.Block_io.read 0);
  Alcotest.(check int) "hit without device read" 1 (Blockcache.Cache.hits c)

let test_cache_eviction () =
  (* Untouched (default-classified) blocks are all data and land in the
     probation segment, so a one-pass append stream keeps only its newest
     blocks resident — it cannot fill the whole cache. *)
  let _, c, io = mk_cached () in
  for i = 0 to 7 do
    ignore (io.Worm.Block_io.append (Bytes.make 64 (Char.chr (97 + i))))
  done;
  let s = Blockcache.Cache.segments c in
  Alcotest.(check bool) "bounded" true (Blockcache.Cache.resident c <= 4);
  Alcotest.(check int) "probation only"
    (Blockcache.Cache.resident c)
    s.Blockcache.Cache.probation_resident;
  Alcotest.(check bool) "old evicted" false (Blockcache.Cache.contains c 0);
  Alcotest.(check bool) "new resident" true (Blockcache.Cache.contains c 7);
  Alcotest.(check bool) "evictions counted" true (s.Blockcache.Cache.data_evictions > 0)

let test_cache_scan_resistance () =
  (* Twice-touched blocks are promoted to the protected segment; a long
     one-pass scan afterwards churns probation only and cannot displace
     them. This is the property the flat LRU lacked. *)
  let d = Worm.Mem_device.create ~block_size:64 ~capacity:64 () in
  let c = Blockcache.Cache.create ~capacity_blocks:8 (Worm.Mem_device.io d) in
  let io = Blockcache.Cache.io c in
  for i = 0 to 31 do
    ignore (io.Worm.Block_io.append (Bytes.make 64 (Char.chr (65 + (i mod 26)))))
  done;
  Blockcache.Cache.drop c;
  Blockcache.Cache.reset_counters c;
  (* Touch the hot set twice: first read fills probation, second promotes. *)
  List.iter (fun i -> ignore (io.Worm.Block_io.read i)) [ 0; 1; 0; 1 ];
  let s = Blockcache.Cache.segments c in
  Alcotest.(check int) "promotions" 2 s.Blockcache.Cache.promotions;
  Alcotest.(check int) "protected holds hot set" 2 s.Blockcache.Cache.protected_resident;
  (* One-pass scan over everything else. *)
  for i = 2 to 31 do
    ignore (io.Worm.Block_io.read i)
  done;
  Alcotest.(check bool) "hot block 0 survives scan" true (Blockcache.Cache.contains c 0);
  Alcotest.(check bool) "hot block 1 survives scan" true (Blockcache.Cache.contains c 1);
  ignore (io.Worm.Block_io.read 0);
  ignore (io.Worm.Block_io.read 1);
  let s = Blockcache.Cache.segments c in
  Alcotest.(check bool) "post-scan hot reads are hits" true (s.Blockcache.Cache.data_hits >= 4)

let test_cache_meta_partition () =
  (* Blocks the classifier marks Meta live in their own partition: data
     traffic can never evict them, and their hits/misses are counted
     separately. *)
  let d = Worm.Mem_device.create ~block_size:64 ~capacity:64 () in
  let classify b = if Bytes.get b 0 = 'm' then Blockcache.Cache.Meta else Blockcache.Cache.Data in
  let c =
    Blockcache.Cache.create ~capacity_blocks:8 ~meta_blocks:2 ~classify (Worm.Mem_device.io d)
  in
  let io = Blockcache.Cache.io c in
  ignore (io.Worm.Block_io.append (Bytes.make 64 'm'));
  for _ = 1 to 20 do
    ignore (io.Worm.Block_io.append (Bytes.make 64 'd'))
  done;
  Blockcache.Cache.drop c;
  Blockcache.Cache.reset_counters c;
  ignore (io.Worm.Block_io.read 0);
  (* Flood the data side. *)
  for i = 1 to 20 do
    ignore (io.Worm.Block_io.read i)
  done;
  Alcotest.(check bool) "meta survives data flood" true (Blockcache.Cache.contains c 0);
  ignore (io.Worm.Block_io.read 0);
  let s = Blockcache.Cache.segments c in
  Alcotest.(check int) "meta miss" 1 s.Blockcache.Cache.meta_misses;
  Alcotest.(check int) "meta hit" 1 s.Blockcache.Cache.meta_hits;
  Alcotest.(check int) "meta resident" 1 s.Blockcache.Cache.meta_resident;
  Alcotest.(check int) "data misses" 20 s.Blockcache.Cache.data_misses

let test_cache_read_many_mixed () =
  (* A batched read serves residents from the cache and fetches only the
     misses, returning results in request order. *)
  let d, c, io = mk_cached () in
  for i = 0 to 5 do
    ignore (io.Worm.Block_io.append (Bytes.make 64 (Char.chr (97 + i))))
  done;
  Blockcache.Cache.drop c;
  ignore (io.Worm.Block_io.read 2);
  Blockcache.Cache.reset_counters c;
  let before = (Worm.Mem_device.io d).Worm.Block_io.stats.Worm.Dev_stats.reads in
  let rs = Worm.Block_io.read_many io [ 0; 2; 4 ] in
  let after = (Worm.Mem_device.io d).Worm.Block_io.stats.Worm.Dev_stats.reads in
  List.iteri
    (fun n r ->
      let expect = Bytes.make 64 (Char.chr (97 + (2 * n))) in
      Alcotest.(check bytes) (Printf.sprintf "slot %d" n) expect (Result.get_ok r))
    rs;
  Alcotest.(check int) "one batched hit" 1 (Blockcache.Cache.hits c);
  Alcotest.(check int) "two batched misses" 2 (Blockcache.Cache.misses c);
  Alcotest.(check int) "device read only the misses" 2 (after - before);
  (* Probation holds one block here, so of the two fetches only the later
     survives; the batched hit on 2 promoted it to protected. *)
  Alcotest.(check bool) "hit promoted, newest fetch resident" true
    (Blockcache.Cache.contains c 2 && Blockcache.Cache.contains c 4)

let test_cache_invalidate_evicts () =
  let _, c, io = mk_cached () in
  ignore (io.Worm.Block_io.append (Bytes.make 64 'a'));
  Result.get_ok (io.Worm.Block_io.invalidate 0);
  Alcotest.(check bool) "evicted" false (Blockcache.Cache.contains c 0);
  let b = Result.get_ok (io.Worm.Block_io.read 0) in
  Alcotest.(check bool) "reads invalidated pattern" true (Worm.Block_io.is_invalidated_pattern b)

let test_cache_masks_device_corruption () =
  (* Once cached, a block stays readable even if the medium is later
     corrupted — the paper's warm-cache behaviour. *)
  let d, c, io = mk_cached () in
  ignore (io.Worm.Block_io.append (Bytes.make 64 'a'));
  Worm.Mem_device.raw_poke d 0 (Bytes.make 64 'Z');
  Alcotest.(check bytes) "cache wins" (Bytes.make 64 'a') (Result.get_ok (io.Worm.Block_io.read 0));
  Blockcache.Cache.drop c;
  Alcotest.(check bytes) "device truth after drop" (Bytes.make 64 'Z')
    (Result.get_ok (io.Worm.Block_io.read 0))

let test_cache_hit_returns_copy () =
  (* Regression: a cache hit used to alias the resident buffer, so a caller
     mutating the returned bytes corrupted every later hit. *)
  let _, c, io = mk_cached () in
  ignore (io.Worm.Block_io.append (Bytes.make 64 'a'));
  let b1 = Result.get_ok (io.Worm.Block_io.read 0) in
  Bytes.fill b1 0 64 'X';
  let b2 = Result.get_ok (io.Worm.Block_io.read 0) in
  Alcotest.(check bytes) "hit unaffected by caller mutation" (Bytes.make 64 'a') b2;
  (* The insert path must copy too: mutating the appended buffer afterwards
     must not reach the cache. *)
  let src = Bytes.make 64 'b' in
  ignore (io.Worm.Block_io.append src);
  Bytes.fill src 0 64 'Y';
  Alcotest.(check bytes) "insert copied" (Bytes.make 64 'b')
    (Result.get_ok (io.Worm.Block_io.read 1));
  Alcotest.(check bool) "still cached" true (Blockcache.Cache.contains c 1)

let test_cache_preload () =
  let _, c, io = mk_cached () in
  ignore (io.Worm.Block_io.append (Bytes.make 64 'a'));
  Blockcache.Cache.drop c;
  Result.get_ok (Blockcache.Cache.preload c 0);
  Alcotest.(check bool) "preloaded" true (Blockcache.Cache.contains c 0)

let () =
  Testkit.run "blockcache"
    [
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "peek no promote" `Quick test_lru_peek_does_not_promote;
          Alcotest.test_case "remove/clear" `Quick test_lru_remove_and_clear;
          Alcotest.test_case "mru order" `Quick test_lru_mru_order;
          Alcotest.test_case "stress bounded" `Quick test_lru_stress;
          Alcotest.test_case "capacity-1 churn" `Quick test_lru_capacity_one_churn;
          Alcotest.test_case "replace at full no evict" `Quick test_lru_replace_at_full_no_evict;
          Alcotest.test_case "mru order after remove" `Quick
            test_lru_mru_order_after_interleaved_remove;
        ] );
      ( "cache",
        [
          Alcotest.test_case "read-through" `Quick test_cache_read_through;
          Alcotest.test_case "appends inserted" `Quick test_cache_appends_inserted;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "scan resistance" `Quick test_cache_scan_resistance;
          Alcotest.test_case "meta partition" `Quick test_cache_meta_partition;
          Alcotest.test_case "read_many mixed" `Quick test_cache_read_many_mixed;
          Alcotest.test_case "invalidate evicts" `Quick test_cache_invalidate_evicts;
          Alcotest.test_case "masks device corruption" `Quick test_cache_masks_device_corruption;
          Alcotest.test_case "hit returns a copy" `Quick test_cache_hit_returns_copy;
          Alcotest.test_case "preload" `Quick test_cache_preload;
        ] );
    ]
