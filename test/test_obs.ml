(* The observability layer: JSON rendering, histograms, metrics, tracing,
   the Stats field table, and the server-level metrics surface. *)

open Testkit

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------- json ---------------------------------- *)

let test_json_render () =
  let open Obs.Json in
  Alcotest.(check string)
    "object"
    {|{"a":1,"b":"x","c":[true,null],"d":2.5}|}
    (to_string
       (Obj [ ("a", Int 1); ("b", Str "x"); ("c", List [ Bool true; Null ]); ("d", Float 2.5) ]));
  Alcotest.(check string) "escaping" {|"q\"s\\b\nn\tt"|} (to_string (Str "q\"s\\b\nn\tt"));
  Alcotest.(check string) "control chars" {|"\u0001"|} (to_string (Str "\x01"));
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan));
  Alcotest.(check string) "integral float" "3.0" (to_string (Float 3.0))

(* ----------------------------- histogram -------------------------------- *)

let test_histogram_exact_range () =
  let h = Obs.Histogram.create () in
  for v = 0 to 31 do
    Obs.Histogram.record h v
  done;
  Alcotest.(check int) "count" 32 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" (31 * 32 / 2) (Obs.Histogram.sum h);
  Alcotest.(check int) "min" 0 (Obs.Histogram.min_value h);
  Alcotest.(check int) "max" 31 (Obs.Histogram.max_value h);
  (* Below the exact limit the percentile is exact. *)
  Alcotest.(check bool) "p50 near 16" true (abs_float (Obs.Histogram.percentile h 0.5 -. 15.5) <= 1.0)

let test_histogram_quantile_error () =
  (* Uniform samples over a wide range: quantile estimates must stay within
     the structural ~6% relative error bound. *)
  let h = Obs.Histogram.create () in
  for v = 1 to 100_000 do
    Obs.Histogram.record h v
  done;
  List.iter
    (fun q ->
      let est = Obs.Histogram.percentile h q in
      let exact = q *. 100_000. in
      let rel = abs_float (est -. exact) /. exact in
      if rel > 0.07 then Alcotest.failf "q=%.2f est=%.0f exact=%.0f rel=%.3f" q est exact rel)
    [ 0.5; 0.9; 0.99; 0.999 ];
  Alcotest.(check int) "max tracked exactly" 100_000 (Obs.Histogram.max_value h)

let test_histogram_negative_and_reset () =
  let h = Obs.Histogram.create () in
  Obs.Histogram.record h (-5);
  Alcotest.(check int) "clamped to 0" 0 (Obs.Histogram.max_value h);
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset" 0 (Obs.Histogram.count h);
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Obs.Histogram.mean h))

let test_histogram_all_zero () =
  (* Regression: the bucket top was clamped to max+1, so an all-zero
     histogram reported p50 = 0.5 and p99 = 0.99 with max = 0. *)
  let h = Obs.Histogram.create () in
  for _ = 1 to 462 do
    Obs.Histogram.record h 0
  done;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "p%g" (q *. 100.)) 0.0
        (Obs.Histogram.percentile h q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let prop_quantiles_within_extremes =
  (* Every quantile lies in [min, max] and never decreases as q grows. *)
  let gen =
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 60)
           (oneof [ int_range 0 40; int_range 0 5000; int_range 0 (1 lsl 40) ]))
        (float_range 0.0 1.0) (float_range 0.0 1.0))
  in
  qtest ~count:500 "quantiles within [min, max] and monotone" gen (fun (samples, q1, q2) ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.record h) samples;
      let lo = float_of_int (Obs.Histogram.min_value h) in
      let hi = float_of_int (Obs.Histogram.max_value h) in
      let q1, q2 = (Float.min q1 q2, Float.max q1 q2) in
      let p1 = Obs.Histogram.percentile h q1 and p2 = Obs.Histogram.percentile h q2 in
      lo <= p1 && p1 <= hi && lo <= p2 && p2 <= hi && p1 <= p2)

(* ------------------------------ metrics --------------------------------- *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "ops" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter m "ops" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "get-or-create shares state" 6 (Obs.Metrics.counter_value c);
  Obs.Metrics.gauge m "depth" 3;
  Obs.Metrics.gauge m "depth" 7;
  Alcotest.(check (list (pair string int))) "gauge overwrites" [ ("depth", 7) ]
    (Obs.Metrics.gauges m);
  let h = Obs.Metrics.histogram m "lat_us" in
  Obs.Histogram.record h 10;
  Alcotest.(check (list string)) "sorted names" [ "lat_us" ]
    (List.map fst (Obs.Metrics.histograms m));
  (match Obs.Metrics.to_json m with
  | Obs.Json.Obj fields ->
    Alcotest.(check (list string)) "json sections" [ "counters"; "gauges"; "histograms" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "metrics json must be an object");
  Obs.Metrics.reset m;
  Alcotest.(check int) "reset zeroes counters" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "reset zeroes histograms" 0 (Obs.Histogram.count h)

(* ------------------------------- trace ---------------------------------- *)

let mk_trace () =
  let t = ref 0 in
  let now () = !t in
  let tr = Obs.Trace.create ~capacity:4 ~now () in
  (tr, t)

let test_trace_disabled_is_free () =
  let tr, _ = mk_trace () in
  let tok = Obs.Trace.enter tr "op" in
  Obs.Trace.exit tr tok;
  Alcotest.(check int) "no spans retained" 0 (List.length (Obs.Trace.spans tr))

let test_trace_nesting_and_ring () =
  let tr, t = mk_trace () in
  Obs.Trace.set_enabled tr true;
  let outer = Obs.Trace.enter tr "append" in
  t := 5;
  let inner = Obs.Trace.enter tr "flush" in
  t := 9;
  Obs.Trace.exit tr inner;
  t := 10;
  Obs.Trace.exit tr outer;
  (match Obs.Trace.spans tr with
  | [ a; b ] ->
    Alcotest.(check string) "inner finishes first" "flush" a.Obs.Trace.name;
    Alcotest.(check int) "inner depth" 1 a.Obs.Trace.depth;
    Alcotest.(check int) "inner duration" 4 a.Obs.Trace.dur_us;
    Alcotest.(check string) "outer second" "append" b.Obs.Trace.name;
    Alcotest.(check int) "outer depth" 0 b.Obs.Trace.depth;
    Alcotest.(check int) "outer duration" 10 b.Obs.Trace.dur_us
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (* The ring keeps only the newest [capacity] spans. *)
  for i = 0 to 9 do
    Obs.Trace.with_span tr (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans tr) in
  Alcotest.(check (list string)) "bounded, newest kept" [ "s6"; "s7"; "s8"; "s9" ] names

let test_trace_sink_jsonl () =
  let tr, t = mk_trace () in
  Obs.Trace.set_enabled tr true;
  let lines = ref [] in
  Obs.Trace.set_sink tr (Some (fun l -> lines := l :: !lines));
  Obs.Trace.with_span tr "op" (fun () -> t := 3);
  Alcotest.(check int) "one line" 1 (List.length !lines);
  Alcotest.(check bool) "line mentions op" true (contains ~affix:{|"name":"op"|} (List.hd !lines));
  let jsonl = Obs.Trace.to_jsonl tr in
  Alcotest.(check bool) "jsonl ends with newline" true (String.get jsonl (String.length jsonl - 1) = '\n')

(* ----------------------------- stats table ------------------------------ *)

let test_stats_field_table_complete () =
  (* Drift guard: every mutable int field of Stats.t must appear in the
     field table — adding a field without extending the table breaks
     reset/snapshot/diff/to_json silently otherwise. All fields are
     immediate ints, so the record's runtime size equals its field count. *)
  let s = Clio.Stats.create () in
  let n_fields = List.length (Clio.Stats.fields s) in
  Alcotest.(check int) "table covers every record field" (Obj.size (Obj.repr s)) n_fields;
  (* Round-trip each field through its getter/setter. *)
  List.iteri (fun i (name, _) -> ignore (Clio.Stats.set_field s name (i + 1))) (Clio.Stats.fields s);
  List.iteri
    (fun i (name, v) -> Alcotest.(check int) (name ^ " set") (i + 1) v)
    (Clio.Stats.fields s);
  Alcotest.(check bool) "unknown field rejected" false (Clio.Stats.set_field s "no_such" 1);
  (* reset/snapshot/diff derive from the same table. *)
  let snap = Clio.Stats.snapshot s in
  Alcotest.(check (list (pair string int))) "snapshot equal" (Clio.Stats.fields s)
    (Clio.Stats.fields snap);
  let d = Clio.Stats.diff ~after:snap ~before:snap in
  List.iter (fun (name, v) -> Alcotest.(check int) (name ^ " diff zero") 0 v) (Clio.Stats.fields d);
  Clio.Stats.reset s;
  List.iter (fun (name, v) -> Alcotest.(check int) (name ^ " reset") 0 v) (Clio.Stats.fields s)

(* --------------------------- emission ordering -------------------------- *)

let entrymap_entries_in_medium_order srv =
  (* Scan blocks in device order and decode every entrymap record. *)
  let st = Clio.Server.state srv in
  let v = ok (Clio.State.active st) in
  let fanout = Clio.Vol.fanout v in
  let out = ref [] in
  for b = 1 to Clio.Vol.written_limit v - 1 do
    match Clio.Vol.view_block v b with
    | Clio.Vol.Records recs ->
      Array.iter
        (fun (r : Clio.Block_format.record) ->
          if r.Clio.Block_format.header.Clio.Header.logfile = Clio.Ids.entrymap then
            match Clio.Entrymap.decode ~fanout r.Clio.Block_format.payload with
            | Ok e -> out := e :: !out
            | Error _ -> ())
        recs
    | _ -> ()
  done;
  List.rev !out

let test_multi_level_boundary_emission_order () =
  (* Regression for the deferred-emission queue: at a block index divisible
     by N^2, both the level-1 and level-2 entrymap entries become due at
     once. They must reach the medium in capture order — level 1 (covering
     the last N blocks) before level 2 (covering the last N^2) — matching
     what the locate tree expects near boundaries. The old list-append code
     preserved order at O(n^2) cost; the queue must preserve it at O(1). *)
  let config = { Clio.Config.default with block_size = 256; fanout = 2 } in
  let f = make_fixture ~config ~block_size:256 ~capacity:64 () in
  let log = create_log f "/emit" in
  let filler = String.make 200 'e' in
  for i = 0 to 19 do
    ignore (append f ~log (Printf.sprintf "%02d%s" i filler))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let entries = entrymap_entries_in_medium_order f.srv in
  Alcotest.(check bool) "has level-2 entries" true
    (List.exists (fun e -> e.Clio.Entrymap.level = 2) entries);
  (* For every boundary where multiple levels were due, lower levels must
     appear first: walking the medium, a level-l entry with base b is always
     preceded by the level-(l-1) entry of base b + N^l - N^(l-1). *)
  let rec check = function
    | a :: (b :: _ as rest) ->
      if b.Clio.Entrymap.base + Clio.Config.pow_fanout config b.Clio.Entrymap.level
         = a.Clio.Entrymap.base + Clio.Config.pow_fanout config a.Clio.Entrymap.level
      then
        Alcotest.(check bool)
          (Printf.sprintf "levels ascend at shared boundary (base %d)" a.Clio.Entrymap.base)
          true
          (a.Clio.Entrymap.level < b.Clio.Entrymap.level);
      check rest
    | _ -> ()
  in
  check entries;
  (* And the log still reads back fully. *)
  Alcotest.(check int) "all entries readable" 20 (List.length (all_payloads f.srv ~log))

(* -------------------------- server obs surface -------------------------- *)

(* One name per fact: a registry counter or gauge must not repeat a key of
   another section of the metrics document, bare ([hits]) or
   section-prefixed ([cache_hits] against [cache.hits]); nor may it name a
   breaker fact the [breaker] section states under another key
   ([breaker_open] for [breaker.state], [breaker_device_errors] for
   [breaker.total_errors]). *)
let check_counters_unique ~fields ~counters =
  let repeats =
    List.filter (fun c -> List.mem c counters) [ "breaker_open"; "breaker_device_errors" ]
    @ List.concat_map
      (fun (name, v) ->
        match v with
        | Obs.Json.Obj kvs when name <> "counters" && name <> "gauges" ->
          List.concat_map
            (fun (k, _) -> List.filter (fun c -> List.mem c counters) [ k; name ^ "_" ^ k ])
            kvs
        | _ -> [])
      fields
  in
  Alcotest.(check (list string)) "no counter repeats another section's key" [] repeats

let test_server_metrics_surface () =
  let f = make_fixture () in
  let log = create_log f "/m" in
  for i = 0 to 49 do
    ignore (append f ~log (Printf.sprintf "entry %d padding padding padding" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  ignore (all_payloads f.srv ~log);
  let m = Clio.Server.metrics f.srv in
  let hist name = List.assoc name (Obs.Metrics.histograms m) in
  Alcotest.(check int) "append histogram counts every append" 50
    (Obs.Histogram.count (hist "append_us"));
  Alcotest.(check bool) "flush histogram non-empty" true
    (Obs.Histogram.count (hist "flush_us") > 0);
  Alcotest.(check bool) "locate histogram non-empty" true
    (Obs.Histogram.count (hist "locate_us") > 0);
  Alcotest.(check bool) "read histogram non-empty" true
    (Obs.Histogram.count (hist "read_entry_us") > 0);
  (* The exported document embeds stats / cache / read_memo / device /
     volumes / breaker / repl, and counts each fact in one place only. *)
  (match Clio.Server.metrics_obj f.srv with
  | Obs.Json.Obj fields ->
    List.iter
      (fun k ->
        Alcotest.(check bool) ("has " ^ k) true (List.mem_assoc k fields))
      [
        "counters"; "gauges"; "histograms"; "stats"; "cache"; "read_memo"; "device"; "volumes";
        "breaker"; "repl";
      ];
    let section name =
      match List.assoc name fields with Obs.Json.Obj kvs -> kvs | _ -> Alcotest.fail name
    in
    (match List.assoc "hits" (section "cache") with
    | Obs.Json.Int hits -> Alcotest.(check bool) "cache section counts hits" true (hits > 0)
    | _ -> Alcotest.fail "cache.hits must be an int");
    check_counters_unique ~fields
      ~counters:(List.map fst (section "counters" @ section "gauges"))
  | _ -> Alcotest.fail "metrics_obj must be an object");
  let js = Clio.Server.metrics_json f.srv in
  Alcotest.(check bool) "json mentions p99" true (contains ~affix:{|"p99"|} js)

let test_server_tracing_spans () =
  let f = make_fixture () in
  Alcotest.(check bool) "tracing off by default" false (Clio.Server.tracing f.srv);
  Clio.Server.set_tracing f.srv true;
  Alcotest.(check bool) "set_tracing enables tracing" true (Clio.Server.tracing f.srv);
  let log = create_log f "/t" in
  for i = 0 to 9 do
    ignore (append f ~log (Printf.sprintf "entry %d with some padding here" i))
  done;
  ignore (ok (Clio.Server.force f.srv));
  let spans = Clio.Server.trace_spans f.srv in
  let names = List.map (fun s -> s.Obs.Trace.name) spans in
  Alcotest.(check bool) "append spans" true (List.mem "append" names);
  Alcotest.(check bool) "force span" true (List.mem "force" names);
  let flushes = List.filter (fun s -> s.Obs.Trace.name = "flush") spans in
  Alcotest.(check bool) "flush spans nest" true
    (flushes <> [] && List.for_all (fun s -> s.Obs.Trace.depth >= 1) flushes);
  let jsonl = Clio.Server.trace_jsonl f.srv in
  Alcotest.(check bool) "jsonl one line per span" true
    (List.length (String.split_on_char '\n' (String.trim jsonl)) = List.length spans);
  Clio.Server.clear_trace f.srv;
  Alcotest.(check int) "clear" 0 (List.length (Clio.Server.trace_spans f.srv));
  Clio.Server.set_tracing f.srv false;
  ignore (append f ~log "untraced");
  Alcotest.(check int) "disabled traces nothing" 0 (List.length (Clio.Server.trace_spans f.srv))

let test_tracing_off_by_default () =
  let f = make_fixture () in
  let log = create_log f "/off" in
  ignore (append f ~log "x");
  Alcotest.(check bool) "off by default" false (Clio.Server.tracing f.srv);
  Alcotest.(check int) "no spans" 0 (List.length (Clio.Server.trace_spans f.srv))

let () =
  Testkit.run "obs"
    [
      ( "json",
        [ Alcotest.test_case "render+escape" `Quick test_json_render ] );
      ( "histogram",
        [
          Alcotest.test_case "exact range" `Quick test_histogram_exact_range;
          Alcotest.test_case "quantile error" `Quick test_histogram_quantile_error;
          Alcotest.test_case "negative+reset" `Quick test_histogram_negative_and_reset;
          Alcotest.test_case "all-zero quantiles are zero" `Quick test_histogram_all_zero;
          prop_quantiles_within_extremes;
        ] );
      ( "metrics",
        [ Alcotest.test_case "registry" `Quick test_metrics_registry ] );
      ( "trace",
        [
          Alcotest.test_case "disabled free" `Quick test_trace_disabled_is_free;
          Alcotest.test_case "nesting+ring" `Quick test_trace_nesting_and_ring;
          Alcotest.test_case "sink jsonl" `Quick test_trace_sink_jsonl;
        ] );
      ( "stats",
        [ Alcotest.test_case "field table drift guard" `Quick test_stats_field_table_complete ] );
      ( "writer",
        [
          Alcotest.test_case "multi-level emission order" `Quick
            test_multi_level_boundary_emission_order;
        ] );
      ( "server",
        [
          Alcotest.test_case "metrics surface" `Quick test_server_metrics_surface;
          Alcotest.test_case "tracing spans" `Quick test_server_tracing_spans;
          Alcotest.test_case "tracing off by default" `Quick test_tracing_off_by_default;
        ] );
    ]
