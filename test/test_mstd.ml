(* Unit and property tests for the mstd utility library. *)

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Mstd.Rng.create 7L and b = Mstd.Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Mstd.Rng.next64 a) (Mstd.Rng.next64 b)
  done

let test_rng_split_independent () =
  let root = Mstd.Rng.create 7L in
  let a = Mstd.Rng.split root in
  let b = Mstd.Rng.split root in
  Alcotest.(check bool) "split streams differ" true (Mstd.Rng.next64 a <> Mstd.Rng.next64 b)

let test_rng_copy () =
  let a = Mstd.Rng.create 3L in
  ignore (Mstd.Rng.next64 a);
  let b = Mstd.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Mstd.Rng.next64 a) (Mstd.Rng.next64 b)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Mstd.Rng.create seed in
      let v = Mstd.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng int_in inclusive range" ~count:500
    QCheck.(triple int64 (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let rng = Mstd.Rng.create seed in
      let v = Mstd.Rng.int_in rng lo (lo + span) in
      v >= lo && v <= lo + span)

let test_stats_basic () =
  let s = Mstd.Stats.create () in
  List.iter (Mstd.Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Mstd.Stats.mean s);
  check_float "min" 1.0 (Mstd.Stats.min_value s);
  check_float "max" 4.0 (Mstd.Stats.max_value s);
  Alcotest.(check int) "count" 4 (Mstd.Stats.count s);
  check_float "variance" (5.0 /. 3.0) (Mstd.Stats.variance s)

let test_stats_empty () =
  let s = Mstd.Stats.create () in
  check_float "empty mean" 0.0 (Mstd.Stats.mean s);
  check_float "empty variance" 0.0 (Mstd.Stats.variance s)

let prop_stats_merge =
  QCheck.Test.make ~name:"stats merge equals concatenation" ~count:200
    QCheck.(pair (list (float_bound_inclusive 1000.0)) (list (float_bound_inclusive 1000.0)))
    (fun (xs, ys) ->
      let a = Mstd.Stats.create () and b = Mstd.Stats.create () and c = Mstd.Stats.create () in
      List.iter (Mstd.Stats.add a) xs;
      List.iter (Mstd.Stats.add b) ys;
      List.iter (Mstd.Stats.add c) (xs @ ys);
      let m = Mstd.Stats.merge a b in
      Mstd.Stats.count m = Mstd.Stats.count c
      && Float.abs (Mstd.Stats.mean m -. Mstd.Stats.mean c) < 1e-6
      && Float.abs (Mstd.Stats.variance m -. Mstd.Stats.variance c) < 1e-3)

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Mstd.Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Mstd.Stats.percentile xs 100.0);
  check_float "p50" 25.0 (Mstd.Stats.percentile xs 50.0)

let test_heap_orders () =
  let h = Mstd.Heap.create () in
  List.iter (fun (k, v) -> Mstd.Heap.push h ~key:k v) [ (5, "e"); (1, "a"); (3, "c"); (1, "b") ];
  let popped = List.init 4 (fun _ -> Option.get (Mstd.Heap.pop h)) in
  Alcotest.(check (list (pair int string)))
    "min order, ties in insertion order"
    [ (1, "a"); (1, "b"); (3, "c"); (5, "e") ]
    popped;
  Alcotest.(check bool) "empty after" true (Mstd.Heap.is_empty h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Mstd.Heap.create () in
      List.iter (fun k -> Mstd.Heap.push h ~key:k k) keys;
      let rec drain acc =
        match Mstd.Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let test_histogram_quantile () =
  let h = Mstd.Histogram.create () in
  for _ = 1 to 90 do
    Mstd.Histogram.add h 10.0
  done;
  for _ = 1 to 10 do
    Mstd.Histogram.add h 10_000.0
  done;
  Alcotest.(check int) "count" 100 (Mstd.Histogram.count h);
  Alcotest.(check bool) "p50 small" true (Mstd.Histogram.quantile h 0.5 < 100.0);
  Alcotest.(check bool) "p99 large" true (Mstd.Histogram.quantile h 0.99 > 1_000.0)

let test_table_render () =
  let t = Mstd.Table.create ~headers:[ "a"; "b" ] in
  Mstd.Table.add_row t [ "x"; "1" ];
  Mstd.Table.add_row t [ "longer" ];
  let rendered = Mstd.Table.render t in
  Alcotest.(check bool) "contains header" true (String.length rendered > 0);
  let csv = Mstd.Table.render_csv t in
  Alcotest.(check string) "csv" "a,b\nx,1\nlonger,\n" csv

let test_table_too_many_cells () =
  let t = Mstd.Table.create ~headers:[ "a" ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Mstd.Table.add_row t [ "x"; "y" ])

let test_units () =
  Alcotest.(check string) "cycles small" "484" (Mstd.Units.cycles 484.0);
  Alcotest.(check string) "cycles K" "28.3K" (Mstd.Units.cycles 28_329.0);
  Alcotest.(check string) "cycles M" "1.2M" (Mstd.Units.cycles 1_200_000.0);
  Alcotest.(check string) "ratio up" "+73%" (Mstd.Units.ratio 0.73);
  Alcotest.(check string) "ratio down" "-33%" (Mstd.Units.ratio (-0.33));
  Alcotest.(check string) "percent" "39.73%" (Mstd.Units.percent 0.3973);
  Alcotest.(check string) "bytes" "6MB" (Mstd.Units.bytes (6 * 1024 * 1024))

let test_histogram_windowed () =
  let w = Mstd.Histogram.Windowed.create ~buckets:32 () in
  for _ = 1 to 100 do
    Mstd.Histogram.Windowed.add w ~epoch:1 50.0
  done;
  Alcotest.(check int) "cumulative sees epoch 1" 100
    (Mstd.Histogram.count (Mstd.Histogram.Windowed.cumulative w));
  Alcotest.(check int) "window empty before first swap" 0
    (Mstd.Histogram.count (Mstd.Histogram.Windowed.window w ~epoch:1));
  for _ = 1 to 40 do
    Mstd.Histogram.Windowed.add w ~epoch:2 50.0
  done;
  Alcotest.(check int) "window after swap = epoch-1 adds" 100
    (Mstd.Histogram.count (Mstd.Histogram.Windowed.window w ~epoch:2));
  for _ = 1 to 7 do
    Mstd.Histogram.Windowed.add w ~epoch:3 50.0
  done;
  Alcotest.(check int) "next window drops the stale buffer" 40
    (Mstd.Histogram.count (Mstd.Histogram.Windowed.window w ~epoch:3));
  Alcotest.(check int) "cumulative keeps everything" 147
    (Mstd.Histogram.count (Mstd.Histogram.Windowed.cumulative w));
  (* copy is tear-proof by construction: total recomputed from buckets. *)
  let c = Mstd.Histogram.copy (Mstd.Histogram.Windowed.cumulative w) in
  Alcotest.(check int) "copy count = bucket sum"
    (Mstd.Histogram.fold (fun _ n acc -> acc + n) c 0)
    (Mstd.Histogram.count c)

let test_json_roundtrip () =
  let open Mstd.Json in
  let v =
    Obj
      [
        ("a", int 42);
        ("b", Str "hi \"there\"\n\t\\");
        ("c", List [ Bool true; Bool false; Null; Num 1.5 ]);
        ("nested", Obj [ ("xs", List [ int 1; int 2; int 3 ]) ]);
      ]
  in
  let s = to_string v in
  Alcotest.(check bool) "round-trips" true (parse s = v);
  Alcotest.(check int) "get_int" 42 (get_int "a" v);
  Alcotest.(check string) "get_str" "hi \"there\"\n\t\\" (get_str "b" v);
  Alcotest.(check int) "nested list" 3
    (List.length (get_list "xs" (member_exn "nested" v)));
  Alcotest.(check bool) "member miss is None" true (member "zzz" v = None);
  Alcotest.(check bool) "unicode escape" true
    (parse "\"a\\u0041b\"" = Str "aAb");
  Alcotest.(check bool) "negative + exponent" true
    (parse "-1.5e2" = Num (-150.0));
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (match parse bad with
        | exception Parse_error _ -> true
        | _ -> false))
    [ "{"; "[1,]"; "tru"; "1 2"; "\"unterminated"; "{\"a\":}" ]

let test_prometheus_exposition () =
  let p = Mstd.Prometheus.create () in
  Mstd.Prometheus.counter p ~name:"m_total" ~help:"a counter" 7;
  Mstd.Prometheus.counter p ~name:"m_total" ~help:"a counter"
    ~labels:[ ("worker", "1") ] 3;
  Mstd.Prometheus.gauge p ~name:"g" ~help:"odd \\ help\nline"
    ~labels:[ ("k", "va\"l\n") ]
    1.5;
  let h = Mstd.Histogram.create ~buckets:16 () in
  Mstd.Histogram.add h 2.0;
  Mstd.Histogram.add h 2.0;
  Mstd.Histogram.add h 1024.0;
  Mstd.Prometheus.histogram p ~name:"lat" ~help:"hist" h;
  let out = Mstd.Prometheus.contents p in
  let count_sub needle =
    let n = String.length needle and h = String.length out in
    let rec go i acc =
      if i + n > h then acc
      else go (i + 1) (if String.sub out i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "HELP emitted once per family" 1
    (count_sub "# HELP m_total a counter");
  Alcotest.(check int) "TYPE emitted once per family" 1
    (count_sub "# TYPE m_total counter");
  Alcotest.(check int) "unlabeled sample" 1 (count_sub "\nm_total 7\n");
  Alcotest.(check int) "labeled sample" 1
    (count_sub "m_total{worker=\"1\"} 3\n");
  Alcotest.(check int) "label value escaped" 1
    (count_sub "{k=\"va\\\"l\\n\"}");
  Alcotest.(check int) "help escaped" 1 (count_sub "odd \\\\ help\\nline");
  Alcotest.(check int) "+Inf bucket closes the histogram" 1
    (count_sub "lat_bucket{le=\"+Inf\"} 3\n");
  Alcotest.(check int) "histogram count" 1 (count_sub "lat_count 3\n");
  (* Buckets are cumulative: the le=+Inf count equals the total and
     every preceding bucket is <= it; spot-check the first bucket holds
     the two 2.0 observations. *)
  Alcotest.(check bool) "a low bucket holds the 2.0s" true
    (count_sub "} 2\n" >= 1)

(* The perfbench A/B verdict on synthetic runs: 3 pairs of one
   workload, one lower-is-better and one higher-is-better metric. *)
let test_perf_gate () =
  let benchmark =
    Mstd.Json.parse
      {|{"workloads": [{"name": "w"}], "end_to_end": [
         {"name": "cpu_us_per_op", "better": "lower", "bound": 0.25},
         {"name": "peak_ops_s", "better": "higher", "bound": 0.25}]}|}
  in
  let run ?(correct = true) ?(failed = 0) ?(cpu = 10.) ?(peak = 1000.) () =
    Printf.sprintf
      {|{"correct": %b, "attempted": 1000, "failed": %d, "metrics": {
         "cpu_us_per_op": {"value": %g, "unit": "us"},
         "peak_ops_s": {"value": %g, "unit": "1/s"}}}|}
      correct failed cpu peak
  in
  let base = [ run (); run (); run () ] in
  let passes ?(base = base) change =
    List.for_all
      (fun (c : Mstd.Perf_gate.check) -> c.ok)
      (Mstd.Perf_gate.judge ~benchmark ~base:[ ("w", base) ] ~change:[ ("w", change) ])
  in
  let cases =
    [
      ("A/A", true, base);
      ("one run incorrect", false, [ run (); run ~correct:false (); run () ]);
      ("cpu worse beyond bound 3/3", false, List.init 3 (fun _ -> run ~cpu:13. ()));
      ("peak lower beyond bound 3/3", false, List.init 3 (fun _ -> run ~peak:700. ()));
      ("larger failed share", false, [ run (); run ~failed:1 (); run () ]);
      ("worse in only 2 of 3 pairs", true, [ run ~cpu:20. (); run ~cpu:20. (); run () ]);
      ("worse within bound 3/3", true, List.init 3 (fun _ -> run ~cpu:12. ~peak:800. ()));
      ("better beyond bound", true, List.init 3 (fun _ -> run ~cpu:5. ~peak:2000. ()));
      ("a pair missing", false, [ run (); run () ]);
      ("unparseable line", false, [ run (); ""; run () ]);
    ]
  in
  List.iter (fun (name, want, change) -> Alcotest.(check bool) name want (passes change)) cases;
  Alcotest.(check bool) "workload without runs" false (passes ~base:[] [])

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_rng_int_in_range;
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    QCheck_alcotest.to_alcotest prop_stats_merge;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "heap orders" `Quick test_heap_orders;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
    Alcotest.test_case "histogram windowed epochs" `Quick test_histogram_windowed;
    Alcotest.test_case "json round-trip + accessors" `Quick test_json_roundtrip;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
    Alcotest.test_case "perf gate A/B verdict" `Quick test_perf_gate;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table too many cells" `Quick test_table_too_many_cells;
    Alcotest.test_case "units" `Quick test_units;
  ]
