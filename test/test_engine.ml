(* Unit tests for the engine's data structures: Libasync-smp FIFO
   queues, Mely color/core/stealing queues, handlers, traces. *)

let handler = Engine.Handler.make ~declared_cycles:500 "test.h"

let event ?(color = 1) ?(cost = 100) () = Engine.Event.make ~handler ~color ~cost ()

(* --- Laqueue ------------------------------------------------------- *)

let test_laqueue_fifo () =
  let q = Engine.Laqueue.create () in
  let e1 = event ~color:1 () and e2 = event ~color:2 () and e3 = event ~color:1 () in
  List.iter (Engine.Laqueue.push q) [ e1; e2; e3 ];
  Alcotest.(check int) "length" 3 (Engine.Laqueue.length q);
  Alcotest.(check int) "distinct colors" 2 (Engine.Laqueue.distinct_colors q);
  Alcotest.(check int) "color 1 count" 2 (Engine.Laqueue.color_count q 1);
  let pops_physically q expected label =
    match Engine.Laqueue.pop q with
    | Some e -> Alcotest.(check bool) label true (e == expected)
    | None -> Alcotest.fail (label ^ ": unexpected empty queue")
  in
  pops_physically q e1 "fifo 1";
  pops_physically q e2 "fifo 2";
  pops_physically q e3 "fifo 3";
  Alcotest.(check bool) "empty" true (Engine.Laqueue.pop q = None)

let test_laqueue_extract_color () =
  let q = Engine.Laqueue.create () in
  let events = List.init 10 (fun i -> event ~color:(i mod 2) ~cost:i ()) in
  List.iter (Engine.Laqueue.push q) events;
  let extracted, scanned = Engine.Laqueue.extract_color q 0 in
  Alcotest.(check int) "extracted all of color 0" 5 (List.length extracted);
  Alcotest.(check bool) "scan stops at last occurrence" true (scanned >= 5 && scanned <= 10);
  Alcotest.(check int) "remaining" 5 (Engine.Laqueue.length q);
  Alcotest.(check int) "color 0 gone" 0 (Engine.Laqueue.color_count q 0);
  (* Extracted events keep their relative order. *)
  let costs = List.map (fun e -> e.Engine.Event.cost) extracted in
  Alcotest.(check (list int)) "in order" [ 0; 2; 4; 6; 8 ] costs

let test_laqueue_choose_half_rule () =
  let q = Engine.Laqueue.create () in
  (* 4 events of color 1, 1 event of color 2: color 1 covers >= half. *)
  List.iter (Engine.Laqueue.push q) (List.init 4 (fun _ -> event ~color:1 ()));
  Engine.Laqueue.push q (event ~color:2 ());
  (match Engine.Laqueue.choose_color_to_steal q ~exclude:None with
  | Some (color, count), _ ->
    Alcotest.(check int) "picks the minority color" 2 color;
    Alcotest.(check int) "count" 1 count
  | None, _ -> Alcotest.fail "expected a choice");
  match Engine.Laqueue.choose_color_to_steal q ~exclude:(Some 2) with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "color 1 covers half the queue and 2 is excluded"

let prop_laqueue_conservation =
  QCheck.Test.make ~name:"laqueue push/extract conserves events" ~count:100
    QCheck.(list (int_range 0 4))
    (fun colors ->
      let q = Engine.Laqueue.create () in
      List.iter (fun c -> Engine.Laqueue.push q (event ~color:c ())) colors;
      let extracted, _ = Engine.Laqueue.extract_color q 2 in
      let wanted = List.length (List.filter (fun c -> c = 2) colors) in
      List.length extracted = wanted
      && Engine.Laqueue.length q = List.length colors - wanted)

(* --- Melyq --------------------------------------------------------- *)

let test_melyq_chain () =
  let coreq = Engine.Melyq.create_core_queue ~core:3 in
  let cq1 = Engine.Melyq.make_color_queue ~color:1 ~owner:3 in
  let cq2 = Engine.Melyq.make_color_queue ~color:2 ~owner:3 in
  Engine.Melyq.push_event cq1 None (event ~color:1 ()) ~weighted:500;
  Engine.Melyq.append coreq cq1;
  Engine.Melyq.append coreq cq2;
  Alcotest.(check int) "colors" 2 (Engine.Melyq.n_colors coreq);
  Alcotest.(check int) "events counted at append" 1 (Engine.Melyq.n_events coreq);
  Engine.Melyq.push_event cq2 (Some coreq) (event ~color:2 ()) ~weighted:500;
  Alcotest.(check int) "events counted at push" 2 (Engine.Melyq.n_events coreq);
  (match Engine.Melyq.head coreq with
  | Some cq -> Alcotest.(check int) "head is first appended" 1 cq.Engine.Melyq.color
  | None -> Alcotest.fail "head expected");
  Engine.Melyq.rotate coreq;
  (match Engine.Melyq.head coreq with
  | Some cq -> Alcotest.(check int) "rotated" 2 cq.Engine.Melyq.color
  | None -> Alcotest.fail "head expected");
  Engine.Melyq.detach coreq cq2;
  Alcotest.(check int) "detach removes events" 1 (Engine.Melyq.n_events coreq);
  Alcotest.(check int) "detach removes color" 1 (Engine.Melyq.n_colors coreq)

let test_melyq_pop_event () =
  let coreq = Engine.Melyq.create_core_queue ~core:0 in
  let cq = Engine.Melyq.make_color_queue ~color:7 ~owner:0 in
  Engine.Melyq.append coreq cq;
  let e1 = event ~color:7 ~cost:10 () and e2 = event ~color:7 ~cost:20 () in
  Engine.Melyq.push_event cq (Some coreq) e1 ~weighted:500;
  Engine.Melyq.push_event cq (Some coreq) e2 ~weighted:500;
  Alcotest.(check int) "actual cost accumulates" 30 cq.Engine.Melyq.actual_cost;
  (match Engine.Melyq.pop_event cq (Some coreq) with
  | Some e -> Alcotest.(check bool) "fifo" true (e == e1)
  | None -> Alcotest.fail "unexpected empty color queue");
  Alcotest.(check int) "actual cost decreases" 20 cq.Engine.Melyq.actual_cost;
  Alcotest.(check int) "core queue count" 1 (Engine.Melyq.n_events coreq)

let test_stealing_buckets () =
  let open Engine.Melyq.Stealing in
  Alcotest.(check int) "unworthy" (-1) (bucket_of ~weighted:1_000 ~estimate:2_000);
  Alcotest.(check int) "bucket 0" 0 (bucket_of ~weighted:3_000 ~estimate:2_000);
  Alcotest.(check int) "bucket 1" 1 (bucket_of ~weighted:10_000 ~estimate:2_000);
  Alcotest.(check int) "bucket 2" 2 (bucket_of ~weighted:50_000 ~estimate:2_000)

let test_stealing_pop_best () =
  let open Engine.Melyq in
  let sq = Stealing.create () in
  let small = make_color_queue ~color:1 ~owner:0 in
  let big = make_color_queue ~color:2 ~owner:0 in
  small.weighted <- 3_000;
  big.weighted <- 50_000;
  small.in_core_queue <- true;
  big.in_core_queue <- true;
  ignore (Stealing.update sq small ~estimate:2_000);
  ignore (Stealing.update sq big ~estimate:2_000);
  (match Stealing.pop_best sq ~exclude:None ~validate:(fun _ -> true) with
  | Some (cq, _) -> Alcotest.(check int) "highest interval first" 2 cq.color
  | None -> Alcotest.fail "expected a worthy color");
  (* The excluded current color is dropped, not returned. *)
  (match Stealing.pop_best sq ~exclude:(Some 1) ~validate:(fun _ -> true) with
  | None -> ()
  | Some _ -> Alcotest.fail "only color 1 remained and it is excluded");
  Alcotest.(check bool) "membership cleared" true (small.sq_bucket = -1)

let test_stealing_stale_entries () =
  let open Engine.Melyq in
  let sq = Stealing.create () in
  let cq = make_color_queue ~color:9 ~owner:0 in
  cq.weighted <- 10_000;
  cq.in_core_queue <- true;
  ignore (Stealing.update sq cq ~estimate:2_000);
  (* The color drains: entry becomes stale and pop skips it. *)
  cq.in_core_queue <- false;
  Alcotest.(check bool) "stale skipped" true
    (Stealing.pop_best sq ~exclude:None ~validate:(fun c -> c.in_core_queue) = None);
  Alcotest.(check bool) "drained lazily" true (Stealing.is_empty sq)

(* --- Handler / Event ----------------------------------------------- *)

(* A handler's annotations are the inputs of the shared penalty weight. *)
let test_handler_weighted () =
  let h = Engine.Handler.make ~declared_cycles:10_000 ~penalty:1_000 "penalized" in
  let weighted () =
    Mely.weight ~declared:h.Engine.Handler.declared_cycles ~penalty:h.Engine.Handler.penalty
  in
  Alcotest.(check int) "weighted" 10 (weighted ());
  Engine.Handler.set_penalty h 1;
  Alcotest.(check int) "no penalty" 10_000 (weighted ());
  Engine.Handler.set_declared_cycles h 0;
  Alcotest.(check int) "floored at 1" 1 (weighted ())

let test_event_defaults () =
  let e = Engine.Event.make ~handler ~color:3 () in
  Alcotest.(check int) "cost defaults to declared" 500 e.Engine.Event.cost;
  Alcotest.(check bool) "not stolen" false e.Engine.Event.stolen;
  Alcotest.(check int) "no data" 0 (Engine.Event.total_data_bytes e);
  let d1 = Engine.Event.data_ref ~data_id:1 ~bytes:100 () in
  let d2 = Engine.Event.data_ref ~data_id:2 ~bytes:50 ~write:true () in
  let e2 = Engine.Event.make ~handler ~color:3 ~data:[ d1; d2 ] () in
  Alcotest.(check int) "data bytes" 150 (Engine.Event.total_data_bytes e2)

(* --- Trace --------------------------------------------------------- *)

let entry ?(stolen = false) ~seq ~color ~core ~t0 ~t1 () =
  {
    Engine.Trace.event_seq = seq;
    color;
    handler = "h";
    core;
    t_start = t0;
    t_end = t1;
    stolen;
  }

let test_trace_mutual_exclusion () =
  let t = Engine.Trace.create () in
  Engine.Trace.record t (entry ~seq:0 ~color:1 ~core:0 ~t0:0 ~t1:10 ());
  Engine.Trace.record t (entry ~seq:1 ~color:1 ~core:1 ~t0:10 ~t1:20 ());
  Engine.Trace.record t (entry ~seq:2 ~color:2 ~core:2 ~t0:5 ~t1:15 ());
  Alcotest.(check bool) "adjacent ok" true (Engine.Trace.check_mutual_exclusion t = None);
  Engine.Trace.record t (entry ~seq:3 ~color:1 ~core:2 ~t0:15 ~t1:25 ());
  Alcotest.(check bool) "overlap detected" true
    (Engine.Trace.check_mutual_exclusion t <> None)

let test_trace_fifo () =
  let t = Engine.Trace.create () in
  Engine.Trace.record t (entry ~seq:5 ~color:1 ~core:0 ~t0:0 ~t1:1 ());
  Engine.Trace.record t (entry ~seq:6 ~color:1 ~core:0 ~t0:2 ~t1:3 ());
  Alcotest.(check bool) "in order" true (Engine.Trace.check_fifo_per_color t = None);
  Engine.Trace.record t (entry ~seq:4 ~color:1 ~core:0 ~t0:4 ~t1:5 ());
  Alcotest.(check bool) "reorder detected" true (Engine.Trace.check_fifo_per_color t <> None)

let test_metrics_estimate () =
  let m = Engine.Metrics.create () in
  Alcotest.(check int) "starts at the prior" Mely.steal_cost_prior
    (Engine.Metrics.steal_cost_estimate m);
  for _ = 1 to 200 do
    Engine.Metrics.on_steal_success m ~thief_cycles:50_000 ~work_cycles:4_000 ~events:1
      ~stolen_cost:100
  done;
  (* The estimate follows the uncontended work, not the spin-inflated
     thief time. *)
  let estimate = Engine.Metrics.steal_cost_estimate m in
  Alcotest.(check bool) "tracks work cycles" true (estimate > 3_000 && estimate < 5_000);
  Alcotest.(check (float 1.0)) "avg uses thief cycles" 50_000.0
    (Engine.Metrics.avg_steal_cycles m)

let suite =
  [
    Alcotest.test_case "laqueue fifo" `Quick test_laqueue_fifo;
    Alcotest.test_case "laqueue extract color" `Quick test_laqueue_extract_color;
    Alcotest.test_case "laqueue half rule" `Quick test_laqueue_choose_half_rule;
    QCheck_alcotest.to_alcotest prop_laqueue_conservation;
    Alcotest.test_case "melyq chain" `Quick test_melyq_chain;
    Alcotest.test_case "melyq pop" `Quick test_melyq_pop_event;
    Alcotest.test_case "stealing buckets" `Quick test_stealing_buckets;
    Alcotest.test_case "stealing pop best" `Quick test_stealing_pop_best;
    Alcotest.test_case "stealing stale entries" `Quick test_stealing_stale_entries;
    Alcotest.test_case "handler weighted cycles" `Quick test_handler_weighted;
    Alcotest.test_case "event defaults" `Quick test_event_defaults;
    Alcotest.test_case "trace mutual exclusion" `Quick test_trace_mutual_exclusion;
    Alcotest.test_case "trace fifo" `Quick test_trace_fifo;
    Alcotest.test_case "metrics estimate" `Quick test_metrics_estimate;
  ]
