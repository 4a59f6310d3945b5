(* The shared decision core ({!Mely}): one table of synthetic cases for
   the replay-checker pair, run through both traces that call it, and a
   differential test that runs one seeded workload through the
   simulated scheduler and through the real runtime and requires the
   same verdicts and the same per-color execution order of both. *)

(* --- Replay checkers ------------------------------------------------ *)

(* [(color, seq, start, stop)] spans, in recording order, with whether
   each checker must report a violation. *)
let checker_cases =
  [
    ("adjacent spans", [ (1, 0, 0, 10); (1, 1, 10, 20); (2, 2, 5, 15) ], false, false);
    ("overlap", [ (1, 0, 0, 10); (1, 1, 5, 15) ], true, false);
    ("overlap across a nested span", [ (1, 0, 0, 100); (1, 1, 10, 20); (1, 2, 30, 40) ], true, false);
    ("other colors may overlap", [ (1, 0, 0, 10); (2, 1, 5, 15) ], false, false);
    ("seq inversion", [ (1, 1, 0, 10); (1, 0, 10, 20) ], false, true);
    ("recorded out of time order", [ (1, 1, 10, 20); (1, 0, 0, 10) ], false, false);
    ("zero-length span at a boundary", [ (1, 0, 0, 10); (1, 1, 10, 10); (1, 2, 10, 20) ], false, false);
    ("zero-length span inside another", [ (1, 0, 0, 10); (1, 1, 5, 5) ], true, false);
  ]

let engine_verdicts spans =
  let t = Engine.Trace.create () in
  List.iter
    (fun (color, seq, t_start, t_end) ->
      Engine.Trace.record t
        { Engine.Trace.event_seq = seq; color; handler = "h"; core = 0; t_start; t_end; stolen = false })
    spans;
  (Engine.Trace.check_mutual_exclusion t <> None, Engine.Trace.check_fifo_per_color t <> None)

let rt_verdicts spans =
  let t = Rt.Trace.create ~workers:1 { Rt.Trace.capacity = 64; histograms = false } in
  List.iter
    (fun (color, seq, start, stop) ->
      Rt.Trace.record_exec t ~worker:0 ~handler:"h" ~color ~seq ~enq_ns:0L
        ~start_ns:(Int64.of_int start) ~end_ns:(Int64.of_int stop))
    spans;
  (Rt.Trace.check_mutual_exclusion t <> None, Rt.Trace.check_fifo_per_color t <> None)

let test_checker_table () =
  List.iter
    (fun (name, spans, overlap, inversion) ->
      let expected = (overlap, inversion) in
      let check side got =
        Alcotest.(check (pair bool bool)) (name ^ " (" ^ side ^ ")") expected got
      in
      check "Engine.Trace" (engine_verdicts spans);
      check "Rt.Trace" (rt_verdicts spans))
    checker_cases

(* --- Differential test: simulator against runtime ------------------- *)

(* The seeded chain workload, shaped like test_sched's: every color
   starts on core/worker 0 with 1-3 root events, and each event
   registers its follow-up on the same color until its chain ends.
   Every event carries an id fixed by its place in the chain, so the
   two sides can be compared id by id. *)
let n_colors = 16

let roots =
  let rng = Mstd.Rng.create 7L in
  List.concat_map
    (fun color ->
      List.init (Mstd.Rng.int_in rng 1 3) (fun r -> (color, r, Mstd.Rng.int rng 8)))
    (List.init n_colors (fun c -> c + 1))

let id ~color ~root ~depth = (color * 1_000) + (root * 10) + depth
let expected_events = List.fold_left (fun acc (_, _, depth) -> acc + depth + 1) 0 roots
let declared_cycles = 5_000

(* Per-color execution log, newest first. Each cell is written only by
   events of its color, which never run concurrently. *)
let new_logs () = Array.make (n_colors + 1) []
let log logs ~color ~root ~depth = logs.(color) <- id ~color ~root ~depth :: logs.(color)

let run_sim ~cores =
  let topo = Hw.Topology.create ~packages:1 ~groups_per_package:1 ~cores_per_group:cores in
  let machine = Sim.Machine.create ~seed:11L topo Hw.Cost_model.default in
  let sched = Engine.Mely_sched.create machine (Engine.Config.with_trace Engine.Config.mely_ws) in
  let handler = Engine.Handler.make ~declared_cycles "chain" in
  let logs = new_logs () in
  let rec event ?core_hint ~color ~root ~depth () =
    Engine.Event.make ~handler ~color ~cost:2_000 ?core_hint
      ~action:(fun ctx ->
        log logs ~color ~root ~depth;
        if depth > 0 then
          ctx.Engine.Event.ctx_register (event ~color ~root ~depth:(depth - 1) ()))
      ()
  in
  List.iter
    (fun (color, root, depth) ->
      sched.Engine.Sched.register_external ~at:0 (event ~core_hint:0 ~color ~root ~depth ()))
    roots;
  ignore (Engine.Driver.run sched);
  let side = Printf.sprintf "sim, %d cores" cores in
  Alcotest.(check int) (side ^ ": conserved") expected_events
    (Engine.Metrics.executed sched.Engine.Sched.metrics);
  Alcotest.(check int) (side ^ ": drained") 0 (sched.Engine.Sched.pending ());
  let trace = Option.get sched.Engine.Sched.trace in
  Alcotest.(check bool) (side ^ ": mutual exclusion") true
    (Engine.Trace.check_mutual_exclusion trace = None);
  Alcotest.(check bool) (side ^ ": per-color FIFO") true
    (Engine.Trace.check_fifo_per_color trace = None);
  (logs, Engine.Metrics.steals sched.Engine.Sched.metrics)

let busywork iters =
  let acc = ref 0 in
  for j = 1 to iters do
    acc := !acc + j
  done;
  ignore !acc

let run_rt ~workers =
  let rt =
    Rt.Runtime.create ~workers ~trace:{ Rt.Trace.capacity = 4_096; histograms = false } ()
  in
  let handler = Rt.Runtime.handler rt ~name:"chain" ~declared_cycles () in
  let logs = new_logs () in
  let rec run ~color ~root ~depth (ctx : Rt.Runtime.ctx) =
    log logs ~color ~root ~depth;
    busywork 20_000;
    if depth > 0 then ctx.register ~color ~handler (run ~color ~root ~depth:(depth - 1))
  in
  List.iter
    (fun (color, root, depth) ->
      ignore (Rt.Runtime.try_register rt ~color ~home:0 ~handler (run ~color ~root ~depth)))
    roots;
  Rt.Runtime.run_until_idle rt;
  let side = Printf.sprintf "runtime, %d workers" workers in
  Alcotest.(check int) (side ^ ": conserved") expected_events (Rt.Runtime.executed rt);
  Alcotest.(check int) (side ^ ": drained") 0 (Rt.Runtime.pending rt);
  Alcotest.(check (option string)) (side ^ ": audit") None
    (Rt.Runtime.debug_check_conservation rt);
  let trace = Option.get (Rt.Runtime.trace rt) in
  Alcotest.(check int) (side ^ ": no span dropped") 0 (Rt.Trace.total_dropped trace);
  Alcotest.(check bool) (side ^ ": mutual exclusion") true
    (Rt.Trace.check_mutual_exclusion trace = None);
  Alcotest.(check bool) (side ^ ": per-color FIFO") true
    (Rt.Trace.check_fifo_per_color trace = None);
  logs

let test_differential workers () =
  let sim, sim_steals = run_sim ~cores:workers in
  let rt = run_rt ~workers in
  if workers > 1 then
    Alcotest.(check bool) "the simulated run stole" true (sim_steals > 0);
  for color = 1 to n_colors do
    Alcotest.(check (list int))
      (Printf.sprintf "color %d: same event order, %d worker(s)" color workers)
      (List.rev sim.(color)) (List.rev rt.(color))
  done

let suite =
  [
    Alcotest.test_case "checker table" `Quick test_checker_table;
    Alcotest.test_case "sim and runtime agree, 1 worker" `Quick (test_differential 1);
    Alcotest.test_case "sim and runtime agree, 2 workers" `Quick (test_differential 2);
  ]
