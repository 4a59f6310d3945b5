(* Randomized concurrency stress for the real multicore runtime.

   These tests hammer the two ownership-transfer windows the seed
   runtime got wrong, across many short multi-domain runs so the OS
   scheduler supplies the interleavings:

   - steal vs. enqueue: a thief unchains a color-queue under the
     victim's lock but (in the seed) only took ownership later under its
     own lock, letting a concurrent enqueuer re-validate the stale owner
     and double-chain the queue;
   - drain vs. enqueue: [forget_if_drained] (in the seed) inspected the
     queue under the map lock only, so an enqueuer that had already
     located the queue could push into it right after it was unmapped,
     after which the color re-hashed to a second queue and two
     same-color events could run in parallel.

   Detection is deliberately independent of the runtime's own
   [max_concurrent_same_color] counter: handlers raise a per-color
   atomic in-flight flag, so even a runtime bug that splits one color
   across two queue objects (each with its own counter) is caught. *)

(* Per-color mutual-exclusion probe shared by the tests below. *)
let make_probe n_colors =
  let in_flight = Array.init n_colors (fun _ -> Atomic.make 0) in
  let violations = Atomic.make 0 in
  let enter slot =
    if 1 + Atomic.fetch_and_add in_flight.(slot) 1 > 1 then Atomic.incr violations
  in
  let leave slot = Atomic.decr in_flight.(slot) in
  (enter, leave, violations)

(* Per-worker counters, read through the one stats path. *)
let worker_counters rt =
  Array.map
    (fun (w : Rt.Telemetry.worker_snap) -> w.w_metrics)
    (Rt.Runtime.telemetry_snapshot rt).s_workers

let busywork iters =
  let acc = ref 0 in
  for j = 1 to iters do
    acc := !acc + j
  done;
  ignore !acc

(* The ownership/recycled/FIFO scenarios below run twice: untraced,
   and with the flight recorder on ([traced]), where each run's
   real-domain trace must also pass both offline replay checkers —
   mutual exclusion and per-color FIFO certified from the spans, not
   only from the probes. *)
let make_rt ~traced ~workers () =
  if traced then
    Rt.Runtime.create ~workers
      ~trace:{ Rt.Trace.capacity = 16_384; histograms = false }
      ()
  else Rt.Runtime.create ~workers ()

let certify_trace ~msg rt =
  match Rt.Runtime.trace rt with
  | None -> ()
  | Some tr ->
    (match Rt.Trace.check_mutual_exclusion tr with
    | None -> ()
    | Some v ->
      let (wa, a), (wb, b) = (v.Rt.Trace.va, v.vb) in
      Alcotest.failf "%s: mutual-exclusion violation color %d (%s on w%d vs %s on w%d)"
        msg a.Rt.Trace.x_color a.x_handler wa b.x_handler wb);
    (match Rt.Trace.check_fifo_per_color tr with
    | None -> ()
    | Some v ->
      let (_, a), (_, b) = (v.Rt.Trace.va, v.vb) in
      Alcotest.failf "%s: FIFO violation color %d (seq %d ran before seq %d)" msg
        a.Rt.Trace.x_color b.x_seq a.x_seq)

(* Steal/enqueue ownership transfer: all colors hash to worker 0 and
   every handler registers the *next* color in a ring, so enqueues to a
   color keep arriving from handlers running on other workers while that
   color's queue sits stealable — exactly the collision the seed's
   deferred ownership transfer loses. *)
let test_steal_enqueue_ownership ?(traced = false) ?(runs = 60) () =
  let total_steals = ref 0 in
  for run = 1 to runs do
    let workers = 2 + (run mod 3) in
    let rt = make_rt ~traced ~workers () in
    (* Large declared cycles: every color is immediately steal-worthy. *)
    let h = Rt.Runtime.handler rt ~name:"own" ~declared_cycles:500_000 () in
    let n_colors = 6 and seeds = 4 and depth = 5 in
    let count = Atomic.make 0 in
    let enter, leave, violations = make_probe n_colors in
    (* all colors ≡ 0 mod workers; slot [s] is color [workers * (s+1)] *)
    let color_of s = workers * (s + 1) in
    for c = 0 to n_colors - 1 do
      let slot_at d = (c + depth - d) mod n_colors in
      let rec work d (ctx : Rt.Runtime.ctx) =
        let slot = slot_at d in
        enter slot;
        Atomic.incr count;
        busywork 10_000;
        leave slot;
        if d > 0 then ctx.register ~color:(color_of (slot_at (d - 1))) ~handler:h
            (work (d - 1))
      in
      for _ = 1 to seeds do
        Rt.Runtime.register rt ~color:(color_of (slot_at depth)) ~handler:h (work depth)
      done
    done;
    Rt.Runtime.run_until_idle rt;
    let expected = n_colors * seeds * (depth + 1) in
    Alcotest.(check int) (Printf.sprintf "run %d: exactly once" run) expected
      (Atomic.get count);
    Alcotest.(check int) (Printf.sprintf "run %d: executed" run) expected
      (Rt.Runtime.executed rt);
    Alcotest.(check int) (Printf.sprintf "run %d: probe serial" run) 0
      (Atomic.get violations);
    Alcotest.(check int) (Printf.sprintf "run %d: runtime serial" run) 1
      (Rt.Runtime.max_concurrent_same_color rt);
    (* Cross-check the per-worker counters against the runtime totals. *)
    let stats = worker_counters rt in
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
    Alcotest.(check int)
      (Printf.sprintf "run %d: stats executed" run)
      expected
      (sum (fun (s : Rt.Telemetry.counters) -> s.executed));
    Alcotest.(check int)
      (Printf.sprintf "run %d: steals in = steals" run)
      (Rt.Runtime.steals rt)
      (sum (fun (s : Rt.Telemetry.counters) -> s.steals_in));
    Alcotest.(check int)
      (Printf.sprintf "run %d: steals out = steals" run)
      (Rt.Runtime.steals rt)
      (sum (fun (s : Rt.Telemetry.counters) -> s.steals_out));
    total_steals := !total_steals + Rt.Runtime.steals rt;
    certify_trace ~msg:(Printf.sprintf "ownership run %d" run) rt
  done;
  Alcotest.(check bool) "ownership transfers exercised" true (!total_steals > 0)

(* Drain/recycle: a tiny color space and handlers that immediately hop
   to another color, so every queue drains (and is eligible for
   unmapping) between consecutive events of its color. An enqueuer
   racing [forget_if_drained] on the seed code pushes into a dropped
   queue and the event is duplicated onto a fresh queue or lost. *)
let test_recycled_colors ?(traced = false) ?(runs = 50) () =
  for run = 1 to runs do
    let workers = 2 + (run mod 3) in
    let rt = make_rt ~traced ~workers () in
    let h = Rt.Runtime.handler rt ~name:"recycle" ~declared_cycles:100_000 () in
    let n_colors = 3 and chains = 6 and depth = 40 in
    let count = Atomic.make 0 in
    let enter, leave, violations = make_probe n_colors in
    for j = 0 to chains - 1 do
      (* The event at depth [d] of chain [j] runs under color
         [1 + slot_at d]; consecutive hops use different colors so each
         queue drains (and may be unmapped) between its uses, and the
         chains' phases collide on the same colors from different
         workers. *)
      let slot_at d = (j + depth - d) mod n_colors in
      let rec hop d (ctx : Rt.Runtime.ctx) =
        let slot = slot_at d in
        enter slot;
        Atomic.incr count;
        busywork 5_000;
        leave slot;
        if d > 0 then ctx.register ~color:(1 + slot_at (d - 1)) ~handler:h (hop (d - 1))
      in
      Rt.Runtime.register rt ~color:(1 + slot_at depth) ~handler:h (hop depth)
    done;
    Rt.Runtime.run_until_idle rt;
    let expected = chains * (depth + 1) in
    Alcotest.(check int) (Printf.sprintf "run %d: exactly once" run) expected
      (Atomic.get count);
    Alcotest.(check int) (Printf.sprintf "run %d: probe serial" run) 0
      (Atomic.get violations);
    Alcotest.(check int) (Printf.sprintf "run %d: runtime serial" run) 1
      (Rt.Runtime.max_concurrent_same_color rt);
    certify_trace ~msg:(Printf.sprintf "recycle run %d" run) rt
  done

(* Per-color FIFO must survive steals and recycling: each color records
   its observed sequence numbers; mutual exclusion makes the per-color
   array single-writer. *)
let test_fifo_under_stealing ?(traced = false) ?(runs = 50) () =
  for run = 1 to runs do
    let workers = 2 + (run mod 3) in
    let rt = make_rt ~traced ~workers () in
    let h = Rt.Runtime.handler rt ~name:"fifo" ~declared_cycles:200_000 () in
    let n_colors = 5 and per_color = 30 in
    let seen = Array.make n_colors [] in
    let violations = Atomic.make 0 in
    for seq = 0 to (n_colors * per_color) - 1 do
      let c = seq mod n_colors in
      Rt.Runtime.register rt ~color:(workers * (c + 1)) ~handler:h (fun _ ->
          (match seen.(c) with
          | last :: _ when last > seq -> Atomic.incr violations
          | _ -> ());
          seen.(c) <- seq :: seen.(c);
          busywork 500)
    done;
    Rt.Runtime.run_until_idle rt;
    Alcotest.(check int) (Printf.sprintf "run %d: fifo" run) 0 (Atomic.get violations);
    Array.iteri
      (fun c entries ->
        Alcotest.(check int)
          (Printf.sprintf "run %d: color %d complete" run c)
          per_color (List.length entries))
      seen;
    certify_trace ~msg:(Printf.sprintf "fifo run %d" run) rt
  done

(* Parking: while a single serial color executes, every other worker has
   nothing pending and must park (not spin). The first chain event holds
   the runtime active until it observes a parked sibling in the counters
   (bounded spin — generous, because on a loaded host the idle domains
   are scheduled late); the follow-ups then prove parked workers are
   woken by enqueues, and termination proves the quiescence broadcast. *)
let test_parking_on_serial_chain () =
  let rt = Rt.Runtime.create ~workers:4 () in
  let h = Rt.Runtime.handler rt ~name:"serial" ~declared_cycles:50_000 () in
  let count = Atomic.make 0 in
  let parked_seen = Atomic.make false in
  let sum_parks () =
    Array.fold_left
      (fun acc (s : Rt.Telemetry.counters) -> acc + s.parks)
      0 (worker_counters rt)
  in
  let rec chain depth (ctx : Rt.Runtime.ctx) =
    Atomic.incr count;
    if depth > 0 then ctx.register ~color:1 ~handler:h (chain (depth - 1))
  in
  Rt.Runtime.register rt ~color:1 ~handler:h (fun ctx ->
      Atomic.incr count;
      let budget = ref 100_000 in
      while (not (Atomic.get parked_seen)) && !budget > 0 do
        decr budget;
        if sum_parks () > 0 then Atomic.set parked_seen true
        else
          for _ = 1 to 2_000 do
            Domain.cpu_relax ()
          done
      done;
      ctx.register ~color:1 ~handler:h (chain 40));
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "chain complete" 42 (Atomic.get count);
  Alcotest.(check bool) "idle workers parked" true (Atomic.get parked_seen);
  Alcotest.(check int) "serial" 1 (Rt.Runtime.max_concurrent_same_color rt);
  let park_seconds =
    Array.fold_left
      (fun acc (s : Rt.Telemetry.counters) -> acc +. s.park_seconds)
      0.0 (worker_counters rt)
  in
  Alcotest.(check bool) "park time recorded" true (park_seconds >= 0.0)

(* ------------------------------------------------------------------ *)
(* Serving lifecycle and fault containment.                           *)

exception Boom of int

(* Regression for the execute/active deadlock: a handler exception used
   to escape [worker_loop] before the [active] decrement, killing the
   domain while parked siblings waited on [active > 0] forever. Raising
   handlers are spread across colors homing on all 4 workers, mixed
   with healthy events; the run must terminate, report every failure
   through the per-worker counters, and lose none of the healthy
   events. *)
let test_raising_handlers_terminate () =
  let rt = Rt.Runtime.create ~workers:4 () in
  let bad = Rt.Runtime.handler rt ~name:"bad" ~declared_cycles:100_000 () in
  let good = Rt.Runtime.handler rt ~name:"good" ~declared_cycles:100_000 () in
  let n_bad = 40 and n_good = 200 in
  let ran = Atomic.make 0 in
  for i = 0 to n_bad - 1 do
    (* colors 1..n_bad: homes on every worker *)
    Rt.Runtime.register rt ~color:(1 + i) ~handler:bad (fun _ -> raise (Boom i))
  done;
  for i = 0 to n_good - 1 do
    Rt.Runtime.register rt ~color:(1 + (i mod 64)) ~handler:good (fun _ ->
        busywork 2_000;
        Atomic.incr ran)
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "healthy events all ran" n_good (Atomic.get ran);
  Alcotest.(check int) "failures counted" n_bad (Rt.Runtime.errors rt);
  Alcotest.(check int) "failed events still consumed" (n_bad + n_good)
    (Rt.Runtime.executed rt);
  Alcotest.(check int) "nothing left pending" 0 (Rt.Runtime.pending rt);
  let stats = worker_counters rt in
  let sum_errors =
    Array.fold_left (fun acc (s : Rt.Telemetry.counters) -> acc + s.errors) 0 stats
  in
  Alcotest.(check int) "stats errors tie out" n_bad sum_errors;
  let reported =
    Array.exists
      (fun (s : Rt.Telemetry.counters) ->
        match s.last_error with Some ("bad", _) -> true | _ -> false)
      stats
  in
  Alcotest.(check bool) "failing handler named in stats" true reported

(* Stop_runtime: the first failure closes the gate; workers exit
   without draining, the backlog stays observable, and later registers
   are refused until the next run resets the gate. *)
let test_stop_runtime_policy () =
  let rt = Rt.Runtime.create ~workers:4 ~on_error:Stop_runtime () in
  let h = Rt.Runtime.handler rt ~name:"mix" ~declared_cycles:50_000 () in
  let total = 400 in
  for i = 0 to total - 1 do
    Rt.Runtime.register rt ~color:(1 + (i mod 32)) ~handler:h (fun _ ->
        busywork 2_000;
        if i = 37 then failwith "poisoned event")
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check bool) "failure recorded" true (Rt.Runtime.errors rt >= 1);
  Alcotest.(check int) "backlog accounted" total
    (Rt.Runtime.executed rt + Rt.Runtime.pending rt);
  let refused_before = Rt.Runtime.refused rt in
  let accepted = Rt.Runtime.try_register rt ~color:1 ~handler:h (fun _ -> ()) in
  Alcotest.(check bool) "gate stays closed after abort" false accepted;
  Alcotest.(check int) "refusal counted" (refused_before + 1) (Rt.Runtime.refused rt)

(* Under Swallow a serving runtime keeps accepting and executing after
   failures — the error is contained, the service stays up. *)
let test_swallow_keeps_serving () =
  let rt = Rt.Runtime.create ~workers:4 ~on_error:Swallow () in
  let bad = Rt.Runtime.handler rt ~name:"bad" ~declared_cycles:10_000 () in
  let good = Rt.Runtime.handler rt ~name:"good" ~declared_cycles:10_000 () in
  let ran = Atomic.make 0 in
  Rt.Runtime.start rt;
  for i = 0 to 19 do
    Alcotest.(check bool) "bad accepted" true
      (Rt.Runtime.try_register rt ~color:(1 + i) ~handler:bad (fun _ ->
           failwith "contained"))
  done;
  Rt.Runtime.quiesce rt;
  Alcotest.(check bool) "still serving after failures" true (Rt.Runtime.is_serving rt);
  for i = 0 to 99 do
    Alcotest.(check bool) "good accepted" true
      (Rt.Runtime.try_register rt ~color:(1 + (i mod 8)) ~handler:good (fun _ ->
           Atomic.incr ran))
  done;
  Rt.Runtime.quiesce rt;
  Rt.Runtime.stop rt;
  Alcotest.(check int) "post-failure events all ran" 100 (Atomic.get ran);
  Alcotest.(check int) "failures counted" 20 (Rt.Runtime.errors rt)

(* The lowest [pending] injector domains observed. They only record it;
   the test asserts on the main domain, since Alcotest's checks are not
   domain-safe. *)
let pending_floor () =
  let min_pending = Atomic.make 0 in
  let note_pending rt =
    let p = Rt.Runtime.pending rt in
    let rec floor_ () =
      let seen = Atomic.get min_pending in
      if p < seen && not (Atomic.compare_and_set min_pending seen p) then floor_ ()
    in
    floor_ ()
  in
  (note_pending, min_pending)

(* External injection into a live runtime: several injector domains
   register concurrently with execution across repeated start/stop
   cycles, sampling [pending] for the non-negativity invariant (the
   seed raised it after publication, so a fast consumer drove it to -1
   and siblings declared quiescence mid-enqueue). *)
let test_external_injection () =
  let note_pending, min_pending = pending_floor () in
  for run = 1 to 50 do
    let workers = 2 + (run mod 3) in
    let rt = Rt.Runtime.create ~workers () in
    let h = Rt.Runtime.handler rt ~name:"inject" ~declared_cycles:30_000 () in
    let per_injector = 60 and injectors = 3 in
    let ran = Atomic.make 0 in
    Rt.Runtime.start rt;
    let feeders =
      List.init injectors (fun j ->
          Domain.spawn (fun () ->
              let accepted = ref 0 in
              for i = 0 to per_injector - 1 do
                let color = 1 + ((j + (i * injectors)) mod 16) in
                if
                  Rt.Runtime.try_register rt ~color ~handler:h (fun _ ->
                      busywork 1_000;
                      Atomic.incr ran)
                then incr accepted;
                note_pending rt
              done;
              !accepted))
    in
    let accepted = List.fold_left (fun acc d -> acc + Domain.join d) 0 feeders in
    Alcotest.(check int)
      (Printf.sprintf "run %d: live runtime accepts external registers" run)
      (injectors * per_injector) accepted;
    Rt.Runtime.quiesce rt;
    Alcotest.(check int) (Printf.sprintf "run %d: quiesce drained" run) 0
      (Rt.Runtime.pending rt);
    Rt.Runtime.stop rt;
    Alcotest.(check int) (Printf.sprintf "run %d: all injected ran" run) accepted
      (Atomic.get ran);
    Alcotest.(check int) (Printf.sprintf "run %d: conservation" run) accepted
      (Rt.Runtime.executed rt)
  done;
  Alcotest.(check int) "pending never negative" 0 (min (Atomic.get min_pending) 0)

(* Stop while loaded: injectors race [stop]; every accepted event must
   execute (graceful drain), every rejected one must be counted, and
   handler follow-ups enqueued during the drain must not be lost. *)
let test_stop_while_loaded () =
  let note_pending, min_pending = pending_floor () in
  for run = 1 to 12 do
    let workers = 2 + (run mod 3) in
    let rt = Rt.Runtime.create ~workers () in
    let h = Rt.Runtime.handler rt ~name:"load" ~declared_cycles:50_000 () in
    let ran = Atomic.make 0 and follow_ups = Atomic.make 0 in
    Rt.Runtime.start rt;
    let feeders =
      List.init 3 (fun j ->
          Domain.spawn (fun () ->
              let accepted = ref 0 in
              for i = 0 to 199 do
                let color = 1 + ((j + (i * 3)) mod 12) in
                if
                  Rt.Runtime.try_register rt ~color ~handler:h (fun ctx ->
                      busywork 3_000;
                      Atomic.incr ran;
                      (* One follow-up per fifth event: in-flight chains
                         must survive the drain. *)
                      if i mod 5 = 0 then
                        ctx.register ~color ~handler:h (fun _ ->
                            Atomic.incr follow_ups))
                then incr accepted;
                note_pending rt
              done;
              !accepted))
    in
    (* Let some load build, then stop in the middle of the injection. *)
    busywork 200_000;
    Rt.Runtime.stop rt;
    let accepted = List.fold_left (fun acc d -> acc + Domain.join d) 0 feeders in
    let attempts = 3 * 200 in
    Alcotest.(check int)
      (Printf.sprintf "run %d: attempts = accepted + refused" run)
      attempts
      (accepted + Rt.Runtime.refused rt);
    Alcotest.(check int)
      (Printf.sprintf "run %d: accepted externals all ran" run)
      accepted (Atomic.get ran);
    Alcotest.(check int)
      (Printf.sprintf "run %d: drain left nothing queued" run)
      0 (Rt.Runtime.pending rt);
    Alcotest.(check int)
      (Printf.sprintf "run %d: conservation incl. follow-ups" run)
      (accepted + Atomic.get follow_ups)
      (Rt.Runtime.executed rt)
  done;
  Alcotest.(check int) "pending never negative" 0 (min (Atomic.get min_pending) 0)

(* Conservation across concurrent publish/steal/drain: the queued-event
   counters of the lock-free structure must tie out against [pending].
   [debug_check_conservation] audits under the shard locks: mid-flight
   it checks the bound (queued <= pending, nothing negative, no retired
   queue mapped); at the quiesce checkpoints between waves, and after
   the final stop, it checks exact equality — every counter zero, every
   linked queue's walk agreeing with its counter, no colors chained. *)
let test_conservation_under_storm () =
  for run = 1 to 8 do
    let workers = 2 + (run mod 3) in
    let rt = Rt.Runtime.create ~workers () in
    let h = Rt.Runtime.handler rt ~name:"conserve" ~declared_cycles:50_000 () in
    let check where =
      match Rt.Runtime.debug_check_conservation rt with
      | None -> ()
      | Some msg -> Alcotest.failf "run %d (%s): %s" run where msg
    in
    Rt.Runtime.start rt;
    for wave = 1 to 4 do
      let feeders =
        List.init 3 (fun j ->
            Domain.spawn (fun () ->
                for i = 0 to 99 do
                  let color = 1 + ((j + (i * 3)) mod 24) in
                  ignore
                    (Rt.Runtime.try_register rt ~color ~handler:h (fun ctx ->
                         busywork 500;
                         if i mod 7 = 0 then
                           ctx.register ~color:(color + 24) ~handler:h (fun _ ->
                               busywork 200)));
                  (* Mid-flight audit while publishers, thieves and
                     owners all churn. *)
                  if i mod 25 = 0 then check "mid-flight"
                done))
      in
      List.iter Domain.join feeders;
      Rt.Runtime.quiesce rt;
      check (Printf.sprintf "wave %d quiesced" wave)
    done;
    Rt.Runtime.stop rt;
    check "stopped";
    Alcotest.(check int) (Printf.sprintf "run %d: drained" run) 0
      (Rt.Runtime.pending rt)
  done

(* No lost wakeup under the single-signal park protocol: force every
   worker to park (empty runtime, serving), then inject exactly one
   event — the signal chain must reach a worker that executes it. Any
   lost wakeup deadlocks [quiesce] and hangs the test. Many rounds,
   alternating burst sizes, so signals race parks from every state. *)
let test_park_wake_storm () =
  for run = 1 to 4 do
    let workers = 2 + run in
    let rt = Rt.Runtime.create ~workers () in
    let h = Rt.Runtime.handler rt ~name:"wake" ~declared_cycles:10_000 () in
    let ran = Atomic.make 0 in
    Rt.Runtime.start rt;
    let sent = ref 0 in
    for round = 1 to 300 do
      (* Let the fleet go quiescent (workers park) between bursts. *)
      Rt.Runtime.quiesce rt;
      let burst = 1 + (round mod 3) in
      for b = 1 to burst do
        incr sent;
        ignore
          (Rt.Runtime.try_register rt ~color:(1 + ((round + b) mod 8)) ~handler:h
             (fun _ -> Atomic.incr ran))
      done
    done;
    Rt.Runtime.quiesce rt;
    Rt.Runtime.stop rt;
    Alcotest.(check int)
      (Printf.sprintf "run %d: every single-event wakeup delivered" run)
      !sent (Atomic.get ran);
    (* The herd fix must not have broken park accounting. *)
    let parks =
      Array.fold_left
        (fun acc (s : Rt.Telemetry.counters) -> acc + s.parks)
        0 (worker_counters rt)
    in
    Alcotest.(check bool) (Printf.sprintf "run %d: workers parked" run) true
      (parks > 0)
  done

(* ------------------------------------------------------------------ *)
(* Idle policy: per-worker parking behind the worthy-work advert.      *)

(* Poll [cond] every 0.5 ms for at most [seconds]. The tests below only
   wait on what must eventually happen; they assert no timing. *)
let await ?(seconds = 20.0) cond =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    cond () || (Unix.gettimeofday () < deadline && (Unix.sleepf 5e-4; go ()))
  in
  go ()

(* Wedge deadlines far beyond any wait here: the deliberately blocked
   handler must not be quarantined by the supervisor mid-test. *)
let patient = { Rt.Supervision.default_config with wedge_warn_ns = 60_000_000_000;
                wedge_kill_ns = 120_000_000_000 }

(* A 2-worker serving runtime with worker 0 blocked inside a handler
   until [f] returns and three unworthy events queued behind it on
   worker 0. All four are registered before the workers start, so
   [pending > 0] from worker 1's first look until [f] returns. [f]
   returns how many events it added. *)
let with_blocked_owner f =
  let rt = Rt.Runtime.create ~workers:2 ~supervision:patient () in
  let small = Rt.Runtime.handler rt ~name:"small" ~declared_cycles:1 () in
  let latch = Atomic.make false and blocked_on = Atomic.make (-1) in
  let ran = Atomic.make 0 in
  let reg color run =
    Alcotest.(check bool) "accepted" true
      (Rt.Runtime.try_register rt ~color ~home:0 ~handler:small run)
  in
  reg 2 (fun ctx ->
      Atomic.set blocked_on ctx.worker;
      ignore (await (fun () -> Atomic.get latch));
      Atomic.incr ran);
  List.iter (fun color -> reg color (fun _ -> Atomic.incr ran)) [ 4; 6; 8 ];
  Rt.Runtime.start rt;
  Alcotest.(check bool) "worker 0 entered the blocking handler" true
    (await (fun () -> Atomic.get blocked_on >= 0));
  Alcotest.(check int) "the unworthy blocker ran on its owner" 0 (Atomic.get blocked_on);
  let extra = f rt in
  Atomic.set latch true;
  Rt.Runtime.quiesce rt;
  Rt.Runtime.stop rt;
  Alcotest.(check int) "the blocked owner's events ran" 4 (Atomic.get ran);
  Alcotest.(check int) "conservation" (4 + extra) (Rt.Runtime.executed rt)

(* An idle worker must not spin just because something is pending
   somewhere: here the only pending events sit unworthy behind a
   blocked owner, so the sibling's steal round finds no advert worth
   probing and it parks. *)
let test_parks_while_pending () =
  with_blocked_owner (fun rt ->
      Alcotest.(check bool) "worker 1 parks while events are pending" true
        (await (fun () ->
             (worker_counters rt).(1).parked_now && Rt.Runtime.pending rt > 0));
      Alcotest.(check int) "nothing unworthy was stolen" 0 (Rt.Runtime.steals rt);
      0)

(* A worthy queue chained onto the blocked (awake) owner bumps its
   advert and wakes the parked sibling, which steals and runs it. *)
let test_worthy_publish_wakes_sibling () =
  with_blocked_owner (fun rt ->
      Alcotest.(check bool) "worker 1 parked first" true
        (await (fun () -> (worker_counters rt).(1).parked_now));
      let heavy = Rt.Runtime.handler rt ~name:"heavy" ~declared_cycles:400_000 () in
      let ran_on = Atomic.make (-1) in
      Alcotest.(check bool) "accepted" true
        (Rt.Runtime.try_register rt ~color:10 ~home:0 ~handler:heavy (fun ctx ->
             Atomic.set ran_on ctx.worker));
      Alcotest.(check bool) "the worthy event ran" true
        (await (fun () -> Atomic.get ran_on >= 0));
      Alcotest.(check int) "on the woken sibling" 1 (Atomic.get ran_on);
      Alcotest.(check bool) "by a steal" true (Rt.Runtime.steals rt >= 1);
      1)

(* A publish wakes the parked owner it chains onto, and no one else:
   the other parked worker never runs a steal round, so with tracing on
   it records no Visit. *)
let test_homed_event_wakes_only_its_owner () =
  let rt =
    Rt.Runtime.create ~workers:2
      ~trace:{ Rt.Trace.capacity = 4_096; histograms = false }
      ()
  in
  let h = Rt.Runtime.handler rt ~name:"homed" () in
  Rt.Runtime.start rt;
  Alcotest.(check bool) "both workers park" true
    (await (fun () -> Array.for_all (fun (c : Rt.Telemetry.counters) -> c.parked_now)
                        (worker_counters rt)));
  let ran_on = Atomic.make (-1) in
  Alcotest.(check bool) "accepted" true
    (Rt.Runtime.try_register rt ~color:3 ~home:1 ~handler:h (fun ctx ->
         Atomic.set ran_on ctx.worker));
  Rt.Runtime.quiesce rt;
  Rt.Runtime.stop rt;
  Alcotest.(check int) "ran on its owner" 1 (Atomic.get ran_on);
  let tr = Option.get (Rt.Runtime.trace rt) in
  let visits =
    List.length (List.filter (function Rt.Trace.Visit _ -> true | _ -> false)
                   (Rt.Trace.spans tr 0))
  in
  Alcotest.(check int) "parked worker 0 recorded no Visit" 0 visits

let suite =
  [
    Alcotest.test_case "steal/enqueue ownership x60" `Slow (fun () ->
        test_steal_enqueue_ownership ());
    Alcotest.test_case "conservation under storm x8" `Slow test_conservation_under_storm;
    Alcotest.test_case "park/wake storm x4" `Slow test_park_wake_storm;
    Alcotest.test_case "recycled colors x50" `Slow (fun () -> test_recycled_colors ());
    Alcotest.test_case "fifo under stealing x50" `Slow (fun () ->
        test_fifo_under_stealing ());
    Alcotest.test_case "ownership, traced x20" `Slow (fun () ->
        test_steal_enqueue_ownership ~traced:true ~runs:20 ());
    Alcotest.test_case "recycled colors, traced x15" `Slow (fun () ->
        test_recycled_colors ~traced:true ~runs:15 ());
    Alcotest.test_case "fifo, traced x15" `Slow (fun () ->
        test_fifo_under_stealing ~traced:true ~runs:15 ());
    Alcotest.test_case "parking on serial chain" `Quick test_parking_on_serial_chain;
    Alcotest.test_case "raising handlers terminate (4 workers)" `Quick
      test_raising_handlers_terminate;
    Alcotest.test_case "stop_runtime policy aborts" `Quick test_stop_runtime_policy;
    Alcotest.test_case "swallow policy keeps serving" `Quick test_swallow_keeps_serving;
    Alcotest.test_case "external injection x50" `Slow test_external_injection;
    Alcotest.test_case "stop while loaded x12" `Slow test_stop_while_loaded;
    Alcotest.test_case "parks while pending" `Quick test_parks_while_pending;
    Alcotest.test_case "worthy publish wakes sibling" `Quick
      test_worthy_publish_wakes_sibling;
    Alcotest.test_case "homed event wakes only owner" `Quick
      test_homed_event_wakes_only_its_owner;
  ]
