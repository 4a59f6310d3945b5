(* Self-healing runtime: worker-domain supervision.

   Three layers of coverage:

   - injected deaths on the live runtime, certified by the same replay
     checkers as the steal tests: migration must not buy liveness at
     the expense of per-color mutual exclusion or FIFO, no accepted
     event may be lost, and a dead slot stays down (degraded);
   - the wedge path: a handler that runs past the kill deadline is
     quarantined. If it returns within the confirm window its worker
     resumes in place; if not, the slot is force-confiscated, its color
     poisoned, its backlog abandoned with exact accounting, and the
     runtime degrades honestly instead of hanging the drain;
   - the supervisor's wakeups: a death and [stop] wake it at once,
     whatever its timed period. *)

let busywork iters =
  let acc = ref 0 in
  for j = 1 to iters do
    acc := !acc + j
  done;
  ignore (Sys.opaque_identity !acc)

let wait_for ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let certify name rt accepted =
  Alcotest.(check int)
    (name ^ ": no accepted event lost")
    accepted
    (Rt.Runtime.executed rt + Rt.Runtime.abandoned rt);
  Alcotest.(check int) (name ^ ": nothing pending") 0 (Rt.Runtime.pending rt);
  Alcotest.(check int)
    (name ^ ": mutual exclusion held")
    1
    (Rt.Runtime.max_concurrent_same_color rt);
  (match Rt.Runtime.debug_check_conservation rt with
  | None -> ()
  | Some m -> Alcotest.fail (name ^ ": conservation: " ^ m));
  match Rt.Runtime.trace rt with
  | None -> ()
  | Some tr ->
    Alcotest.(check bool) (name ^ ": replay exclusion clean") true
      (Rt.Trace.check_mutual_exclusion tr = None);
    Alcotest.(check bool) (name ^ ": replay FIFO clean") true
      (Rt.Trace.check_fifo_per_color tr = None)

(* ---------------------------------------------------------------- *)
(* Injected deaths on the live runtime.                              *)

(* Kill every worker but worker 0, one at a time under load: every
   accepted event still executes exactly once, the books balance to the
   event, and the dead slots stay down. Each death is requested from a
   handler running on the victim (homed there, too light to be stolen),
   so the victim dies holding a color and the migration is certain. *)
let test_inject_death_under_load () =
  let workers = 4 in
  let rt =
    Rt.Runtime.create ~workers
      ~trace:{ Rt.Trace.capacity = 65_536; histograms = false }
      ()
  in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"work" ~declared_cycles:400 () in
  let die = Rt.Runtime.handler rt ~name:"die" ~declared_cycles:1 () in
  let accepted = ref 0 in
  let events = 4_000 in
  for i = 0 to events - 1 do
    if Rt.Runtime.try_register rt ~color:(i mod 32) ~handler:h (fun _ -> busywork 300)
    then incr accepted;
    (* Worker k dies mid-stream, after event 1000 k - 500. *)
    let k = 1 + (i / 1_000) in
    if i mod 1_000 = 500 && k < workers then
      if
        Rt.Runtime.try_register rt ~color:(100 + k) ~home:k ~handler:die (fun ctx ->
            Rt.Runtime.inject_worker_death rt ctx.Rt.Runtime.worker)
      then incr accepted
  done;
  Rt.Runtime.quiesce rt;
  let phases () =
    List.init workers (fun w ->
        Rt.Supervision.phase_name (Rt.Runtime.worker_phase rt w))
  in
  let expected = "live" :: List.init (workers - 1) (fun _ -> "dead") in
  ignore (wait_for (fun () -> phases () = expected));
  Alcotest.(check (list string)) "dead slots stay down" expected (phases ());
  Alcotest.(check int) "one live worker" 1 (Rt.Runtime.live_workers rt);
  Alcotest.(check bool) "degraded" true (Rt.Runtime.is_degraded rt);
  Alcotest.(check bool) "colors migrated" true (Rt.Runtime.migrations rt > 0);
  Rt.Runtime.stop rt;
  Alcotest.(check int) "every accepted event executed" !accepted
    (Rt.Runtime.executed rt);
  Alcotest.(check int) "nothing abandoned" 0 (Rt.Runtime.abandoned rt);
  certify "deaths" rt !accepted

(* A worker that dies mid-drain must not hang [stop]: quiescence counts
   only live slots, and the dead slot's colors finish on survivors. *)
let test_drain_with_dead_worker () =
  let workers = 3 in
  let rt = Rt.Runtime.create ~workers () in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"drain" ~declared_cycles:400 () in
  let accepted = ref 0 in
  for i = 0 to 2_999 do
    if Rt.Runtime.try_register rt ~color:(i mod 24) ~handler:h (fun _ -> busywork 500)
    then incr accepted
  done;
  (* Kill one worker with the backlog still deep, then drain. *)
  Rt.Runtime.inject_worker_death rt 1;
  Rt.Runtime.stop rt;
  Alcotest.(check int) "drain completed on survivors" !accepted
    (Rt.Runtime.executed rt);
  Alcotest.(check int) "nothing pending after stop" 0 (Rt.Runtime.pending rt);
  match Rt.Runtime.debug_check_conservation rt with
  | None -> ()
  | Some m -> Alcotest.fail ("conservation: " ^ m)

(* The supervisor's timed period is a quarter of [wedge_warn_ns]: 15 s
   here. [stop] and a death write to its self-pipe, so neither waits
   for the period — an idle [stop], and a drain whose dead worker's
   colors must be migrated first, both finish far inside it. *)
let test_supervisor_woken () =
  let sup =
    {
      Rt.Supervision.default_config with
      wedge_warn_ns = 60_000_000_000;
      wedge_kill_ns = 120_000_000_000;
    }
  in
  let rt = Rt.Runtime.create ~workers:2 ~supervision:sup () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  Rt.Runtime.start rt;
  (* Let the supervisor reach its [select]. *)
  Unix.sleepf 0.05;
  let idle_stop = timed (fun () -> Rt.Runtime.stop rt) in
  Alcotest.(check bool)
    (Printf.sprintf "idle stop returns at once (%.3f s)" idle_stop)
    true (idle_stop < 2.0);
  Rt.Runtime.start rt;
  (* Too light to be worth stealing: worker 1's colors stay on it. *)
  let h = Rt.Runtime.handler rt ~name:"backlog" ~declared_cycles:1 () in
  let die = Rt.Runtime.handler rt ~name:"die" ~declared_cycles:1 () in
  (* Worker 1 holds in a handler while the backlog is registered, then
     asks for its own death: it dies at that event's boundary with
     colors still queued on it, which only the supervisor can move. *)
  let latch = Atomic.make false in
  let accepted = ref 0 in
  let acc ok = if ok then incr accepted in
  acc
    (Rt.Runtime.try_register rt ~color:100 ~home:1 ~handler:die (fun ctx ->
         while not (Atomic.get latch) do
           Unix.sleepf 0.001
         done;
         Rt.Runtime.inject_worker_death rt ctx.Rt.Runtime.worker));
  for i = 0 to 5_999 do
    acc (Rt.Runtime.try_register rt ~color:(i mod 16) ~handler:h (fun _ -> busywork 500))
  done;
  Atomic.set latch true;
  let drain = timed (fun () -> Rt.Runtime.stop rt) in
  Alcotest.(check bool)
    (Printf.sprintf "drain after a death returns at once (%.3f s)" drain)
    true (drain < 2.0);
  Alcotest.(check bool) "degraded" true (Rt.Runtime.is_degraded rt);
  Alcotest.(check bool) "colors migrated" true (Rt.Runtime.migrations rt > 0);
  certify "woken" rt !accepted;
  (* A fresh color homed on the dead slot still runs at once. *)
  Rt.Runtime.start rt;
  Rt.Runtime.inject_worker_death rt 1;
  Alcotest.(check bool) "slot 1 dead" true
    (wait_for (fun () -> Rt.Runtime.worker_phase rt 1 = Rt.Supervision.Dead));
  let ran = Atomic.make false in
  let homed =
    timed (fun () ->
        assert (
          Rt.Runtime.try_register rt ~color:1 ~home:1 ~handler:h (fun _ ->
              Atomic.set ran true));
        ignore (wait_for (fun () -> Atomic.get ran)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "event homed on a dead slot runs at once (%.3f s)" homed)
    true
    (Atomic.get ran && homed < 2.0);
  Rt.Runtime.stop rt

(* ---------------------------------------------------------------- *)
(* Wedged handler: quarantine, confiscation, poisoned color.         *)

let test_wedge_confiscation () =
  let workers = 2 in
  let sup =
    {
      Rt.Supervision.wedge_warn_ns = 10_000_000;
      wedge_kill_ns = 40_000_000;
      confirm_wait_ns = 40_000_000;
    }
  in
  let rt = Rt.Runtime.create ~workers ~supervision:sup () in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"wedge" ~declared_cycles:100 () in
  let release = Atomic.make false in
  let accepted = ref 0 in
  let acc ok = if ok then incr accepted in
  (* One handler wedges on color 7; three more same-color events queue
     behind it and must be abandoned with it. *)
  acc
    (Rt.Runtime.try_register rt ~color:7 ~handler:h (fun _ ->
         while not (Atomic.get release) do
           Unix.sleepf 0.005
         done));
  for _ = 1 to 3 do
    acc (Rt.Runtime.try_register rt ~color:7 ~handler:h (fun _ -> busywork 100))
  done;
  Alcotest.(check bool) "wedge was confiscated; runtime degraded" true
    (wait_for (fun () -> Rt.Runtime.is_degraded rt));
  Alcotest.(check int) "wedged color's backlog abandoned (3 queued + 1 in flight)"
    4 (Rt.Runtime.abandoned rt);
  Alcotest.(check bool) "one slot lost" true
    (List.exists
       (fun w -> Rt.Runtime.worker_phase rt w = Rt.Supervision.Lost)
       (List.init workers Fun.id));
  (* The poisoned color refuses fresh work: its exclusion can no longer
     be certified while the zombie may still be inside the handler. *)
  Alcotest.(check bool) "poisoned color refuses registers" false
    (Rt.Runtime.try_register rt ~color:7 ~handler:h (fun _ -> ()));
  (* Innocent colors keep executing on the survivor. *)
  let done_flag = Atomic.make false in
  acc
    (Rt.Runtime.try_register rt ~color:3 ~handler:h (fun _ ->
         Atomic.set done_flag true));
  Alcotest.(check bool) "other colors still execute" true
    (wait_for (fun () -> Atomic.get done_flag));
  (* Release the zombie: it finishes, observes the confiscation, and
     exits without double-counting its event. *)
  Atomic.set release true;
  ignore (wait_for (fun () -> Rt.Runtime.pending rt = 0));
  Rt.Runtime.stop rt;
  Alcotest.(check int) "conservation: accepted = executed + abandoned"
    !accepted
    (Rt.Runtime.executed rt + Rt.Runtime.abandoned rt);
  match Rt.Runtime.debug_check_conservation rt with
  | None -> ()
  | Some m -> Alcotest.fail ("conservation: " ^ m)

(* A wedge that clears inside the confirm window: the handler stalls
   past the kill deadline, so the supervisor requests a quarantine; the
   test lets it return only once it sees the request. The worker takes
   the request back at its next event boundary and carries on in place:
   no death, no migration, full width, exact books. *)
let test_wedge_resumes_in_place () =
  let workers = 2 in
  let sup =
    {
      Rt.Supervision.wedge_warn_ns = 10_000_000;
      wedge_kill_ns = 40_000_000;
      confirm_wait_ns = 5_000_000_000;
    }
  in
  let rt = Rt.Runtime.create ~workers ~supervision:sup () in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"stall" ~declared_cycles:100 () in
  let release = Atomic.make false in
  let stalled_on = Atomic.make (-1) in
  let accepted = ref 0 in
  let acc ok = if ok then incr accepted in
  acc
    (Rt.Runtime.try_register rt ~color:7 ~handler:h (fun ctx ->
         Atomic.set stalled_on ctx.Rt.Runtime.worker;
         while not (Atomic.get release) do
           Unix.sleepf 0.002
         done));
  for _ = 1 to 3 do
    acc (Rt.Runtime.try_register rt ~color:7 ~handler:h (fun _ -> busywork 100))
  done;
  let phase () = Rt.Runtime.worker_phase rt (Atomic.get stalled_on) in
  Alcotest.(check bool) "quarantine requested" true
    (wait_for (fun () ->
         Atomic.get stalled_on >= 0 && phase () = Rt.Supervision.Quarantined));
  Atomic.set release true;
  Alcotest.(check bool) "phase returns to live" true
    (wait_for (fun () -> phase () = Rt.Supervision.Live));
  Rt.Runtime.quiesce rt;
  Alcotest.(check int) "no color migrated" 0 (Rt.Runtime.migrations rt);
  Alcotest.(check int) "full width" workers (Rt.Runtime.live_workers rt);
  Alcotest.(check bool) "not degraded" false (Rt.Runtime.is_degraded rt);
  Rt.Runtime.stop rt;
  Alcotest.(check int) "every accepted event executed" !accepted
    (Rt.Runtime.executed rt);
  Alcotest.(check int) "nothing abandoned" 0 (Rt.Runtime.abandoned rt);
  certify "resume" rt !accepted

(* ---------------------------------------------------------------- *)
(* Telemetry plane surfaces liveness.                                *)

let test_snapshot_liveness_fields () =
  let workers = 2 in
  let rt = Rt.Runtime.create ~workers () in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"t" () in
  for i = 0 to 99 do
    ignore (Rt.Runtime.try_register rt ~color:i ~handler:h (fun _ -> busywork 50))
  done;
  Rt.Runtime.quiesce rt;
  let s = Rt.Runtime.telemetry_snapshot rt in
  Alcotest.(check int) "all workers live" workers s.Rt.Telemetry.s_live_workers;
  Alcotest.(check bool) "not degraded" false s.Rt.Telemetry.s_degraded;
  Array.iter
    (fun (w : Rt.Telemetry.worker_snap) ->
      Alcotest.(check bool) "worker live" true w.w_live;
      Alcotest.(check bool) "phase live" true
        (w.w_phase = Rt.Supervision.Live);
      Alcotest.(check bool) "heartbeat age sane" true (w.w_hb_age_ns >= 0);
      Alcotest.(check int) "idle: no in-flight handler" 0 w.w_busy_ns)
    s.Rt.Telemetry.s_workers;
  (* Kill one worker and snapshot again: the death shows as a Dead slot
     and a degraded runtime. *)
  Rt.Runtime.inject_worker_death rt 0;
  ignore
    (wait_for (fun () ->
         (Rt.Runtime.telemetry_snapshot rt).Rt.Telemetry.s_degraded));
  let s2 = Rt.Runtime.telemetry_snapshot rt in
  Alcotest.(check bool) "degraded surfaced in snapshot" true
    s2.Rt.Telemetry.s_degraded;
  Alcotest.(check int) "one slot down" (workers - 1) s2.Rt.Telemetry.s_live_workers;
  let w0 = s2.Rt.Telemetry.s_workers.(0) in
  Alcotest.(check bool) "worker 0 not live" false w0.w_live;
  Alcotest.(check string) "worker 0 phase" "dead"
    (Rt.Supervision.phase_name w0.w_phase);
  Rt.Runtime.stop rt

let suite =
  [
    Alcotest.test_case "injected deaths under load: nothing lost" `Quick
      test_inject_death_under_load;
    Alcotest.test_case "graceful drain survives a mid-drain death" `Quick
      test_drain_with_dead_worker;
    Alcotest.test_case "supervisor is woken, not waited for" `Quick
      test_supervisor_woken;
    Alcotest.test_case "wedged handler: confiscation and poisoned color" `Quick
      test_wedge_confiscation;
    Alcotest.test_case "wedge cleared in the confirm window resumes in place"
      `Quick test_wedge_resumes_in_place;
    Alcotest.test_case "telemetry snapshot surfaces liveness" `Quick
      test_snapshot_liveness_fields;
  ]
