(* Self-healing runtime: worker-domain supervision.

   Three layers of coverage:

   - the restart breaker as a pure state machine under a virtual clock
     (backoff doubling, storm trip latching, healthy-period reset);
   - kill storms on the live runtime — injected deaths and seeded
     [Faults.Kill] schedules — certified by the same replay checkers
     as the steal tests: migration must not buy liveness at the
     expense of per-color mutual exclusion or FIFO, and no accepted
     event may be lost;
   - the wedge path: a handler that never returns is quarantined and
     force-confiscated, its color poisoned, its backlog abandoned with
     exact accounting, and the runtime degrades honestly instead of
     hanging the drain. *)

let sup_config = Rt.Supervision.default_config

(* Fast supervisor for tests: 1 ms polls, 1 ms base backoff. *)
let fast_sup =
  {
    sup_config with
    Rt.Supervision.poll_interval_s = 0.001;
    backoff_base_ns = 1_000_000;
    backoff_max_ns = 50_000_000;
    storm_max = 1_000;
  }

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

(* ---------------------------------------------------------------- *)
(* Breaker under a virtual clock.                                    *)

let breaker_config =
  {
    sup_config with
    Rt.Supervision.backoff_base_ns = 100;
    backoff_max_ns = 1_000;
    storm_window_ns = 10_000;
    storm_max = 3;
  }

let test_breaker_backoff () =
  let open Rt.Supervision.Breaker in
  let b = create { breaker_config with Rt.Supervision.storm_max = 100 } in
  Alcotest.(check bool) "first death restarts" true (decide b ~now_ns:0 = Restart);
  note_restart b ~now_ns:0;
  (* Immediately after a restart the backoff gates the next one. *)
  (match decide b ~now_ns:50 with
  | Wait w -> Alcotest.(check int) "waits out the base backoff" 50 w
  | _ -> Alcotest.fail "expected Wait inside the backoff window");
  Alcotest.(check bool) "restart allowed after the backoff" true
    (decide b ~now_ns:100 = Restart);
  note_restart b ~now_ns:100;
  (* Backoff doubled: 100 -> 200. *)
  (match decide b ~now_ns:250 with
  | Wait w -> Alcotest.(check int) "doubled backoff remaining" 50 w
  | _ -> Alcotest.fail "expected Wait under the doubled backoff");
  note_restart b ~now_ns:300;
  (* 100 + 200 + 400, capped at 1000 thereafter. *)
  note_restart b ~now_ns:700;
  Alcotest.(check int) "restarts counted" 4 (restarts b);
  (match decide b ~now_ns:701 with
  | Wait w ->
    Alcotest.(check bool) "backoff capped at backoff_max" true (w <= 1_000)
  | _ -> ());
  Alcotest.(check bool) "breaker not tripped by spaced restarts" false
    (tripped b)

let test_breaker_storm_trips () =
  let open Rt.Supervision.Breaker in
  let b = create breaker_config in
  (* Three restarts inside one storm window... *)
  note_restart b ~now_ns:0;
  note_restart b ~now_ns:1_000;
  note_restart b ~now_ns:2_000;
  (* ...so the fourth death inside the window is flapping: give up. *)
  Alcotest.(check bool) "storm death gives up" true
    (decide b ~now_ns:3_000 = Give_up);
  Alcotest.(check bool) "breaker latched" true (tripped b);
  (* The latch holds even after the window would have slid empty. *)
  Alcotest.(check bool) "give-up is permanent" true
    (decide b ~now_ns:1_000_000 = Give_up)

let test_breaker_window_slides () =
  let open Rt.Supervision.Breaker in
  let b = create breaker_config in
  (* storm_max restarts, but spread wider than the window: the oldest
     entries slide out, so the slot never trips. *)
  note_restart b ~now_ns:0;
  note_restart b ~now_ns:15_000;
  note_restart b ~now_ns:30_000;
  Alcotest.(check bool) "spread-out deaths still restart" true
    (match decide b ~now_ns:45_000 with Restart | Wait _ -> true | Give_up -> false);
  Alcotest.(check bool) "not tripped" false (tripped b)

let test_breaker_healthy_resets () =
  let open Rt.Supervision.Breaker in
  let b = create breaker_config in
  note_restart b ~now_ns:0;
  note_restart b ~now_ns:200;
  (* A full quiet window after the last restart resets the backoff and
     empties the window. *)
  note_healthy b ~now_ns:(200 + 10_000);
  Alcotest.(check bool) "restart immediately after a healthy period" true
    (decide b ~now_ns:(200 + 10_001) = Restart);
  note_restart b ~now_ns:20_000;
  (match decide b ~now_ns:20_050 with
  | Wait w -> Alcotest.(check int) "backoff back at base" 50 w
  | _ -> Alcotest.fail "expected Wait at base backoff")

(* ---------------------------------------------------------------- *)
(* Injected deaths on the live runtime.                              *)

(* Kill workers one at a time under load: every accepted event still
   executes exactly once, and the books balance to the event. *)
let test_inject_death_under_load () =
  let workers = 4 in
  let rt =
    Rt.Runtime.create ~workers ~supervision:fast_sup
      ~trace:{ Rt.Trace.capacity = 65_536; histograms = false }
      ()
  in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"work" ~declared_cycles:400 () in
  let accepted = ref 0 in
  let events = 4_000 in
  for i = 0 to events - 1 do
    if Rt.Runtime.try_register rt ~color:(i mod 32) ~handler:h (fun _ -> busywork 300)
    then incr accepted;
    (* Kill a rotating victim every 500 events, mid-stream. *)
    if i mod 500 = 250 then Rt.Runtime.inject_worker_death rt (i / 500 mod workers)
  done;
  Rt.Runtime.quiesce rt;
  Alcotest.(check bool) "workers restarted" true (Rt.Runtime.worker_restarts rt > 0);
  Alcotest.(check bool) "colors migrated" true (Rt.Runtime.migrations rt > 0);
  Alcotest.(check bool) "full width restored" true
    (wait_for (fun () -> Rt.Runtime.live_workers rt = workers));
  Rt.Runtime.stop rt;
  Alcotest.(check int) "every accepted event executed" !accepted
    (Rt.Runtime.executed rt);
  Alcotest.(check int) "nothing pending" 0 (Rt.Runtime.pending rt);
  Alcotest.(check int) "nothing abandoned" 0 (Rt.Runtime.abandoned rt);
  Alcotest.(check int) "mutual exclusion held" 1
    (Rt.Runtime.max_concurrent_same_color rt);
  (match Rt.Runtime.debug_check_conservation rt with
  | None -> ()
  | Some m -> Alcotest.fail ("conservation: " ^ m));
  let tr = Option.get (Rt.Runtime.trace rt) in
  Alcotest.(check bool) "replay: mutual exclusion" true
    (Rt.Trace.check_mutual_exclusion tr = None);
  Alcotest.(check bool) "replay: per-color FIFO" true
    (Rt.Trace.check_fifo_per_color tr = None)

(* A worker that dies mid-drain must not hang [stop]: quiescence counts
   only live slots, and the dead slot's colors finish on survivors. *)
let test_drain_with_dead_worker () =
  let workers = 3 in
  let rt = Rt.Runtime.create ~workers ~supervision:fast_sup () in
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

(* The Restart_worker failure policy: a raising handler takes its
   worker down (counted, restarted), sibling events are unharmed. *)
let test_restart_worker_policy () =
  let workers = 3 in
  let rt =
    Rt.Runtime.create ~workers ~on_error:Rt.Runtime.Restart_worker
      ~supervision:fast_sup ()
  in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"maybe-boom" ~declared_cycles:300 () in
  let ran = Atomic.make 0 in
  let accepted = ref 0 in
  for i = 0 to 599 do
    let run _ =
      if i mod 100 = 50 then failwith "boom"
      else begin
        busywork 200;
        Atomic.incr ran
      end
    in
    if Rt.Runtime.try_register rt ~color:(i mod 16) ~handler:h run then
      incr accepted
  done;
  Rt.Runtime.quiesce rt;
  Alcotest.(check bool) "full width restored" true
    (wait_for (fun () -> Rt.Runtime.live_workers rt = workers));
  Rt.Runtime.stop rt;
  Alcotest.(check int) "failures counted" 6 (Rt.Runtime.errors rt);
  Alcotest.(check bool) "each failure killed a worker" true
    (Rt.Runtime.worker_restarts rt >= 1);
  (* The raising events still count executed: conservation is exact. *)
  Alcotest.(check int) "every accepted event executed" !accepted
    (Rt.Runtime.executed rt);
  Alcotest.(check int) "survivors ran the rest" (!accepted - 6) (Atomic.get ran)

(* ---------------------------------------------------------------- *)
(* Seeded kill storms.                                               *)

let kill_storm ~workers ~seed ~events () =
  let plan =
    {
      Rt.Faults.calm_plan with
      kill = { Rt.Faults.calm with errnos = [ (Unix.EIO, 0.01) ] };
    }
  in
  let faults = Rt.Faults.seeded ~plan seed in
  let rt =
    Rt.Runtime.create ~workers ~faults ~supervision:fast_sup
      ~trace:{ Rt.Trace.capacity = 65_536; histograms = false }
      ()
  in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"storm" ~declared_cycles:400 () in
  let accepted = ref 0 in
  for i = 0 to events - 1 do
    if Rt.Runtime.try_register rt ~color:(i mod 24) ~handler:h (fun _ -> busywork 300)
    then incr accepted
  done;
  Rt.Runtime.quiesce rt;
  ignore (wait_for (fun () ->
      Rt.Runtime.live_workers rt = workers || Rt.Runtime.is_degraded rt));
  Rt.Runtime.stop rt;
  let kills = (Rt.Faults.counts faults Rt.Faults.Kill).Rt.Faults.errnos in
  (rt, !accepted, kills)

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
  let tr = Option.get (Rt.Runtime.trace rt) in
  Alcotest.(check bool) (name ^ ": replay exclusion clean") true
    (Rt.Trace.check_mutual_exclusion tr = None);
  Alcotest.(check bool) (name ^ ": replay FIFO clean") true
    (Rt.Trace.check_fifo_per_color tr = None)

let test_kill_storm () =
  let rt, accepted, kills = kill_storm ~workers:4 ~seed:11 ~events:2_000 () in
  Alcotest.(check bool) "kills occurred" true (kills > 0);
  Alcotest.(check bool) "supervisor restarted or degraded honestly" true
    (Rt.Runtime.worker_restarts rt > 0 || Rt.Runtime.is_degraded rt);
  certify "storm" rt accepted

(* The kill schedule is a pure function of (seed, k): the same seed
   kills the same number of workers in back-to-back storms. *)
let test_kill_storm_deterministic () =
  let _, a1, k1 = kill_storm ~workers:4 ~seed:23 ~events:1_500 () in
  let _, a2, k2 = kill_storm ~workers:4 ~seed:23 ~events:1_500 () in
  Alcotest.(check int) "same events accepted" a1 a2;
  Alcotest.(check int) "same kill count" k1 k2;
  let _, _, k3 = kill_storm ~workers:4 ~seed:24 ~events:1_500 () in
  ignore k3 (* a different seed may draw a different schedule; only
               determinism per seed is contractual *)

(* ---------------------------------------------------------------- *)
(* Wedged handler: quarantine, confiscation, poisoned color.         *)

let test_wedge_confiscation () =
  let workers = 2 in
  let sup =
    {
      fast_sup with
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

(* ---------------------------------------------------------------- *)
(* Telemetry plane surfaces liveness.                                *)

let test_snapshot_liveness_fields () =
  let workers = 2 in
  let rt = Rt.Runtime.create ~workers ~supervision:fast_sup () in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"t" () in
  for i = 0 to 99 do
    ignore (Rt.Runtime.try_register rt ~color:i ~handler:h (fun _ -> busywork 50))
  done;
  Rt.Runtime.quiesce rt;
  let s = Rt.Runtime.telemetry_snapshot rt in
  Alcotest.(check int) "all workers live" workers s.Rt.Telemetry.s_live_workers;
  Alcotest.(check bool) "not degraded" false s.Rt.Telemetry.s_degraded;
  Alcotest.(check int) "no restarts" 0 s.Rt.Telemetry.s_restarts;
  Array.iter
    (fun (w : Rt.Telemetry.worker_snap) ->
      Alcotest.(check bool) "worker live" true w.w_live;
      Alcotest.(check bool) "phase live" true
        (w.w_phase = Rt.Supervision.Live);
      Alcotest.(check bool) "heartbeat age sane" true (w.w_hb_age_ns >= 0);
      Alcotest.(check int) "idle: no in-flight handler" 0 w.w_busy_ns)
    s.Rt.Telemetry.s_workers;
  (* Kill one worker and snapshot again: restarts and liveness move. *)
  Rt.Runtime.inject_worker_death rt 0;
  ignore
    (wait_for (fun () ->
         (Rt.Runtime.telemetry_snapshot rt).Rt.Telemetry.s_restarts > 0
         && Rt.Runtime.live_workers rt = workers));
  let s2 = Rt.Runtime.telemetry_snapshot rt in
  Alcotest.(check bool) "restart surfaced in snapshot" true
    (s2.Rt.Telemetry.s_restarts >= 1);
  Rt.Runtime.stop rt

let suite =
  [
    Alcotest.test_case "breaker: backoff doubles under a virtual clock" `Quick
      test_breaker_backoff;
    Alcotest.test_case "breaker: restart storm trips and latches" `Quick
      test_breaker_storm_trips;
    Alcotest.test_case "breaker: spaced restarts never trip" `Quick
      test_breaker_window_slides;
    Alcotest.test_case "breaker: healthy window resets the backoff" `Quick
      test_breaker_healthy_resets;
    Alcotest.test_case "injected deaths under load: nothing lost" `Quick
      test_inject_death_under_load;
    Alcotest.test_case "graceful drain survives a mid-drain death" `Quick
      test_drain_with_dead_worker;
    Alcotest.test_case "Restart_worker policy restarts the domain" `Quick
      test_restart_worker_policy;
    Alcotest.test_case "seeded kill storm, replay-certified" `Slow test_kill_storm;
    Alcotest.test_case "kill schedule deterministic per seed" `Quick
      test_kill_storm_deterministic;
    Alcotest.test_case "wedged handler: confiscation and poisoned color" `Quick
      test_wedge_confiscation;
    Alcotest.test_case "telemetry snapshot surfaces liveness" `Quick
      test_snapshot_liveness_fields;
  ]
