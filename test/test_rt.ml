(* The real multicore runtime on OCaml 5 domains: safety under actual
   parallelism. Worker counts stay small so the suite runs on any
   machine. *)

let test_executes_everything () =
  let rt = Rt.Runtime.create ~workers:3 () in
  let h = Rt.Runtime.handler rt ~name:"n" () in
  let count = Atomic.make 0 in
  for color = 1 to 40 do
    Rt.Runtime.register rt ~color ~handler:h (fun _ -> Atomic.incr count)
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "all ran" 40 (Atomic.get count);
  Alcotest.(check int) "counted" 40 (Rt.Runtime.executed rt)

let test_handlers_register_followups () =
  let rt = Rt.Runtime.create ~workers:3 () in
  let h = Rt.Runtime.handler rt ~name:"chain" ~declared_cycles:4_000 () in
  let count = Atomic.make 0 in
  let rec chain depth (ctx : Rt.Runtime.ctx) =
    Atomic.incr count;
    if depth > 0 then ctx.register ~color:(depth mod 7) ~handler:h (chain (depth - 1))
  in
  Rt.Runtime.register rt ~color:1 ~handler:h (chain 100);
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "chain of 101" 101 (Atomic.get count)

let test_mutual_exclusion_parallel () =
  (* Many colors, contended handlers with busywork: the per-color
     concurrency observed by the runtime must never exceed 1. *)
  let rt = Rt.Runtime.create ~workers:4 () in
  let h = Rt.Runtime.handler rt ~name:"busy" ~declared_cycles:10_000 () in
  let sink = Atomic.make 0 in
  let busywork (_ : Rt.Runtime.ctx) =
    let acc = ref 0 in
    for i = 1 to 2_000 do
      acc := !acc + i
    done;
    Atomic.fetch_and_add sink !acc |> ignore
  in
  for i = 0 to 400 do
    Rt.Runtime.register rt ~color:(1 + (i mod 16)) ~handler:h busywork
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "no same-color concurrency" 1
    (Rt.Runtime.max_concurrent_same_color rt)

let test_per_color_fifo () =
  (* Events of one color must observe registration order even when the
     color is stolen. *)
  let rt = Rt.Runtime.create ~workers:4 () in
  let h = Rt.Runtime.handler rt ~name:"fifo" ~declared_cycles:5_000 () in
  let n_colors = 8 and per_color = 50 in
  let seen = Array.make n_colors [] in
  let violations = Atomic.make 0 in
  for seq = 0 to (n_colors * per_color) - 1 do
    let color = seq mod n_colors in
    Rt.Runtime.register rt ~color:(color + 1) ~handler:h (fun _ ->
        (* Single-writer per color thanks to mutual exclusion. *)
        (match seen.(color) with
        | last :: _ when last > seq -> Atomic.incr violations
        | _ -> ());
        seen.(color) <- seq :: seen.(color))
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "fifo per color" 0 (Atomic.get violations);
  Array.iteri
    (fun c entries ->
      Alcotest.(check int) (Printf.sprintf "color %d complete" c) per_color
        (List.length entries))
    seen

let test_stealing_happens () =
  (* All work seeded on one color-home with many independent colors
     hashing to worker 0 of 4: stealing must spread it. *)
  let rt = Rt.Runtime.create ~workers:4 () in
  let h = Rt.Runtime.handler rt ~name:"spread" ~declared_cycles:500_000 () in
  let workers_seen = Array.make 4 false in
  for i = 0 to 39 do
    (* colors = 4k -> all hash to worker 0 *)
    Rt.Runtime.register rt ~color:(4 * (i + 1)) ~handler:h (fun ctx ->
        workers_seen.(ctx.Rt.Runtime.worker) <- true;
        (* Enough busywork that the OS scheduler interleaves the worker
           domains even on a single hardware thread. *)
        let acc = ref 0 in
        for j = 1 to 800_000 do
          acc := !acc + j
        done;
        ignore !acc)
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check bool) "steals recorded" true (Rt.Runtime.steals rt > 0);
  let busy_workers = Array.fold_left (fun n b -> if b then n + 1 else n) 0 workers_seen in
  Alcotest.(check bool) "work spread beyond the home worker" true (busy_workers >= 2)

let test_rerun () =
  let rt = Rt.Runtime.create ~workers:2 () in
  let h = Rt.Runtime.handler rt ~name:"again" () in
  let count = Atomic.make 0 in
  Rt.Runtime.register rt ~color:1 ~handler:h (fun _ -> Atomic.incr count);
  Rt.Runtime.run_until_idle rt;
  Rt.Runtime.register rt ~color:2 ~handler:h (fun _ -> Atomic.incr count);
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "two runs" 2 (Atomic.get count)

let test_invalid_args () =
  Alcotest.check_raises "zero workers"
    (Invalid_argument "Rt.Runtime.create: workers must be >= 1") (fun () ->
      ignore (Rt.Runtime.create ~workers:0 ()));
  let rt = Rt.Runtime.create ~workers:1 () in
  Alcotest.check_raises "bad penalty"
    (Invalid_argument "Rt.Runtime.handler: penalty must be >= 1") (fun () ->
      ignore (Rt.Runtime.handler rt ~name:"x" ~penalty:0 ()));
  let h = Rt.Runtime.handler rt ~name:"x" () in
  Alcotest.check_raises "bad color"
    (Invalid_argument "Rt.Runtime.register: color must be >= 0") (fun () ->
      Rt.Runtime.register rt ~color:(-1) ~handler:h (fun _ -> ()))

let test_stats_accounting () =
  (* The per-worker counters of the telemetry snapshot must tie out
     against the runtime totals. *)
  let rt = Rt.Runtime.create ~workers:3 () in
  let h = Rt.Runtime.handler rt ~name:"stats" ~declared_cycles:100_000 () in
  let n = 60 in
  let work () =
    let acc = ref 0 in
    for j = 1 to 2_000 do
      acc := !acc + j
    done;
    ignore !acc
  in
  for i = 0 to n - 1 do
    let color = 1 + (i mod 9) in
    Rt.Runtime.register rt ~color ~handler:h (fun ctx ->
        work ();
        if i mod 3 = 0 then ctx.register ~color ~handler:h (fun _ -> work ()))
  done;
  Rt.Runtime.run_until_idle rt;
  let s = Rt.Runtime.telemetry_snapshot rt in
  Alcotest.(check int) "one row per worker" 3 (Array.length s.s_workers);
  let stats = Array.map (fun (w : Rt.Telemetry.worker_snap) -> w.w_metrics) s.s_workers in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 stats in
  let follow_ups = n / 3 in
  Alcotest.(check int) "executed ties out" (n + follow_ups)
    (sum (fun (c : Rt.Telemetry.counters) -> c.executed));
  Alcotest.(check int) "snapshot total = runtime total" (Rt.Runtime.executed rt)
    s.s_executed;
  Alcotest.(check int) "follow-ups counted by their publisher" follow_ups
    (sum (fun (c : Rt.Telemetry.counters) -> c.enqueued));
  Alcotest.(check int) "steals in tie out" (Rt.Runtime.steals rt)
    (sum (fun (c : Rt.Telemetry.counters) -> c.steals_in));
  Alcotest.(check int) "steals out tie out" (Rt.Runtime.steals rt)
    (sum (fun (c : Rt.Telemetry.counters) -> c.steals_out));
  Array.iter
    (fun (c : Rt.Telemetry.counters) ->
      Alcotest.(check bool) "park time non-negative" true (c.park_seconds >= 0.0);
      Alcotest.(check bool) "hwm sane" true
        (c.queue_hwm >= 0 && c.queue_hwm <= n + follow_ups))
    stats

let test_spinlock () =
  let lock = Rt.Spinlock.create () in
  let counter = ref 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Rt.Spinlock.with_lock lock (fun () -> incr counter)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "atomic increments" 40_000 !counter

(* The inbox split without domains: [Rt.Runtime.split_stack] is the
   pure core of the thief's inbox probe. The regression this locks
   down: the claim is the oldest worthy queue, and the unclaimed rest
   keeps its newest-first stack order — so the single-CAS re-push
   preserves the relative age of everything it returns, instead of
   reversing it the way one-at-a-time re-pushes did. *)
let test_split_stack () =
  (* Stack image of pushes 1,2,3,4,5: newest first. *)
  let stack = [ 5; 4; 3; 2; 1 ] in
  let claimed, rest =
    Rt.Runtime.split_stack ~newest_first:stack (fun v -> v mod 2 = 0)
  in
  Alcotest.(check (option int)) "claims the oldest match" (Some 2) claimed;
  Alcotest.(check (list int)) "unclaimed worthy stays put" [ 5; 4; 3; 1 ] rest;
  let claimed, rest = Rt.Runtime.split_stack ~newest_first:stack (fun _ -> true) in
  Alcotest.(check (option int)) "all match: oldest first" (Some 1) claimed;
  Alcotest.(check (list int)) "rest keeps stack order" [ 5; 4; 3; 2 ] rest;
  let claimed, rest = Rt.Runtime.split_stack ~newest_first:stack (fun _ -> false) in
  Alcotest.(check (option int)) "no match claims nothing" None claimed;
  Alcotest.(check (list int)) "and the image survives intact" stack rest;
  let claimed, rest = Rt.Runtime.split_stack ~newest_first:[] (fun _ -> true) in
  Alcotest.(check (option int)) "empty stack" None claimed;
  Alcotest.(check (list int)) "nothing left" [] rest

let suite =
  [
    Alcotest.test_case "executes everything" `Quick test_executes_everything;
    Alcotest.test_case "handlers register follow-ups" `Quick test_handlers_register_followups;
    Alcotest.test_case "mutual exclusion under parallelism" `Quick
      test_mutual_exclusion_parallel;
    Alcotest.test_case "per-color fifo" `Quick test_per_color_fifo;
    Alcotest.test_case "stealing happens" `Quick test_stealing_happens;
    Alcotest.test_case "rerun" `Quick test_rerun;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "spinlock" `Quick test_spinlock;
    Alcotest.test_case "split_stack order preservation" `Quick test_split_stack;
  ]
