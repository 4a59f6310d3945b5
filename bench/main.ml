(* The benchmark harness.

   Two parts:

   1. The paper reproduction: every table and figure of the evaluation
      (Section V), regenerated on the simulated testbed and printed with
      the paper's numbers alongside. `bench/main.exe` runs all of them;
      `bench/main.exe table3 fig7 ...` selects; `--quick` shrinks
      durations.

   2. Bechamel microbenchmarks of the load-bearing primitives (queue
      operations, steal paths, crypto, the real runtime), one Test.make
      per component, run with `bench/main.exe micro`. *)

let run_experiment ~quick id =
  match Harness.Experiments.find id with
  | None ->
    Printf.eprintf "unknown experiment %S\n" id;
    exit 1
  | Some e ->
    Printf.printf "== %s ==\n%s\n%!" e.Harness.Experiments.title e.description;
    print_string (Mstd.Table.render (e.run ~quick));
    print_newline ()

let run_all ~quick =
  List.iter (fun e -> run_experiment ~quick e.Harness.Experiments.id) Harness.Experiments.all

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: real wall-clock cost of the primitives.  *)

let bench_laqueue =
  let handler = Engine.Handler.make ~declared_cycles:100 "bench" in
  Bechamel.Test.make ~name:"laqueue push+pop x100"
    (Bechamel.Staged.stage (fun () ->
         let q = Engine.Laqueue.create () in
         for i = 0 to 99 do
           Engine.Laqueue.push q (Engine.Event.make ~handler ~color:i ~cost:1 ())
         done;
         for _ = 0 to 99 do
           ignore (Engine.Laqueue.pop q)
         done))

let bench_laqueue_extract =
  let handler = Engine.Handler.make ~declared_cycles:100 "bench" in
  Bechamel.Test.make ~name:"laqueue extract_color (deep scan)"
    (Bechamel.Staged.stage (fun () ->
         let q = Engine.Laqueue.create () in
         for i = 0 to 199 do
           Engine.Laqueue.push q (Engine.Event.make ~handler ~color:(i mod 50) ~cost:1 ())
         done;
         ignore (Engine.Laqueue.extract_color q 49)))

let bench_melyq_splice =
  let handler = Engine.Handler.make ~declared_cycles:100 "bench" in
  Bechamel.Test.make ~name:"melyq steal splice x50 (O(1) each)"
    (Bechamel.Staged.stage (fun () ->
         let coreq = Engine.Melyq.create_core_queue ~core:0 in
         let thief = Engine.Melyq.create_core_queue ~core:1 in
         for c = 0 to 49 do
           let cq = Engine.Melyq.make_color_queue ~color:c ~owner:0 in
           for _ = 0 to 3 do
             Engine.Melyq.push_event cq None (Engine.Event.make ~handler ~color:c ~cost:1 ())
               ~weighted:100
           done;
           Engine.Melyq.append coreq cq
         done;
         let rec drain () =
           match Engine.Melyq.head coreq with
           | None -> ()
           | Some cq ->
             Engine.Melyq.detach coreq cq;
             Engine.Melyq.append thief cq;
             drain ()
         in
         drain ()))

let bench_cache_model =
  Bechamel.Test.make ~name:"cache model access x100"
    (Bechamel.Staged.stage (fun () ->
         let cache = Hw.Cache.create Hw.Topology.xeon_e5410 Hw.Cost_model.default in
         for i = 0 to 99 do
           ignore
             (Hw.Cache.access cache ~core:(i mod 8) ~data:(i mod 16) ~bytes:4096 ~write:false)
         done))

let bench_sha256 =
  let payload = String.make 8192 'x' in
  Bechamel.Test.make ~name:"sha256 8KB"
    (Bechamel.Staged.stage (fun () -> ignore (Crypto.Sha256.digest payload)))

let bench_chacha20 =
  let key = Crypto.Sha256.digest "key" in
  let nonce = String.sub (Crypto.Sha256.digest "nonce") 0 12 in
  let payload = String.make 8192 'x' in
  Bechamel.Test.make ~name:"chacha20 8KB"
    (Bechamel.Staged.stage (fun () -> ignore (Crypto.Chacha20.encrypt ~key ~nonce payload)))

let bench_rt_runtime =
  Bechamel.Test.make ~name:"rt runtime 1k events (2 workers)"
    (Bechamel.Staged.stage (fun () ->
         let rt = Rt.Runtime.create ~workers:2 () in
         let h = Rt.Runtime.handler rt ~name:"bench" () in
         for i = 0 to 999 do
           Rt.Runtime.register rt ~color:(1 + (i mod 32)) ~handler:h (fun _ -> ())
         done;
         Rt.Runtime.run_until_idle rt))

let bench_rt_parking =
  (* A single serial color: one worker executes the chain while the
     other parks and wakes on each follow-up enqueue, so this measures
     the park/unpark path rather than throughput. *)
  Bechamel.Test.make ~name:"rt runtime serial chain (parking path)"
    (Bechamel.Staged.stage (fun () ->
         let rt = Rt.Runtime.create ~workers:2 () in
         let h = Rt.Runtime.handler rt ~name:"serial" ~declared_cycles:5_000 () in
         let rec chain depth (ctx : Rt.Runtime.ctx) =
           if depth > 0 then ctx.register ~color:1 ~handler:h (chain (depth - 1))
         in
         Rt.Runtime.register rt ~color:1 ~handler:h (chain 200);
         Rt.Runtime.run_until_idle rt))

let bench_sim_unbalanced =
  Bechamel.Test.make ~name:"simulator: unbalanced 2ms slice (mely-ws)"
    (Bechamel.Staged.stage (fun () ->
         let params =
           { Workloads.Unbalanced.default_params with duration_seconds = 0.002 }
         in
         ignore (Workloads.Unbalanced.run ~params Workloads.Setup.Mely Engine.Config.mely_ws)))

(* ------------------------------------------------------------------ *)
(* Real-runtime benches with machine-readable output: one-shot drain  *)
(* and steady-state external injection through the serving lifecycle. *)
(* `bench/main.exe rt-json [FILE]` writes BENCH_rt.json for CI to     *)
(* upload, seeding the performance trajectory across PRs.             *)

type rt_bench_result = {
  rb_name : string;
  rb_workers : int;
  rb_events : int;
  rb_seconds : float;
  rb_steals : int;
  rb_parks : int;
  rb_latencies : Rt.Trace.latency list;  (** empty when tracing was off *)
}

let total_parks rt =
  Array.fold_left
    (fun acc (w : Rt.Telemetry.worker_snap) -> acc + w.w_metrics.parks)
    0 (Rt.Runtime.telemetry_snapshot rt).s_workers

let rt_result ~name ~workers ~seconds rt =
  {
    rb_name = name;
    rb_workers = workers;
    rb_events = Rt.Runtime.executed rt;
    rb_seconds = seconds;
    rb_steals = Rt.Runtime.steals rt;
    rb_parks = total_parks rt;
    rb_latencies =
      (match Rt.Runtime.trace rt with
      | Some tr -> Rt.Trace.latency_summary tr
      | None -> []);
  }

let bench_rt_one_shot ?trace ~workers ~events () =
  let name = match trace with None -> "rt_one_shot" | Some _ -> "rt_one_shot_traced" in
  let rt = Rt.Runtime.create ~workers ?trace () in
  let h = Rt.Runtime.handler rt ~name:"bench" ~declared_cycles:20_000 () in
  let colors = 4 * workers in
  for i = 0 to events - 1 do
    Rt.Runtime.register rt ~color:(1 + (i mod colors)) ~handler:h (fun _ ->
        let acc = ref 0 in
        for j = 1 to 1_000 do
          acc := !acc + j
        done;
        ignore !acc)
  done;
  let t0 = Rt.Clock.now_ns () in
  Rt.Runtime.run_until_idle rt;
  rt_result ~name ~workers ~seconds:(Rt.Clock.elapsed_seconds ~since:t0) rt

(* Owner-side hot path in isolation: one worker, no stealing possible,
   trivial handlers — events/sec here is dominated by the per-event
   enqueue + pop cost (the synchronization under test), not by handler
   work or by cross-worker traffic. *)
let bench_rt_hot_push_pop ~events () =
  let rt = Rt.Runtime.create ~workers:1 () in
  let h = Rt.Runtime.handler rt ~name:"hot" ~declared_cycles:100 () in
  let colors = 8 in
  for i = 0 to events - 1 do
    Rt.Runtime.register rt ~color:(1 + (i mod colors)) ~handler:h (fun _ -> ())
  done;
  let t0 = Rt.Clock.now_ns () in
  Rt.Runtime.run_until_idle rt;
  rt_result ~name:"rt_hot_push_pop" ~workers:1
    ~seconds:(Rt.Clock.elapsed_seconds ~since:t0) rt

(* Steal-path stress: every color hashes to worker 0 and every color is
   immediately steal-worthy, so the other workers spend the run inside
   the steal protocol. Handlers are kept small: the measured rate is
   the cost of migrating ownership, not of the handler bodies. [name]
   lets the same shape also feed the history's [rt_unbalanced_steal_one]
   series (the thief claims one color-queue per winning probe). *)
let bench_rt_steal_storm ?(name = "rt_steal_storm") ~workers ~events () =
  let rt = Rt.Runtime.create ~workers () in
  let h = Rt.Runtime.handler rt ~name:"storm" ~declared_cycles:100_000 () in
  let colors = 16 * workers in
  for i = 0 to events - 1 do
    (* color ≡ 0 mod workers: all homes on worker 0 *)
    Rt.Runtime.register rt ~color:(workers * (1 + (i mod colors))) ~handler:h
      (fun _ ->
        let acc = ref 0 in
        for j = 1 to 200 do
          acc := !acc + j
        done;
        ignore !acc)
  done;
  let t0 = Rt.Clock.now_ns () in
  Rt.Runtime.run_until_idle rt;
  rt_result ~name ~workers ~seconds:(Rt.Clock.elapsed_seconds ~since:t0) rt

let rate r = if r.rb_seconds > 0.0 then float_of_int r.rb_events /. r.rb_seconds else 0.0

(* The median of [rounds] runs by events/sec, so every rb_* field of
   the reported entry comes from one coherent run. *)
let median_of_rounds ~rounds run =
  let runs = List.init rounds (fun _ -> run ()) in
  let sorted = List.sort (fun a b -> compare (rate a) (rate b)) runs in
  List.nth sorted (rounds / 2)

(* Steady state: injector threads feed the live runtime as fast as they
   can while the workers drain it, so the measured rate includes the
   cross-thread register path and the park/wake machinery. *)
let bench_rt_serve_injection ~workers ~events =
  let rt = Rt.Runtime.create ~workers () in
  let h = Rt.Runtime.handler rt ~name:"inject" ~declared_cycles:20_000 () in
  let injectors = 2 in
  let colors = 4 * workers in
  Rt.Runtime.start rt;
  let t0 = Rt.Clock.now_ns () in
  let feeders =
    List.init injectors (fun j ->
        Domain.spawn (fun () ->
            for i = 0 to (events / injectors) - 1 do
              let color = 1 + (((i * injectors) + j) mod colors) in
              ignore
                (Rt.Runtime.try_register rt ~color ~handler:h (fun _ ->
                     let acc = ref 0 in
                     for k = 1 to 1_000 do
                       acc := !acc + k
                     done;
                     ignore !acc))
            done))
  in
  List.iter Domain.join feeders;
  Rt.Runtime.quiesce rt;
  let seconds = Rt.Clock.elapsed_seconds ~since:t0 in
  Rt.Runtime.stop rt;
  rt_result ~name:"rt_serve_injection" ~workers ~seconds rt

(* The whole sharded front end under a held-open concurrent load:
   epoll shards accepting, reading and batch-injecting real loopback
   traffic while the workers serve it. Events here are byte-exact HTTP
   responses, so events_per_sec is end-to-end req/s — the number the
   regression gate watches for the serving stack. *)
(* One blocking GET against the admin listener; returns the response
   size so the scrape can't be optimized away. *)
let scrape_once ~port path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "GET %s HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n" path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Bytes.create 65536 in
      let total = ref 0 in
      let eof = ref false in
      while not !eof do
        match Unix.read fd b 0 (Bytes.length b) with
        | 0 -> eof := true
        | n -> total := !total + n
        | exception Unix.Unix_error (EINTR, _, _) -> ()
      done;
      !total)

(* [scrape]: same serving benchmark, but with the admin plane enabled
   and a sidecar domain polling GET /metrics at 10 Hz for the whole
   run — the A/B gap vs. the unscraped entry is the cost of live
   observation (renders + admin conns riding the same event loop). *)
let bench_rt_sharded_serve ?(scrape = false) ~workers () =
  let shards = 2 and conns = 64 and requests = 100 and pipeline = 8 in
  let site = Rtnet.Loadgen.default_site ~files:8 ~file_bytes:1024 () in
  let cache = Httpkit.Response.prebuild_cache ~files:site in
  let targets = List.map (fun (p, _) -> (p, Hashtbl.find cache p)) site in
  let rt = Rt.Runtime.create ~workers ~on_error:Rt.Runtime.Swallow () in
  Rt.Runtime.start rt;
  let server =
    Rtnet.Server.create ~rt ~shards ~max_clients:(2 * conns) ~cache ~port:0
      ?admin_port:(if scrape then Some 0 else None) ()
  in
  Rtnet.Server.start server;
  let stop_scraper = Atomic.make false in
  let scraped = Atomic.make 0 in
  let scraper =
    if not scrape then None
    else begin
      let aport = Option.get (Rtnet.Server.admin_port server) in
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get stop_scraper) do
               (try
                  if scrape_once ~port:aport "/metrics" > 0 then
                    Atomic.incr scraped
                with Unix.Unix_error _ -> ());
               Unix.sleepf 0.1
             done))
    end
  in
  let res =
    Rtnet.Loadgen.run ~port:(Rtnet.Server.port server) ~conns ~requests
      ~pipeline ~torn_every:0 ~concurrent:true ~close_last:true ~targets ()
  in
  Atomic.set stop_scraper true;
  Option.iter Domain.join scraper;
  Rtnet.Server.stop server;
  let parks = total_parks rt in
  let steals = Rt.Runtime.steals rt in
  Rt.Runtime.stop rt;
  if res.Rtnet.Loadgen.mismatches > 0 || res.Rtnet.Loadgen.failed_conns > 0 then
    failwith "rt_sharded_serve: response mismatch or failed connection";
  if scrape && Atomic.get scraped = 0 then
    failwith "rt_sharded_serve_scraped: the scraper never completed a scrape";
  {
    rb_name = (if scrape then "rt_sharded_serve_scraped" else "rt_sharded_serve");
    rb_workers = workers;
    rb_events = res.Rtnet.Loadgen.responses_ok;
    rb_seconds = res.Rtnet.Loadgen.seconds;
    rb_steals = steals;
    rb_parks = parks;
    rb_latencies = [];
  }

(* `bench/main.exe rt-json soak [FILE]` — sustained-throughput soak
   under seeded worker kills: drives events through a serving runtime
   for a wall-clock budget while the supervisor keeps healing, with a
   stop-the-world conservation audit every checkpoint. Writes
   BENCH_soak.json so CI can gate on the soak surviving and track the
   healing-loop overhead as a rate. *)
let run_soak_json ?(duration = 3.0) path =
  let workers = min 4 (max 2 (Domain.recommended_domain_count () - 1)) in
  let seed = 42 in
  let plan =
    {
      Rt.Faults.calm_plan with
      kill = { Rt.Faults.calm with errnos = [ (Unix.EIO, 0.0002) ] };
    }
  in
  let faults = Rt.Faults.seeded ~plan seed in
  let sup =
    {
      Rt.Supervision.default_config with
      poll_interval_s = 0.001;
      backoff_base_ns = 1_000_000;
      backoff_max_ns = 100_000_000;
      storm_max = 10_000;
    }
  in
  let rt = Rt.Runtime.create ~workers ~faults ~supervision:sup () in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"soak" ~declared_cycles:200 () in
  let colors = workers * 8 in
  let run _ =
    let acc = ref 0 in
    for j = 1 to 500 do
      acc := !acc + j
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let accepted = ref 0 in
  let checkpoints = ref 0 in
  let check_every = 100_000 in
  let since_check = ref 0 in
  let i = ref 0 in
  let burst = 256 in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration in
  while Unix.gettimeofday () < deadline do
    let batch = List.init burst (fun k -> ((!i + k) mod colors, h, run)) in
    if Rt.Runtime.try_register_batch rt batch then accepted := !accepted + burst;
    i := !i + burst;
    since_check := !since_check + burst;
    if !since_check >= check_every then begin
      since_check := 0;
      incr checkpoints;
      Rt.Runtime.quiesce rt;
      if Rt.Runtime.executed rt + Rt.Runtime.abandoned rt <> !accepted then
        failwith "rt_soak: accepted events lost mid-soak";
      match Rt.Runtime.debug_check_conservation rt with
      | None -> ()
      | Some m -> failwith ("rt_soak: conservation audit: " ^ m)
    end
  done;
  Rt.Runtime.quiesce rt;
  Rt.Runtime.stop rt;
  let wall = Unix.gettimeofday () -. t0 in
  if Rt.Runtime.executed rt + Rt.Runtime.abandoned rt <> !accepted then
    failwith "rt_soak: accepted events lost";
  if Rt.Runtime.max_concurrent_same_color rt <> 1 then
    failwith "rt_soak: mutual exclusion violated";
  (match Rt.Runtime.debug_check_conservation rt with
  | None -> ()
  | Some m -> failwith ("rt_soak: conservation audit: " ^ m));
  let kills = (Rt.Faults.counts faults Rt.Faults.Kill).Rt.Faults.errnos in
  let rate = float_of_int !accepted /. wall in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"soak\": {\"name\": \"rt_soak\", \"workers\": %d, \"seed\": %d, \
     \"seconds\": %.3f,\n\
    \    \"events\": %d, \"events_per_sec\": %.1f, \"checkpoints\": %d,\n\
    \    \"kills\": %d, \"restarts\": %d, \"migrations\": %d, \
     \"abandoned\": %d,\n\
    \    \"degraded\": %b, \"ok\": true}\n\
     }\n"
    workers seed wall !accepted rate !checkpoints kills
    (Rt.Runtime.worker_restarts rt)
    (Rt.Runtime.migrations rt) (Rt.Runtime.abandoned rt)
    (Rt.Runtime.is_degraded rt);
  close_out oc;
  Printf.printf
    "rt_soak: %d events in %.1fs (%.0f ev/s), %d kills survived, %d restarts, \
     %d migrations; wrote %s\n%!"
    !accepted wall rate kills
    (Rt.Runtime.worker_restarts rt)
    (Rt.Runtime.migrations rt) path

let run_rt_json path =
  let workers = min 4 (max 2 (Domain.recommended_domain_count () - 1)) in
  let events = 20_000 in
  let unbalanced =
    median_of_rounds ~rounds:7
      (bench_rt_steal_storm ~name:"rt_unbalanced_steal_one" ~workers ~events:8_000)
  in
  let results =
    [
      bench_rt_one_shot ~workers ~events ();
      (* Same workload under the flight recorder: its events_per_sec
         gap vs. rt_one_shot is the recording overhead, and its
         latency percentiles seed the trajectory across PRs. *)
      bench_rt_one_shot ~trace:Rt.Trace.default_config ~workers ~events ();
      bench_rt_serve_injection ~workers ~events;
      bench_rt_hot_push_pop ~events:60_000 ();
      bench_rt_steal_storm ~workers ~events ();
      bench_rt_sharded_serve ~workers ();
      (* Telemetry-overhead A/B: identical serving load with the admin
         endpoint scraped at 10 Hz; compare events_per_sec against
         rt_sharded_serve (target: within 5%, gate: 20%). *)
      bench_rt_sharded_serve ~scrape:true ~workers ();
    ]
    @ [ unbalanced ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"benches\": [\n";
  List.iteri
    (fun i r ->
      let events_per_sec = rate r in
      let latencies =
        match r.rb_latencies with
        | [] -> ""
        | ls ->
          let entries =
            List.map
              (fun (l : Rt.Trace.latency) ->
                Printf.sprintf
                  "{\"handler\": %S, \"count\": %d, \"queue_wait_p50_ns\": %.0f, \
                   \"queue_wait_p99_ns\": %.0f, \"service_p50_ns\": %.0f, \
                   \"service_p99_ns\": %.0f}"
                  l.l_handler l.l_count l.l_qwait_p50 l.l_qwait_p99 l.l_service_p50
                  l.l_service_p99)
              ls
          in
          Printf.sprintf ", \"latencies\": [%s]" (String.concat ", " entries)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"workers\": %d, \"events\": %d, \"seconds\": %.6f, \
            \"events_per_sec\": %.1f, \"steals\": %d, \"parks\": %d%s}%s\n"
           r.rb_name r.rb_workers r.rb_events r.rb_seconds events_per_sec r.rb_steals
           r.rb_parks latencies
           (if i < List.length results - 1 then "," else ""));
      Printf.printf "%-20s %d workers  %7d events  %8.3f s  %10.0f ev/s  %6d steals  %6d parks\n%!"
        r.rb_name r.rb_workers r.rb_events r.rb_seconds events_per_sec r.rb_steals
        r.rb_parks)
    results;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Real-TCP serving bench: in-process Rtnet.Server + Loadgen over
   loopback, flight recorder on. `bench/main.exe net-json [FILE]`
   writes BENCH_net.json for CI: the steady-state entry (req/s plus
   per-handler p50/p99 from the trace; the fault shim is passthrough,
   so this doubles as the armor's no-overhead regression gate) and an
   overload entry — a deliberately slow app saturated past a tiny shed
   budget, reporting served vs shed throughput and the net.respond p99
   under saturation. *)
let run_net_json path =
  let workers = min 4 (max 2 (Domain.recommended_domain_count () - 1)) in
  let conns = 16 and requests = 250 and pipeline = 8 in
  let site = Rtnet.Loadgen.default_site ~files:8 ~file_bytes:1024 () in
  let cache = Httpkit.Response.prebuild_cache ~files:site in
  let targets = List.map (fun (p, _) -> (p, Hashtbl.find cache p)) site in
  let latency_json tr =
    Rt.Trace.latency_summary tr
    |> List.map (fun (l : Rt.Trace.latency) ->
           Printf.sprintf
             "{\"handler\": %S, \"count\": %d, \"queue_wait_p50_ns\": %.0f, \
              \"queue_wait_p99_ns\": %.0f, \"service_p50_ns\": %.0f, \
              \"service_p99_ns\": %.0f}"
             l.l_handler l.l_count l.l_qwait_p50 l.l_qwait_p99 l.l_service_p50
             l.l_service_p99)
    |> String.concat ", "
  in
  (* Steady state: default armor thresholds, passthrough faults. *)
  let rt =
    Rt.Runtime.create ~workers ~on_error:Rt.Runtime.Swallow
      ~trace:Rt.Trace.default_config ()
  in
  Rt.Runtime.start rt;
  let server = Rtnet.Server.create ~rt ~cache ~port:0 () in
  Rtnet.Server.start server;
  let res =
    Rtnet.Loadgen.run ~port:(Rtnet.Server.port server) ~conns ~requests
      ~pipeline ~torn_every:0 ~close_last:true ~targets ()
  in
  Rtnet.Server.stop server;
  Rt.Runtime.stop rt;
  let s = Rtnet.Server.stats server in
  let tr = Option.get (Rt.Runtime.trace rt) in
  let replay_ok =
    Rt.Trace.check_mutual_exclusion tr = None
    && Rt.Trace.check_fifo_per_color tr = None
  in
  let req_per_sec = Rtnet.Loadgen.req_per_sec res in
  (* Overload: a slow app saturated past a tiny shed budget. The armor
     must keep serving what it admits and shed the rest with 503s. *)
  let rt_o =
    Rt.Runtime.create ~workers ~on_error:Rt.Runtime.Swallow
      ~trace:Rt.Trace.default_config ()
  in
  Rt.Runtime.start rt_o;
  let sink = Atomic.make 0 in
  let slow_app (req : Httpkit.Request.t) =
    let acc = ref 0 in
    for j = 1 to 300_000 do
      acc := !acc + j
    done;
    Atomic.fetch_and_add sink (Sys.opaque_identity !acc) |> ignore;
    match Hashtbl.find_opt cache req.Httpkit.Request.target with
    | Some r -> r
    | None -> Httpkit.Response.build ~status:Httpkit.Response.Not_found ~body:"" ()
  in
  let overload = { Rtnet.Server.default_overload with shed_pending_hwm = 8 } in
  let server_o =
    Rtnet.Server.create ~rt:rt_o ~overload ~app:slow_app ~cache ~port:0 ()
  in
  Rtnet.Server.start server_o;
  let res_o =
    Rtnet.Loadgen.run ~port:(Rtnet.Server.port server_o) ~conns ~requests:64
      ~pipeline:16 ~targets ()
  in
  Rtnet.Server.stop server_o;
  Rt.Runtime.stop rt_o;
  let s_o = Rtnet.Server.stats server_o in
  let tr_o = Option.get (Rt.Runtime.trace rt_o) in
  let replay_ok_o =
    Rt.Trace.check_mutual_exclusion tr_o = None
    && Rt.Trace.check_fifo_per_color tr_o = None
  in
  let conserved_o =
    s_o.Rtnet.Server.reqs_parsed
    = s_o.Rtnet.Server.reqs_served + s_o.Rtnet.Server.reqs_failed
      + s_o.Rtnet.Server.reqs_shed
  in
  let per_sec n = float_of_int n /. res_o.Rtnet.Loadgen.seconds in
  let respond_p99_o =
    Rt.Trace.latency_summary tr_o
    |> List.find_opt (fun (l : Rt.Trace.latency) -> l.l_handler = "net.respond")
    |> Option.fold ~none:0.0 ~some:(fun (l : Rt.Trace.latency) -> l.l_service_p99)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"bench\": \"net_serve_loopback\",\n\
      \  \"workers\": %d,\n\
      \  \"conns\": %d,\n\
      \  \"pipeline\": %d,\n\
      \  \"requests_sent\": %d,\n\
      \  \"responses_ok\": %d,\n\
      \  \"sheds\": %d,\n\
      \  \"mismatches\": %d,\n\
      \  \"failed_conns\": %d,\n\
      \  \"seconds\": %.6f,\n\
      \  \"req_per_sec\": %.1f,\n\
      \  \"reqs_parsed\": %d,\n\
      \  \"reqs_served\": %d,\n\
      \  \"steals\": %d,\n\
      \  \"replay_ok\": %b,\n\
      \  \"latencies\": [%s],\n\
      \  \"overload\": {\n\
      \    \"shed_pending_hwm\": %d,\n\
      \    \"reqs_served\": %d,\n\
      \    \"reqs_shed\": %d,\n\
      \    \"served_per_sec\": %.1f,\n\
      \    \"shed_per_sec\": %.1f,\n\
      \    \"respond_service_p99_ns\": %.0f,\n\
      \    \"mismatches\": %d,\n\
      \    \"conservation_ok\": %b,\n\
      \    \"replay_ok\": %b\n\
      \  }\n\
       }\n"
      workers conns pipeline res.Rtnet.Loadgen.requests_sent
      res.Rtnet.Loadgen.responses_ok res.Rtnet.Loadgen.sheds
      res.Rtnet.Loadgen.mismatches res.Rtnet.Loadgen.failed_conns
      res.Rtnet.Loadgen.seconds req_per_sec s.Rtnet.Server.reqs_parsed
      s.Rtnet.Server.reqs_served (Rt.Runtime.steals rt) replay_ok
      (latency_json tr) overload.Rtnet.Server.shed_pending_hwm
      s_o.Rtnet.Server.reqs_served s_o.Rtnet.Server.reqs_shed
      (per_sec s_o.Rtnet.Server.reqs_served)
      (per_sec s_o.Rtnet.Server.reqs_shed)
      respond_p99_o res_o.Rtnet.Loadgen.mismatches conserved_o replay_ok_o
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf
    "net_serve_loopback: %d workers, %d conns x %d reqs: %d/%d ok, %.0f req/s, replay %s\n"
    workers conns requests res.Rtnet.Loadgen.responses_ok
    res.Rtnet.Loadgen.requests_sent req_per_sec
    (if replay_ok then "OK" else "VIOLATION");
  Printf.printf
    "net_serve_overload: %.0f served/s vs %.0f shed/s (hwm %d), respond p99 %.0f ns, replay %s\n"
    (per_sec s_o.Rtnet.Server.reqs_served)
    (per_sec s_o.Rtnet.Server.reqs_shed)
    overload.Rtnet.Server.shed_pending_hwm respond_p99_o
    (if replay_ok_o then "OK" else "VIOLATION");
  Printf.printf "wrote %s\n%!" path;
  if
    res.Rtnet.Loadgen.mismatches > 0
    || res.Rtnet.Loadgen.failed_conns > 0
    || res.Rtnet.Loadgen.responses_ok <> conns * requests
    || not replay_ok
    || res_o.Rtnet.Loadgen.mismatches > 0
    || not conserved_o || not replay_ok_o
  then exit 1

let run_micro () =
  let open Bechamel in
  let benchmarks =
    [
      bench_laqueue;
      bench_laqueue_extract;
      bench_melyq_splice;
      bench_cache_model;
      bench_sha256;
      bench_chacha20;
      bench_rt_runtime;
      bench_rt_parking;
      bench_sim_unbalanced;
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg [ instance ] test
        |> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Bechamel.Measure.[| run |])
             instance
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ per_run ] -> Printf.printf "%-44s %14.0f ns/run\n%!" name per_run
          | _ -> Printf.printf "%-44s (no estimate)\n%!" name)
        results)
    benchmarks

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let targets = List.filter (fun a -> a <> "--quick") args in
  match targets with
  | [] -> run_all ~quick
  | [ "micro" ] -> run_micro ()
  | [ "rt-json" ] -> run_rt_json "BENCH_rt.json"
  | [ "rt-json"; "soak" ] -> run_soak_json "BENCH_soak.json"
  | [ "rt-json"; "soak"; path ] -> run_soak_json path
  | [ "rt-json"; path ] -> run_rt_json path
  | [ "net-json" ] -> run_net_json "BENCH_net.json"
  | [ "net-json"; path ] -> run_net_json path
  | ids -> List.iter (run_experiment ~quick) ids
