(* melyctl — run the paper's experiments from the command line. *)

let list_experiments () =
  List.iter
    (fun e ->
      Printf.printf "%-8s %s\n         %s\n" e.Harness.Experiments.id e.title e.description)
    Harness.Experiments.all;
  0

let run_one ~quick id =
  match Harness.Experiments.find id with
  | None ->
    Printf.eprintf "unknown experiment %S; try `melyctl list`\n" id;
    1
  | Some e ->
    Printf.printf "== %s ==\n%s\n" e.title e.description;
    let table = e.run ~quick in
    print_string (Mstd.Table.render table);
    flush stdout;
    0

let run_all ~quick =
  List.fold_left
    (fun status e -> max status (run_one ~quick e.Harness.Experiments.id))
    0 Harness.Experiments.all

(* Shared rendering for the rt subcommands: the run summary and the
   per-worker stats, both from one telemetry snapshot (the same data the
   admin endpoint serves), through Mstd.Table / Mstd.Units so columns
   align and durations carry their natural unit. *)
let print_rt_summary (snap : Rt.Telemetry.snapshot) ~workers ~seconds =
  let table = Mstd.Table.create ~headers:[ "total"; "value" ] in
  let add k v = Mstd.Table.add_row table [ k; v ] in
  let same_color =
    Array.fold_left
      (fun acc (w : Rt.Telemetry.worker_snap) -> max acc w.w_metrics.max_same_color)
      0 snap.s_workers
  in
  add "executed" (string_of_int snap.s_executed);
  add "workers" (string_of_int workers);
  add "wall time" (Mstd.Units.seconds seconds);
  add "throughput"
    (Printf.sprintf "%sK ev/s"
       (Mstd.Units.kevents_per_sec (float_of_int snap.s_executed /. seconds)));
  add "steals" (string_of_int snap.s_steals);
  add "steal rounds" (string_of_int snap.s_steal_attempts);
  add "max same-color" (string_of_int same_color);
  add "handler errors" (string_of_int snap.s_errors);
  print_string (Mstd.Table.render table)

let print_rt_stats (snap : Rt.Telemetry.snapshot) =
  let table =
    Mstd.Table.create
      ~headers:
        [
          "worker"; "executed"; "steals in"; "steals out"; "failed rounds"; "visits";
          "parks"; "park time"; "busy time"; "qwait p50"; "qwait p99"; "service p99";
          "sheds"; "evicts"; "errors";
        ]
  in
  Array.iter
    (fun (w : Rt.Telemetry.worker_snap) ->
      let m = w.w_metrics in
      Mstd.Table.add_row table
        [
          string_of_int w.w_id;
          string_of_int m.executed;
          string_of_int m.steals_in;
          string_of_int m.steals_out;
          string_of_int m.failed_attempts;
          string_of_int m.visits;
          string_of_int m.parks;
          Mstd.Units.seconds m.park_seconds;
          Mstd.Units.duration_ns (float_of_int w.w_service_sum_ns);
          Mstd.Units.duration_ns (Mstd.Histogram.quantile w.w_qwait 0.5);
          Mstd.Units.duration_ns (Mstd.Histogram.quantile w.w_qwait 0.99);
          Mstd.Units.duration_ns (Mstd.Histogram.quantile w.w_service 0.99);
          string_of_int m.sheds;
          string_of_int m.evictions;
          string_of_int m.errors;
        ])
    snap.s_workers;
  print_string (Mstd.Table.render table)

let print_rt_latencies tr =
  match Rt.Trace.latency_summary tr with
  | [] -> ()
  | latencies ->
    let table =
      Mstd.Table.create
        ~headers:
          [
            "handler"; "count"; "qwait p50"; "qwait p99"; "service p50"; "service p99";
          ]
    in
    List.iter
      (fun (l : Rt.Trace.latency) ->
        Mstd.Table.add_row table
          [
            l.l_handler;
            string_of_int l.l_count;
            Mstd.Units.duration_ns l.l_qwait_p50;
            Mstd.Units.duration_ns l.l_qwait_p99;
            Mstd.Units.duration_ns l.l_service_p50;
            Mstd.Units.duration_ns l.l_service_p99;
          ])
      latencies;
    print_string (Mstd.Table.render table)

(* Exercise the real OCaml 5 domain runtime and print its per-worker
   stats: a quick way to see stealing, parking and queue depths on the
   actual machine rather than the simulator. One-shot by default;
   [--serve] runs the serving lifecycle instead, with injector threads
   feeding the live runtime at [--inject-rate] for [--duration]. *)
let run_rt workers events serve inject_rate duration =
  if workers < 1 then (
    Printf.eprintf "melyctl: --workers must be >= 1 (got %d)\n" workers;
    exit 2);
  if events < 0 then (
    Printf.eprintf "melyctl: --events must be >= 0 (got %d)\n" events;
    exit 2);
  if inject_rate < 1 then (
    Printf.eprintf "melyctl: --inject-rate must be >= 1 (got %d)\n" inject_rate;
    exit 2);
  if duration <= 0.0 then (
    Printf.eprintf "melyctl: --duration must be > 0 (got %g)\n" duration;
    exit 2);
  let rt = Rt.Runtime.create ~workers () in
  let h = Rt.Runtime.handler rt ~name:"demo" ~declared_cycles:50_000 () in
  let sink = Atomic.make 0 in
  let colors = max 2 (4 * workers) in
  let busywork (_ : Rt.Runtime.ctx) =
    let acc = ref 0 in
    for j = 1 to 5_000 do
      acc := !acc + j
    done;
    Atomic.fetch_and_add sink !acc |> ignore
  in
  let dt =
    if serve then begin
      (* Serving mode: persistent workers, closed gate only at stop. *)
      let injectors = 2 in
      let interval = float_of_int injectors /. float_of_int inject_rate in
      let accepted = Atomic.make 0 and attempts = Atomic.make 0 in
      Rt.Runtime.start rt;
      let t0 = Rt.Clock.now_ns () in
      let feeders =
        List.init injectors (fun j ->
            Domain.spawn (fun () ->
                let next = ref (interval *. float_of_int j /. 2.0) in
                let i = ref 0 in
                while Rt.Clock.elapsed_seconds ~since:t0 < duration do
                  let color = 1 + (((!i * injectors) + j) mod colors) in
                  incr i;
                  Atomic.incr attempts;
                  if Rt.Runtime.try_register rt ~color ~handler:h busywork then
                    Atomic.incr accepted;
                  next := !next +. interval;
                  let now = Rt.Clock.elapsed_seconds ~since:t0 in
                  if !next > now then Unix.sleepf (!next -. now)
                done))
      in
      List.iter Domain.join feeders;
      Rt.Runtime.quiesce rt;
      Rt.Runtime.stop rt;
      let dt = Rt.Clock.elapsed_seconds ~since:t0 in
      Printf.printf
        "served %.3f s at target %d ev/s: %d injected, %d accepted, %d refused, %d executed\n"
        dt inject_rate (Atomic.get attempts) (Atomic.get accepted)
        (Rt.Runtime.refused rt) (Rt.Runtime.executed rt);
      dt
    end
    else begin
      for i = 0 to events - 1 do
        let color = 1 + (i mod colors) in
        Rt.Runtime.register rt ~color ~handler:h (fun ctx ->
            busywork ctx;
            if i mod 16 = 0 then ctx.register ~color ~handler:h busywork)
      done;
      let t0 = Rt.Clock.now_ns () in
      Rt.Runtime.run_until_idle rt;
      Rt.Clock.elapsed_seconds ~since:t0
    end
  in
  let snap = Rt.Runtime.telemetry_snapshot rt in
  print_rt_summary snap ~workers ~seconds:dt;
  print_rt_stats snap;
  flush stdout;
  0

(* The flight-recorder subcommand: run the unbalanced microbenchmark on
   the real runtime with tracing on — heavy handlers homed on worker 0,
   light ones spread everywhere, so steals must happen — then replay
   the trace through the invariant checkers, print the latency
   percentiles, and write the Chrome trace JSON for Perfetto. *)
let run_rt_trace workers events trace_out trace_cap histograms =
  if workers < 1 then (
    Printf.eprintf "melyctl: --workers must be >= 1 (got %d)\n" workers;
    exit 2);
  if events < 1 then (
    Printf.eprintf "melyctl: --events must be >= 1 (got %d)\n" events;
    exit 2);
  if trace_cap < 1 then (
    Printf.eprintf "melyctl: --trace-cap must be >= 1 (got %d)\n" trace_cap;
    exit 2);
  let rt =
    Rt.Runtime.create ~workers ~trace:{ capacity = trace_cap; histograms } ()
  in
  let heavy = Rt.Runtime.handler rt ~name:"heavy" ~declared_cycles:400_000 () in
  let light = Rt.Runtime.handler rt ~name:"light" ~declared_cycles:8_000 () in
  let sink = Atomic.make 0 in
  let busywork iters (_ : Rt.Runtime.ctx) =
    let acc = ref 0 in
    for j = 1 to iters do
      acc := !acc + j
    done;
    Atomic.fetch_and_add sink !acc |> ignore
  in
  (* The unbalanced shape (paper Section V-B): a quarter of the load is
     heavy and hashes onto worker 0's colors; the rest is light and
     spreads. Workstealing has to move the heavy colors off worker 0. *)
  for i = 0 to events - 1 do
    if i mod 4 = 0 then
      let color = workers * (1 + (i mod 8)) in
      Rt.Runtime.register rt ~color ~handler:heavy (busywork 40_000)
    else
      let color = 1 + (i mod (8 * workers)) in
      Rt.Runtime.register rt ~color ~handler:light (busywork 1_000)
  done;
  let t0 = Rt.Clock.now_ns () in
  Rt.Runtime.run_until_idle rt;
  let seconds = Rt.Clock.elapsed_seconds ~since:t0 in
  let snap = Rt.Runtime.telemetry_snapshot rt in
  print_rt_summary snap ~workers ~seconds;
  print_rt_stats snap;
  let tr = Option.get (Rt.Runtime.trace rt) in
  if histograms then print_rt_latencies tr;
  let retained =
    List.init workers (fun w -> Rt.Trace.span_count tr w) |> List.fold_left ( + ) 0
  in
  Printf.printf "trace: %d spans retained (%d dropped, ring capacity %d/worker)\n"
    retained (Rt.Trace.total_dropped tr) trace_cap;
  let status =
    match (Rt.Trace.check_mutual_exclusion tr, Rt.Trace.check_fifo_per_color tr) with
    | None, None ->
      Printf.printf "replay: mutual exclusion OK, per-color FIFO OK\n";
      0
    | Some v, _ ->
      let (wa, a), (wb, b) = (v.va, v.vb) in
      Printf.eprintf
        "replay: MUTUAL EXCLUSION VIOLATION color %d: %s on w%d overlaps %s on w%d\n"
        a.x_color a.x_handler wa b.x_handler wb;
      1
    | None, Some v ->
      let (wa, a), (wb, b) = (v.va, v.vb) in
      Printf.eprintf
        "replay: FIFO VIOLATION color %d: seq %d (w%d) ran before seq %d (w%d)\n"
        a.x_color b.x_seq wb a.x_seq wa;
      1
  in
  (match trace_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Rt.Trace.export_chrome tr);
    close_out oc;
    Printf.printf "wrote %s — open it at https://ui.perfetto.dev\n" path);
  flush stdout;
  status

(* Serve real TCP traffic: the rtnet poller owns the sockets and the
   worker domains run the fd-colored handlers (paper Figure 6). Runs
   until --duration elapses or SIGINT/SIGTERM, then drains, replays the
   flight-recorder trace, and exits nonzero on any invariant violation. *)
let run_rt_serve workers shards port max_clients duration files file_bytes trace_out
    admin_port =
  if workers < 1 then (
    Printf.eprintf "melyctl: --workers must be >= 1 (got %d)\n" workers;
    exit 2);
  if shards < 1 then (
    Printf.eprintf "melyctl: --shards must be >= 1 (got %d)\n" shards;
    exit 2);
  if port < 0 || port > 65535 then (
    Printf.eprintf "melyctl: --port must be in 0..65535 (got %d)\n" port;
    exit 2);
  if max_clients < 1 then (
    Printf.eprintf "melyctl: --max-clients must be >= 1 (got %d)\n" max_clients;
    exit 2);
  if files < 1 then (
    Printf.eprintf "melyctl: --files must be >= 1 (got %d)\n" files;
    exit 2);
  if file_bytes < 1 then (
    Printf.eprintf "melyctl: --file-bytes must be >= 1 (got %d)\n" file_bytes;
    exit 2);
  (match admin_port with
  | Some p when p < 0 || p > 65535 ->
    Printf.eprintf "melyctl: --admin-port must be in 0..65535 (got %d)\n" p;
    exit 2
  | _ -> ());
  let site = Rtnet.Loadgen.default_site ~files ~file_bytes () in
  let cache = Httpkit.Response.prebuild_cache ~files:site in
  let rt =
    Rt.Runtime.create ~workers ~on_error:Rt.Runtime.Swallow
      ~trace:Rt.Trace.default_config ()
  in
  Rt.Runtime.start rt;
  let server =
    Rtnet.Server.create ~rt ~shards
      ~backlog:(min 4096 (max 128 max_clients))
      ~cache ~max_clients ~port ?admin_port ()
  in
  Rtnet.Server.start server;
  Printf.printf
    "serving %d files on 127.0.0.1:%d (%d workers, %d poller shard%s on %s, \
     max %d clients)\n%!"
    files (Rtnet.Server.port server) workers shards
    (if shards = 1 then "" else "s")
    (match Rtnet.Server.backend server with
    | Rtnet.Epoll.Epoll -> "epoll"
    | Rtnet.Epoll.Poll -> "poll")
    max_clients;
  (match Rtnet.Server.admin_port server with
  | Some ap ->
    Printf.printf
      "telemetry on 127.0.0.1:%d (GET /metrics, /stats.json, /healthz — try \
       melyctl rt top --port %d)\n%!"
      ap ap
  | None -> ());
  let stop_flag = Atomic.make false in
  let handle _ = Atomic.set stop_flag true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle);
  let t0 = Rt.Clock.now_ns () in
  while
    (not (Atomic.get stop_flag))
    && (duration <= 0.0 || Rt.Clock.elapsed_seconds ~since:t0 < duration)
  do
    try Unix.sleepf 0.05 with Unix.Unix_error (EINTR, _, _) -> ()
  done;
  let seconds = Rt.Clock.elapsed_seconds ~since:t0 in
  if Atomic.get stop_flag then Printf.printf "signal received, draining\n%!";
  Rtnet.Server.stop server;
  (* Close the books with one final telemetry snapshot, taken after the
     drain (so every accepted request has executed) and before the
     runtime stops — both exit paths report from the same source the
     admin endpoint serves. *)
  let snap = Rt.Runtime.telemetry_snapshot rt in
  Rt.Runtime.stop rt;
  let s = Rtnet.Server.stats server in
  let table = Mstd.Table.create ~headers:[ "server"; "value" ] in
  let add k v = Mstd.Table.add_row table [ k; string_of_int v ] in
  add "conns accepted" s.Rtnet.Server.conns_accepted;
  add "conns refused" s.Rtnet.Server.conns_refused;
  add "conns closed" s.Rtnet.Server.conns_closed;
  add "conns failed" s.Rtnet.Server.conns_failed;
  add "conns evicted" s.Rtnet.Server.conns_evicted;
  add "reqs parsed" s.Rtnet.Server.reqs_parsed;
  add "reqs served" s.Rtnet.Server.reqs_served;
  add "reqs failed" s.Rtnet.Server.reqs_failed;
  add "reqs malformed" s.Rtnet.Server.reqs_malformed;
  add "reqs too large" s.Rtnet.Server.reqs_too_large;
  add "reqs shed" s.Rtnet.Server.reqs_shed;
  add "injections refused" s.Rtnet.Server.injections_refused;
  add "accept errors" s.Rtnet.Server.accept_errors;
  add "accept backoffs" s.Rtnet.Server.accept_backoffs;
  print_string (Mstd.Table.render table);
  let shard_stats = Rtnet.Server.shard_stats server in
  let st =
    Mstd.Table.create
      ~headers:[ "shard"; "accepted"; "closed"; "parsed"; "served"; "shed" ]
  in
  Array.iteri
    (fun i (ss : Rtnet.Server.stats) ->
      Mstd.Table.add_row st
        [
          string_of_int i;
          string_of_int ss.Rtnet.Server.conns_accepted;
          string_of_int ss.Rtnet.Server.conns_closed;
          string_of_int ss.Rtnet.Server.reqs_parsed;
          string_of_int ss.Rtnet.Server.reqs_served;
          string_of_int ss.Rtnet.Server.reqs_shed;
        ])
    shard_stats;
  print_string (Mstd.Table.render st);
  print_rt_summary snap ~workers ~seconds;
  print_rt_stats snap;
  let tr = Option.get (Rt.Runtime.trace rt) in
  print_rt_latencies tr;
  let status =
    match (Rt.Trace.check_mutual_exclusion tr, Rt.Trace.check_fifo_per_color tr) with
    | None, None ->
      Printf.printf "replay: mutual exclusion OK, per-color FIFO OK\n";
      let shard_bad =
        Array.exists
          (fun (ss : Rtnet.Server.stats) ->
            ss.Rtnet.Server.conns_accepted <> ss.Rtnet.Server.conns_closed)
          shard_stats
      in
      let tele_exec =
        Array.fold_left
          (fun acc (w : Rt.Telemetry.worker_snap) ->
            acc + w.Rt.Telemetry.w_metrics.executed)
          0 snap.Rt.Telemetry.s_workers
      in
      let tele_hist =
        Array.fold_left
          (fun acc (w : Rt.Telemetry.worker_snap) ->
            acc + Mstd.Histogram.count w.Rt.Telemetry.w_qwait)
          0 snap.Rt.Telemetry.s_workers
      in
      let tele_bad =
        tele_exec <> snap.Rt.Telemetry.s_executed
        || tele_hist <> snap.Rt.Telemetry.s_executed
      in
      if Rtnet.Server.ownership_violations server > 0 then begin
        Printf.eprintf "fd ownership violation: %d cross-shard fd touches\n"
          (Rtnet.Server.ownership_violations server);
        1
      end
      else if shard_bad then begin
        Printf.eprintf "per-shard conservation violation (accepted <> closed)\n";
        1
      end
      else if tele_bad then begin
        Printf.eprintf
          "telemetry conservation violation: executed %d, per-worker sum %d, \
           histogram count %d\n"
          snap.Rt.Telemetry.s_executed tele_exec tele_hist;
        1
      end
      else if s.Rtnet.Server.conns_accepted = s.Rtnet.Server.conns_closed then begin
        Printf.printf
          "telemetry: executed %d = per-worker sum = queue-wait histogram count OK\n"
          snap.Rt.Telemetry.s_executed;
        0
      end
      else begin
        Printf.eprintf "conservation violation: %d accepted but %d closed\n"
          s.Rtnet.Server.conns_accepted s.Rtnet.Server.conns_closed;
        1
      end
    | Some _, _ ->
      Printf.eprintf "replay: MUTUAL EXCLUSION VIOLATION\n";
      1
    | None, Some _ ->
      Printf.eprintf "replay: FIFO VIOLATION\n";
      1
  in
  (match trace_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Rt.Trace.export_chrome tr);
    close_out oc;
    Printf.printf "wrote %s — open it at https://ui.perfetto.dev\n" path);
  flush stdout;
  status

(* Drive a running rtnet server over loopback TCP with pipelined
   keep-alive batches and torn writes, comparing every response
   byte-for-byte against the same prebuilt site the server uses.
   Exits nonzero on any mismatch or failed connection. *)
let run_rt_loadgen port conns requests pipeline torn_every client_domains files
    file_bytes concurrent =
  if port < 1 || port > 65535 then (
    Printf.eprintf "melyctl: --port must be in 1..65535 (got %d)\n" port;
    exit 2);
  if conns < 1 then (
    Printf.eprintf "melyctl: --conns must be >= 1 (got %d)\n" conns;
    exit 2);
  if requests < 1 then (
    Printf.eprintf "melyctl: --requests must be >= 1 (got %d)\n" requests;
    exit 2);
  let site = Rtnet.Loadgen.default_site ~files ~file_bytes () in
  let cache = Httpkit.Response.prebuild_cache ~files:site in
  let targets = List.map (fun (p, _) -> (p, Hashtbl.find cache p)) site in
  let res =
    Rtnet.Loadgen.run ~port ~conns ~requests ~pipeline ~torn_every
      ~close_last:true ~client_domains ~concurrent ~targets ()
  in
  Printf.printf
    "%d/%d responses byte-exact in %.3f s (%.0f req/s); %d shed, %d mismatches, \
     %d failed conns, peak %d conns open\n"
    res.Rtnet.Loadgen.responses_ok res.Rtnet.Loadgen.requests_sent
    res.Rtnet.Loadgen.seconds
    (Rtnet.Loadgen.req_per_sec res)
    res.Rtnet.Loadgen.sheds res.Rtnet.Loadgen.mismatches
    res.Rtnet.Loadgen.failed_conns res.Rtnet.Loadgen.conns_open_peak;
  flush stdout;
  if
    res.Rtnet.Loadgen.mismatches = 0
    && res.Rtnet.Loadgen.failed_conns = 0
    && res.Rtnet.Loadgen.responses_ok = conns * requests
  then 0
  else 1

(* Minimal blocking HTTP/1.1 GET over loopback, for the admin plane:
   Connection: close, read to EOF, split head from body. Returns
   (status code, body). *)
let admin_get ~port path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" path
      in
      let off = ref 0 in
      while !off < String.length req do
        off := !off + Unix.write_substring fd req !off (String.length req - !off)
      done;
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let eof = ref false in
      while not !eof do
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> eof := true
        | n -> Buffer.add_subbytes buf chunk 0 n
        | exception Unix.Unix_error (EINTR, _, _) -> ()
      done;
      let raw = Buffer.contents buf in
      let code =
        match String.index_opt raw ' ' with
        | Some sp when String.length raw >= sp + 4 ->
          int_of_string (String.sub raw (sp + 1) 3)
        | _ -> failwith "malformed HTTP response"
      in
      let rec find_body i =
        if i + 3 >= String.length raw then String.length raw
        else if
          raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
          && raw.[i + 3] = '\n'
        then i + 4
        else find_body (i + 1)
      in
      let b = find_body 0 in
      (code, String.sub raw b (String.length raw - b)))

(* One frame of the [rt top] dashboard: parse /stats.json, diff against
   the previous frame for rates, render per-worker rows, the steal
   matrix and the per-shard connection table. *)
let render_top j prev ~interval ~tty =
  let open Mstd.Json in
  let runtime = member_exn "runtime" j in
  let net = member_exn "net" j in
  let workers = get_list "workers" j in
  let shards = get_list "shards" net in
  let prev_workers = match prev with None -> [] | Some p -> get_list "workers" p in
  let prev_of id =
    List.find_opt (fun w -> get_int "id" w = id) prev_workers
  in
  let delta w field =
    match prev_of (get_int "id" w) with
    | None -> None
    | Some pw -> Some (get_int field w - get_int field pw)
  in
  if tty then print_string "\027[H\027[2J";
  let draining = to_bool (member_exn "draining" net) in
  let exec = get_int "executed" runtime in
  let rate =
    match prev with
    | None -> ""
    | Some p ->
      let d = exec - get_int "executed" (member_exn "runtime" p) in
      Printf.sprintf ", %.0f ev/s" (float_of_int d /. interval)
  in
  Printf.printf "mely rt top — %s:%d, epoch %d%s\n"
    (get_str "backend" net) (get_int "port" net) (get_int "epoch" j)
    (if draining then "  [DRAINING]" else "");
  Printf.printf
    "runtime: executed %d%s, pending %d, active %d, steals %d, errors %d; net: \
     %d live conns, %d faults injected\n"
    exec rate (get_int "pending" runtime) (get_int "active" runtime)
    (get_int "steals" runtime) (get_int "errors" runtime) (get_int "live" net)
    (get_int "faults_injected" net);
  (* Older servers don't report the supervision fields; skip then. *)
  (match member "live_workers" runtime with
  | None -> ()
  | Some lw ->
    let degraded = to_bool (member_exn "degraded" runtime) in
    Printf.printf
      "health: %d/%d workers live, %d restarts, %d migrations, %d abandoned%s\n"
      (to_int lw)
      (get_int "workers" runtime)
      (get_int "restarts" runtime)
      (get_int "migrations" runtime)
      (get_int "abandoned" runtime)
      (if degraded then "  [DEGRADED]" else ""));
  let table =
    Mstd.Table.create
      ~headers:
        [
          "worker"; "state"; "hb age"; "executed"; "+exec"; "util";
          "steals in"; "steals out"; "inbox"; "parked"; "win qwait p50";
          "win qwait p99"; "win service p99";
        ]
  in
  List.iter
    (fun w ->
      let win name q = get_float q (member_exn name w) in
      let util =
        match delta w "busy_ns" with
        | None -> "-"
        | Some d ->
          Mstd.Units.percent
            (Float.min 1.0 (float_of_int d /. (interval *. 1e9)))
      in
      (* Liveness from the supervision plane (older servers: "-"). A
         dead/lost slot shows its phase; a live one shows how long ago
         it crossed an event boundary. *)
      let state, hb_age =
        match member "phase" w with
        | None -> ("-", "-")
        | Some p ->
          let restarts = get_int "restarts" w in
          let s = to_str p in
          let s = if restarts > 0 then Printf.sprintf "%s(r%d)" s restarts else s in
          ( s,
            Mstd.Units.duration_ns (float_of_int (get_int "heartbeat_age_ns" w))
          )
      in
      Mstd.Table.add_row table
        [
          string_of_int (get_int "id" w);
          state;
          hb_age;
          string_of_int (get_int "executed" w);
          (match delta w "executed" with
          | None -> "-"
          | Some d -> Printf.sprintf "+%d" d);
          util;
          string_of_int (get_int "steals_in" w);
          string_of_int (get_int "steals_out" w);
          string_of_int (get_int "inbox_depth" w);
          (if to_bool (member_exn "parked" w) then "yes" else "no");
          Mstd.Units.duration_ns (win "queue_wait_window" "p50_ns");
          Mstd.Units.duration_ns (win "queue_wait_window" "p99_ns");
          Mstd.Units.duration_ns (win "service_window" "p99_ns");
        ])
    workers;
  print_string (Mstd.Table.render table);
  let steals_total = get_int "steals" runtime in
  if steals_total > 0 then begin
    let ids = List.map (fun w -> string_of_int (get_int "id" w)) workers in
    let mt = Mstd.Table.create ~headers:("thief\\victim" :: ids) in
    List.iter
      (fun w ->
        let row =
          List.map
            (fun v ->
              let n = to_int v in
              if n = 0 then "." else string_of_int n)
            (get_list "steals_from" w)
        in
        Mstd.Table.add_row mt (string_of_int (get_int "id" w) :: row))
      workers;
    print_string (Mstd.Table.render mt)
  end;
  let st =
    Mstd.Table.create
      ~headers:[ "shard"; "open"; "accepted"; "served"; "shed"; "evicted" ]
  in
  List.iter
    (fun s ->
      Mstd.Table.add_row st
        [
          string_of_int (get_int "id" s);
          string_of_int (get_int "conns_open" s);
          string_of_int (get_int "accepted" s);
          string_of_int (get_int "served" s);
          string_of_int (get_int "shed" s);
          string_of_int (get_int "evicted" s);
        ])
    shards;
  print_string (Mstd.Table.render st);
  flush stdout

(* Live terminal dashboard over a running server's admin endpoint:
   poll /stats.json (rotating the streaming window each poll), render
   per-worker utilization and window tails, the steal matrix and the
   per-shard connection tables. Exits 0 on SIGINT or after --count
   frames, 1 if the endpoint goes away or answers garbage. *)
let run_rt_top port interval count =
  if port < 1 || port > 65535 then (
    Printf.eprintf "melyctl: --port must be in 1..65535 (got %d)\n" port;
    exit 2);
  if interval <= 0.0 then (
    Printf.eprintf "melyctl: --interval must be > 0 (got %g)\n" interval;
    exit 2);
  if count < 0 then (
    Printf.eprintf "melyctl: --count must be >= 0 (got %d)\n" count;
    exit 2);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop_flag = Atomic.make false in
  (try
     Sys.set_signal Sys.sigint
       (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true))
   with Invalid_argument _ -> ());
  let tty = (try Unix.isatty Unix.stdout with Unix.Unix_error _ -> false) in
  let prev = ref None in
  let frames = ref 0 in
  let status = ref 0 in
  let continue () =
    (not (Atomic.get stop_flag)) && (count = 0 || !frames < count) && !status = 0
  in
  while continue () do
    (match admin_get ~port "/stats.json?swap=1" with
    | exception e ->
      Printf.eprintf "melyctl: rt top: %s\n" (Printexc.to_string e);
      status := 1
    | 200, body -> (
      match Mstd.Json.parse body with
      | exception Mstd.Json.Parse_error m ->
        Printf.eprintf "melyctl: rt top: bad /stats.json: %s\n" m;
        status := 1
      | j ->
        render_top j !prev ~interval ~tty;
        prev := Some j)
    | code, _ ->
      Printf.eprintf "melyctl: rt top: admin endpoint answered %d\n" code;
      status := 1);
    incr frames;
    if continue () then
      try Unix.sleepf interval with Unix.Unix_error (EINTR, _, _) -> ()
  done;
  !status

(* Chaos drill: serve under a seeded deterministic fault schedule plus
   hostile clients, and assert the armor's books balance. Two phases:

   A. hostile syscall faults + slow-loris clients alongside a real
      pipelined load — no response mismatches allowed, every loris must
      be evicted with a 408, fds and requests must conserve.
   B. saturation against a deliberately slow app with a tiny shed
      budget — the server must shed with 503s (not wedge, not lie) and
      the books must still balance.

   Exits nonzero on any violated invariant; --json writes a
   machine-readable report for CI. *)
let run_rt_chaos seed workers conns requests loris json_out =
  if workers < 1 then (
    Printf.eprintf "melyctl: --workers must be >= 1 (got %d)\n" workers;
    exit 2);
  if conns < 1 then (
    Printf.eprintf "melyctl: --conns must be >= 1 (got %d)\n" conns;
    exit 2);
  if requests < 1 then (
    Printf.eprintf "melyctl: --requests must be >= 1 (got %d)\n" requests;
    exit 2);
  if loris < 0 then (
    Printf.eprintf "melyctl: --loris must be >= 0 (got %d)\n" loris;
    exit 2);
  let site = Rtnet.Loadgen.default_site ~files:8 ~file_bytes:1024 () in
  let cache = Httpkit.Response.prebuild_cache ~files:site in
  let targets = List.map (fun (p, _) -> (p, Hashtbl.find cache p)) site in
  let checks = ref [] in
  let check phase name ok =
    checks := (phase, name, ok) :: !checks;
    if not ok then Printf.eprintf "chaos [%s] FAILED: %s\n" phase name
  in
  let replay_ok tr =
    Rt.Trace.check_mutual_exclusion tr = None
    && Rt.Trace.check_fifo_per_color tr = None
  in
  (* ---- Phase A: fault schedule + slow loris under real load. ---- *)
  let faults = Rt.Faults.seeded ~plan:Rt.Faults.hostile_plan seed in
  let rt = Rt.Runtime.create ~workers ~trace:Rt.Trace.default_config () in
  Rt.Runtime.start rt;
  let overload =
    { Rtnet.Server.default_overload with header_deadline = 0.5 }
  in
  let server = Rtnet.Server.create ~rt ~overload ~faults ~cache ~port:0 () in
  Rtnet.Server.start server;
  let port = Rtnet.Server.port server in
  let evicted_408 = Atomic.make 0 in
  let loris_domains =
    List.init loris (fun i ->
        Domain.spawn (fun () ->
            let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
            match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
            | exception _ -> (try Unix.close fd with Unix.Unix_error _ -> ())
            | () ->
              (try
                 Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.0;
                 let partial = Printf.sprintf "GET /loris%d HTT" i in
                 ignore (Unix.write_substring fd partial 0 (String.length partial))
               with Unix.Unix_error _ -> ());
              let b = Bytes.create 1024 in
              let buf = Buffer.create 256 in
              let rec drain () =
                match Unix.read fd b 0 1024 with
                | 0 -> ()
                | n ->
                  Buffer.add_subbytes buf b 0 n;
                  drain ()
                | exception Unix.Unix_error _ -> ()
              in
              drain ();
              let got = Buffer.contents buf in
              if String.length got >= 12 && String.sub got 0 12 = "HTTP/1.1 408" then
                Atomic.incr evicted_408;
              (try Unix.close fd with Unix.Unix_error _ -> ())))
  in
  let ra =
    Rtnet.Loadgen.run ~port ~conns ~requests ~pipeline:4 ~torn_every:5
      ~client_domains:4 ~timeout:20.0 ~targets ()
  in
  List.iter Domain.join loris_domains;
  Rtnet.Server.stop server;
  Rt.Runtime.stop rt;
  let sa = Rtnet.Server.stats server in
  check "A" "no response mismatches" (ra.Rtnet.Loadgen.mismatches = 0);
  check "A" "some responses served" (ra.Rtnet.Loadgen.responses_ok > 0);
  check "A" "faults were injected" (sa.Rtnet.Server.faults_injected > 0);
  (* Every loris domain terminated (the joins above prove liveness);
     under injected write faults a 408 can be torn away from an
     individual loris, so require eviction evidence, not a per-loris
     byte guarantee. *)
  check "A" "slow-loris evictions observed"
    (loris = 0
    || (sa.Rtnet.Server.conns_evicted >= 1 && Atomic.get evicted_408 >= 1));
  check "A" "conns accepted = closed"
    (sa.Rtnet.Server.conns_accepted = sa.Rtnet.Server.conns_closed);
  check "A" "reqs parsed = served + failed + shed"
    (sa.Rtnet.Server.reqs_parsed
    = sa.Rtnet.Server.reqs_served + sa.Rtnet.Server.reqs_failed
      + sa.Rtnet.Server.reqs_shed);
  check "A" "mutual exclusion held" (Rt.Runtime.max_concurrent_same_color rt = 1);
  let tra = Option.get (Rt.Runtime.trace rt) in
  check "A" "trace replay clean" (replay_ok tra);
  (* ---- Phase B: saturation shedding against a slow app. ---- *)
  let rtb = Rt.Runtime.create ~workers ~trace:Rt.Trace.default_config () in
  Rt.Runtime.start rtb;
  let sink = Atomic.make 0 in
  let slow_app (req : Httpkit.Request.t) =
    let acc = ref 0 in
    for j = 1 to 500_000 do
      acc := !acc + j
    done;
    Atomic.fetch_and_add sink (Sys.opaque_identity !acc) |> ignore;
    match Hashtbl.find_opt cache req.Httpkit.Request.target with
    | Some r -> r
    | None -> Httpkit.Response.build ~status:Httpkit.Response.Not_found ~body:"" ()
  in
  let overload_b = { Rtnet.Server.default_overload with shed_pending_hwm = 4 } in
  let server_b =
    Rtnet.Server.create ~rt:rtb ~overload:overload_b ~app:slow_app ~cache ~port:0 ()
  in
  Rtnet.Server.start server_b;
  let rb =
    Rtnet.Loadgen.run ~port:(Rtnet.Server.port server_b) ~conns:(max conns 8)
      ~requests:(max 8 (requests / 4)) ~pipeline:16 ~client_domains:4
      ~timeout:20.0 ~targets ()
  in
  Rtnet.Server.stop server_b;
  Rt.Runtime.stop rtb;
  let sb = Rtnet.Server.stats server_b in
  check "B" "no response mismatches" (rb.Rtnet.Loadgen.mismatches = 0);
  check "B" "load was shed with 503s" (sb.Rtnet.Server.reqs_shed > 0);
  check "B" "client observed the sheds" (rb.Rtnet.Loadgen.sheds > 0);
  check "B" "some responses served" (rb.Rtnet.Loadgen.responses_ok > 0);
  check "B" "conns accepted = closed"
    (sb.Rtnet.Server.conns_accepted = sb.Rtnet.Server.conns_closed);
  check "B" "reqs parsed = served + failed + shed"
    (sb.Rtnet.Server.reqs_parsed
    = sb.Rtnet.Server.reqs_served + sb.Rtnet.Server.reqs_failed
      + sb.Rtnet.Server.reqs_shed);
  let trb = Option.get (Rt.Runtime.trace rtb) in
  check "B" "trace replay clean" (replay_ok trb);
  (* ---- Phase C: seeded worker-kill storm on the bare runtime. ----
     Workers die at event boundaries per the seeded [Kill] stream; the
     supervisor migrates their colors and respawns them. Kills land
     only at boundaries, so a correct supervisor loses zero accepted
     events; the k-th Kill decision is a pure function of (seed, k)
     and every accepted event draws exactly one, so the kill count is
     reproducible — asserted by running the same storm twice. *)
  let storm_events = requests * 25 in
  let kill_storm () =
    let kill_plan =
      {
        Rt.Faults.calm_plan with
        kill = { Rt.Faults.calm with errnos = [ (Unix.EIO, 0.01) ] };
      }
    in
    let faults = Rt.Faults.seeded ~plan:kill_plan seed in
    let sup =
      {
        Rt.Supervision.default_config with
        poll_interval_s = 0.001;
        backoff_base_ns = 1_000_000;
        backoff_max_ns = 50_000_000;
        storm_max = 1_000;
      }
    in
    let rtc =
      Rt.Runtime.create ~workers ~trace:Rt.Trace.default_config ~faults
        ~supervision:sup ()
    in
    Rt.Runtime.start rtc;
    let h = Rt.Runtime.handler rtc ~name:"storm" ~declared_cycles:300 () in
    let colors = max 8 (workers * 4) in
    let accepted = ref 0 in
    for i = 0 to storm_events - 1 do
      if
        Rt.Runtime.try_register rtc ~color:(i mod colors) ~handler:h (fun _ ->
            let acc = ref 0 in
            for j = 1 to 2_000 do
              acc := !acc + j
            done;
            ignore (Sys.opaque_identity !acc))
      then incr accepted
    done;
    Rt.Runtime.quiesce rtc;
    (* Give the supervisor a beat to respawn a worker killed at the
       very last event boundary, so "restored or degraded" is judged
       on the settled state, not a respawn in flight. *)
    let deadline = Unix.gettimeofday () +. 2.0 in
    while
      Rt.Runtime.live_workers rtc < workers
      && (not (Rt.Runtime.is_degraded rtc))
      && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 0.002
    done;
    let settled_live = Rt.Runtime.live_workers rtc in
    let settled_degraded = Rt.Runtime.is_degraded rtc in
    Rt.Runtime.stop rtc;
    let kills = (Rt.Faults.counts faults Rt.Faults.Kill).Rt.Faults.errnos in
    (rtc, !accepted, kills, settled_live, settled_degraded)
  in
  let rtc, c_accepted, c_kills, c_live, c_degraded = kill_storm () in
  let _, c_accepted2, c_kills2, _, _ = kill_storm () in
  let c_exec = Rt.Runtime.executed rtc in
  check "C" "workers were killed" (c_kills > 0);
  check "C" "kill schedule deterministic per seed"
    (c_kills = c_kills2 && c_accepted = c_accepted2);
  check "C" "supervisor restarted workers" (Rt.Runtime.worker_restarts rtc > 0);
  (* A slot holds at most one kill not yet answered by a restart (a
     respawn in flight, or a slot the breaker left down). *)
  check "C" "restarts >= kills - workers"
    (Rt.Runtime.worker_restarts rtc >= c_kills - workers);
  check "C" "colors migrated off dead workers" (Rt.Runtime.migrations rtc > 0);
  check "C" "no accepted event was lost"
    (c_exec + Rt.Runtime.abandoned rtc = c_accepted);
  check "C" "backlog drained" (Rt.Runtime.pending rtc = 0);
  check "C" "mutual exclusion held"
    (Rt.Runtime.max_concurrent_same_color rtc = 1);
  check "C" "trace replay clean" (replay_ok (Option.get (Rt.Runtime.trace rtc)));
  check "C" "conservation audit clean"
    (Rt.Runtime.debug_check_conservation rtc = None);
  check "C" "worker count restored or degraded reported"
    (c_live = workers || c_degraded);
  let all_ok = List.for_all (fun (_, _, ok) -> ok) !checks in
  Printf.printf
    "phase A (seed %d): %d/%d ok, %d shed, %d mismatches, %d failed conns; %d \
     faults injected, %d evicted (%d loris 408s), %d accept errors\n"
    seed ra.Rtnet.Loadgen.responses_ok ra.Rtnet.Loadgen.requests_sent
    ra.Rtnet.Loadgen.sheds ra.Rtnet.Loadgen.mismatches
    ra.Rtnet.Loadgen.failed_conns sa.Rtnet.Server.faults_injected
    sa.Rtnet.Server.conns_evicted (Atomic.get evicted_408)
    sa.Rtnet.Server.accept_errors;
  Printf.printf
    "phase B (saturation): %d served, %d shed by server, %d sheds seen by \
     client, %d mismatches\n"
    sb.Rtnet.Server.reqs_served sb.Rtnet.Server.reqs_shed
    rb.Rtnet.Loadgen.sheds rb.Rtnet.Loadgen.mismatches;
  Printf.printf
    "phase C (kill storm, seed %d): %d events, %d worker kills, %d restarts, \
     %d colors migrated, %d/%d workers live at settle%s\n"
    seed c_accepted c_kills
    (Rt.Runtime.worker_restarts rtc)
    (Rt.Runtime.migrations rtc)
    c_live workers
    (if c_degraded then "  [DEGRADED]" else "");
  Printf.printf "chaos: %s (%d checks)\n"
    (if all_ok then "all invariants held" else "INVARIANT VIOLATED")
    (List.length !checks);
  (match json_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let stats_json (s : Rtnet.Server.stats) =
      Printf.sprintf
        "{\"conns_accepted\":%d,\"conns_closed\":%d,\"conns_failed\":%d,\
         \"conns_evicted\":%d,\"reqs_parsed\":%d,\"reqs_served\":%d,\
         \"reqs_failed\":%d,\"reqs_malformed\":%d,\"reqs_too_large\":%d,\
         \"reqs_shed\":%d,\"accept_errors\":%d,\"accept_backoffs\":%d,\
         \"faults_injected\":%d}"
        s.conns_accepted s.conns_closed s.conns_failed s.conns_evicted
        s.reqs_parsed s.reqs_served s.reqs_failed s.reqs_malformed
        s.reqs_too_large s.reqs_shed s.accept_errors s.accept_backoffs
        s.faults_injected
    in
    let load_json (r : Rtnet.Loadgen.result) =
      Printf.sprintf
        "{\"sent\":%d,\"ok\":%d,\"sheds\":%d,\"mismatches\":%d,\
         \"failed_conns\":%d,\"seconds\":%.4f}"
        r.requests_sent r.responses_ok r.sheds r.mismatches r.failed_conns
        r.seconds
    in
    let checks_json =
      !checks |> List.rev
      |> List.map (fun (phase, name, ok) ->
             Printf.sprintf "{\"phase\":%S,\"name\":%S,\"ok\":%b}" phase name ok)
      |> String.concat ","
    in
    Printf.fprintf oc
      "{\"seed\":%d,\"workers\":%d,\"ok\":%b,\n\
       \ \"phase_a\":{\"server\":%s,\"loadgen\":%s,\"loris_408\":%d},\n\
       \ \"phase_b\":{\"server\":%s,\"loadgen\":%s},\n\
       \ \"phase_c\":{\"events\":%d,\"executed\":%d,\"kills\":%d,\
       \"restarts\":%d,\"migrations\":%d,\"abandoned\":%d,\
       \"live_workers\":%d,\"degraded\":%b},\n\
       \ \"checks\":[%s]}\n"
      seed workers all_ok (stats_json sa) (load_json ra)
      (Atomic.get evicted_408) (stats_json sb) (load_json rb) c_accepted c_exec
      c_kills
      (Rt.Runtime.worker_restarts rtc)
      (Rt.Runtime.migrations rtc)
      (Rt.Runtime.abandoned rtc)
      c_live c_degraded checks_json;
    close_out oc;
    Printf.printf "wrote %s\n" path);
  flush stdout;
  if all_ok then 0 else 1

(* Long-soak production gate: serve a sustained event stream for a
   wall-clock budget with seeded worker kills mixed in, and stop the
   world every [check_every] accepted events to assert the exact
   conservation invariants (quiesce → attempts = executed + refused +
   abandoned, structure audit clean, mutual exclusion never violated).
   The CI smoke runs a seconds-long slice of this; operators can point
   it at hours. Exits nonzero on the first violated invariant. *)
let run_rt_soak seed workers duration kill_prob check_every json_out =
  if workers < 1 then (
    Printf.eprintf "melyctl: --workers must be >= 1 (got %d)\n" workers;
    exit 2);
  if duration <= 0.0 then (
    Printf.eprintf "melyctl: --duration must be > 0 (got %g)\n" duration;
    exit 2);
  if kill_prob < 0.0 || kill_prob > 1.0 then (
    Printf.eprintf "melyctl: --kill-prob must be in 0..1 (got %g)\n" kill_prob;
    exit 2);
  if check_every < 1 then (
    Printf.eprintf "melyctl: --check-every must be >= 1 (got %d)\n" check_every;
    exit 2);
  let plan =
    {
      Rt.Faults.calm_plan with
      kill = { Rt.Faults.calm with errnos = [ (Unix.EIO, kill_prob) ] };
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
  let colors = max 16 (workers * 8) in
  let run _ =
    let acc = ref 0 in
    for j = 1 to 500 do
      acc := !acc + j
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let accepted = ref 0 in
  let refused = ref 0 in
  let checkpoints = ref 0 in
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        failures := s :: !failures;
        Printf.eprintf "soak FAILED: %s\n%!" s)
      fmt
  in
  (* Stop-the-world checkpoint: drain, then the books must balance to
     the event. *)
  let checkpoint () =
    incr checkpoints;
    Rt.Runtime.quiesce rt;
    let exec = Rt.Runtime.executed rt in
    let aband = Rt.Runtime.abandoned rt in
    if exec + aband <> !accepted then
      fail "checkpoint %d: accepted %d <> executed %d + abandoned %d"
        !checkpoints !accepted exec aband;
    if Rt.Runtime.pending rt <> 0 then
      fail "checkpoint %d: pending %d after quiesce" !checkpoints
        (Rt.Runtime.pending rt);
    if Rt.Runtime.max_concurrent_same_color rt <> 1 then
      fail "checkpoint %d: mutual exclusion violated (max same-color %d)"
        !checkpoints
        (Rt.Runtime.max_concurrent_same_color rt);
    match Rt.Runtime.debug_check_conservation rt with
    | None -> ()
    | Some m -> fail "checkpoint %d: conservation audit: %s" !checkpoints m
  in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration in
  let burst = 256 in
  let since_check = ref 0 in
  let i = ref 0 in
  while Unix.gettimeofday () < deadline && not (Rt.Runtime.is_degraded rt) do
    let batch =
      List.init burst (fun k -> ((!i + k) mod colors, h, run))
    in
    if Rt.Runtime.try_register_batch rt batch then accepted := !accepted + burst
    else refused := !refused + burst;
    i := !i + burst;
    since_check := !since_check + burst;
    if !since_check >= check_every then begin
      since_check := 0;
      checkpoint ()
    end
  done;
  checkpoint ();
  let settle = Unix.gettimeofday () +. 2.0 in
  while
    Rt.Runtime.live_workers rt < workers
    && (not (Rt.Runtime.is_degraded rt))
    && Unix.gettimeofday () < settle
  do
    Unix.sleepf 0.002
  done;
  let live = Rt.Runtime.live_workers rt in
  let degraded = Rt.Runtime.is_degraded rt in
  if live <> workers && not degraded then
    fail "settled at %d/%d live workers without reporting degraded" live workers;
  Rt.Runtime.stop rt;
  let wall = Unix.gettimeofday () -. t0 in
  let kills = (Rt.Faults.counts faults Rt.Faults.Kill).Rt.Faults.errnos in
  if !checkpoints < 1 then fail "no conservation checkpoint ran";
  (* The work floor: 25k accepted events per second of budget. *)
  let floor = int_of_float (25_000. *. duration) in
  if !accepted < floor then
    fail "too slow: %d accepted events, floor %d for %.1fs" !accepted floor duration;
  (* With >= 20 kills expected, seeing none means the schedule is off
     (P(0) = e^-20). *)
  if kill_prob *. float_of_int !accepted >= 20. then begin
    if kills = 0 then fail "no worker kills (kill-prob %g over %d events)" kill_prob !accepted;
    if Rt.Runtime.worker_restarts rt = 0 then fail "%d kills but no worker restarts" kills
  end;
  let ok = !failures = [] in
  Printf.printf
    "soak (seed %d, %d workers, %.1fs): %d events (%.0f ev/s), %d checkpoints, \
     %d kills, %d restarts, %d migrations, %d abandoned, %d/%d live%s — %s\n"
    seed workers wall !accepted
    (float_of_int !accepted /. wall)
    !checkpoints kills
    (Rt.Runtime.worker_restarts rt)
    (Rt.Runtime.migrations rt)
    (Rt.Runtime.abandoned rt)
    live workers
    (if degraded then "  [DEGRADED]" else "")
    (if ok then "all invariants held" else "INVARIANT VIOLATED");
  (match json_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let failures_json =
      !failures |> List.rev
      |> List.map (fun s -> Printf.sprintf "%S" s)
      |> String.concat ","
    in
    Printf.fprintf oc
      "{\"seed\":%d,\"workers\":%d,\"ok\":%b,\"seconds\":%.3f,\
       \"events\":%d,\"rate\":%.0f,\"checkpoints\":%d,\"kills\":%d,\
       \"restarts\":%d,\"migrations\":%d,\"abandoned\":%d,\
       \"live_workers\":%d,\"degraded\":%b,\"failures\":[%s]}\n"
      seed workers ok wall !accepted
      (float_of_int !accepted /. wall)
      !checkpoints kills
      (Rt.Runtime.worker_restarts rt)
      (Rt.Runtime.migrations rt)
      (Rt.Runtime.abandoned rt)
      live degraded failures_json;
    close_out oc;
    Printf.printf "wrote %s\n" path);
  flush stdout;
  if ok then 0 else 1

(* The CI perfbench A/B gate: each directory holds one W.jsonl per
   workload W, line i being pair i's perfbench result line; the metrics
   and their bounds come from ./BENCHMARK.json. *)
let run_perf_gate base_dir change_dir =
  let runs dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           Option.map
             (fun w -> (w, In_channel.with_open_text (Filename.concat dir f) In_channel.input_lines))
             (Filename.chop_suffix_opt ~suffix:".jsonl" f))
  in
  let benchmark = Mstd.Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) in
  let checks =
    Mstd.Perf_gate.judge ~benchmark ~base:(runs base_dir) ~change:(runs change_dir)
  in
  List.iter
    (fun (c : Mstd.Perf_gate.check) -> Printf.printf "%-4s %s\n" (if c.ok then "ok" else "FAIL") c.line)
    checks;
  let ok = List.for_all (fun (c : Mstd.Perf_gate.check) -> c.ok) checks in
  Printf.printf "perf-gate: %s\n%!" (if ok then "pass" else "FAIL");
  if ok then 0 else 1

open Cmdliner

let quick =
  let doc = "Shorter virtual durations and sparser sweeps (for CI)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the reproducible tables and figures.")
    Term.(const list_experiments $ const ())

let run_cmd =
  let ids =
    let doc = "Experiment ids (e.g. table3 fig7); defaults to all." in
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run quick ids =
    match ids with
    | [] -> run_all ~quick
    | ids -> List.fold_left (fun status id -> max status (run_one ~quick id)) 0 ids
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print their tables.")
    Term.(const run $ quick $ ids)

let rt_cmd =
  let workers =
    let doc = "Worker domains to spawn." in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let events =
    let doc = "Events to register (one-shot mode)." in
    Arg.(value & opt int 2_000 & info [ "events" ] ~docv:"N" ~doc)
  in
  let serve =
    let doc =
      "Serving lifecycle: start persistent workers, inject events from \
       external threads into the live runtime, quiesce, then stop."
    in
    Arg.(value & flag & info [ "serve" ] ~doc)
  in
  let inject_rate =
    let doc = "Target injection rate in events/s (with --serve)." in
    Arg.(value & opt int 10_000 & info [ "inject-rate" ] ~docv:"RATE" ~doc)
  in
  let duration =
    let doc = "Injection window in seconds (with --serve)." in
    Arg.(value & opt float 1.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let trace_out =
    let doc = "Write the Chrome trace-event JSON here (open in Perfetto)." in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let trace_cap =
    let doc = "Flight-recorder ring capacity, in spans per worker." in
    Arg.(value & opt int 65_536 & info [ "trace-cap" ] ~docv:"N" ~doc)
  in
  let histograms =
    let doc = "Collect per-handler latency histograms (p50/p99)." in
    Arg.(value & flag & info [ "histograms" ] ~doc)
  in
  let trace_cmd =
    Cmd.v
      (Cmd.info "trace"
         ~doc:
           "Run the unbalanced microbenchmark with the flight recorder on: \
            replay-check the trace, print latency percentiles, export \
            Chrome trace JSON.")
      Term.(const run_rt_trace $ workers $ events $ trace_out $ trace_cap $ histograms)
  in
  let port ~default ~doc =
    Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let files =
    let doc = "Number of files in the prebuilt site." in
    Arg.(value & opt int 8 & info [ "files" ] ~docv:"N" ~doc)
  in
  let file_bytes =
    let doc = "Body size of each file in bytes." in
    Arg.(value & opt int 1024 & info [ "file-bytes" ] ~docv:"BYTES" ~doc)
  in
  let serve_cmd =
    let shards =
      let doc =
        "Poller shard domains splitting the fd space over epoll (1 = the \
         classic single-poller layout)."
      in
      Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
    in
    let max_clients =
      let doc = "Maximum simultaneous client connections (the paper's Accept cap)." in
      Arg.(value & opt int 512 & info [ "max-clients" ] ~docv:"N" ~doc)
    in
    let serve_duration =
      let doc = "Serve for this many seconds then drain (0 = until SIGINT/SIGTERM)." in
      Arg.(value & opt float 0.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
    in
    let admin_port =
      let doc =
        "Also serve the telemetry plane on this loopback port (0 = ephemeral): \
         $(b,GET /metrics) (Prometheus text), $(b,GET /stats.json) (full \
         snapshot), $(b,GET /healthz) (200 accepting / 503 draining)."
      in
      Arg.(value & opt (some int) None & info [ "admin-port" ] ~docv:"PORT" ~doc)
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Serve real TCP traffic on loopback: the rtnet poller owns the \
            sockets, worker domains run fd-colored handlers, the flight \
            recorder stays on, and the trace is replay-checked at exit.")
      Term.(
        const run_rt_serve $ workers $ shards
        $ port ~default:8080 ~doc:"Port to listen on (0 = ephemeral)."
        $ max_clients $ serve_duration $ files $ file_bytes $ trace_out
        $ admin_port)
  in
  let top_cmd =
    let interval =
      let doc = "Seconds between refreshes." in
      Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
    in
    let cnt =
      let doc = "Render this many frames then exit (0 = until SIGINT)." in
      Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
    in
    Cmd.v
      (Cmd.info "top"
         ~doc:
           "Refreshing terminal dashboard over a running $(b,melyctl rt serve \
            --admin-port) instance: polls $(b,/stats.json), rotates the \
            streaming window each poll, and renders per-worker utilization and \
            window latency tails, the steal matrix and per-shard connection \
            tables.")
      Term.(
        const run_rt_top
        $ port ~default:9090
            ~doc:"Admin port of the server (its --admin-port value)."
        $ interval $ cnt)
  in
  let loadgen_cmd =
    let conns =
      let doc = "Client connections to open." in
      Arg.(value & opt int 16 & info [ "conns" ] ~docv:"N" ~doc)
    in
    let requests =
      let doc = "Requests per connection." in
      Arg.(value & opt int 100 & info [ "requests" ] ~docv:"N" ~doc)
    in
    let pipeline =
      let doc = "Requests per pipelined batch." in
      Arg.(value & opt int 8 & info [ "pipeline" ] ~docv:"N" ~doc)
    in
    let torn_every =
      let doc = "Tear every Nth batch into tiny writes (0 = never)." in
      Arg.(value & opt int 8 & info [ "torn-every" ] ~docv:"N" ~doc)
    in
    let client_domains =
      let doc = "Client domains driving the connections." in
      Arg.(value & opt int 4 & info [ "client-domains" ] ~docv:"N" ~doc)
    in
    let concurrent =
      let doc =
        "Hold every connection open for the whole run and round-robin the \
         batches across them (high-concurrency mode), instead of driving \
         each connection to completion before opening the next."
      in
      Arg.(value & flag & info [ "concurrent" ] ~doc)
    in
    Cmd.v
      (Cmd.info "loadgen"
         ~doc:
           "Drive a running $(b,melyctl rt serve) instance with pipelined \
            keep-alive batches and torn writes; every response is compared \
            byte-for-byte. Exits nonzero on any mismatch.")
      Term.(
        const run_rt_loadgen
        $ port ~default:8080 ~doc:"Port the server listens on."
        $ conns $ requests $ pipeline $ torn_every $ client_domains $ files
        $ file_bytes $ concurrent)
  in
  let chaos_cmd =
    let seed =
      let doc = "Seed for the deterministic fault schedule." in
      Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
    in
    let conns =
      let doc = "Well-behaved client connections." in
      Arg.(value & opt int 12 & info [ "conns" ] ~docv:"N" ~doc)
    in
    let requests =
      let doc = "Requests per well-behaved connection." in
      Arg.(value & opt int 80 & info [ "requests" ] ~docv:"N" ~doc)
    in
    let loris =
      let doc = "Slow-loris clients trickling unfinished headers." in
      Arg.(value & opt int 4 & info [ "loris" ] ~docv:"N" ~doc)
    in
    let json_out =
      let doc = "Write a machine-readable JSON report here (for CI)." in
      Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
    in
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Three-phase fault drill. A: serve under a seeded deterministic \
            syscall fault schedule plus slow-loris clients. B: saturate a \
            deliberately slow app with a tiny shed budget. C: seeded \
            worker-kill storm on the bare runtime — domains die at event \
            boundaries, the supervisor migrates their colors and respawns \
            them. Asserts the armor's conservation invariants, loris 408 \
            evictions, 503 shedding, clean flight-recorder replays, \
            zero-lost-events and a deterministic kill schedule; exits \
            nonzero on any violation.")
      Term.(const run_rt_chaos $ seed $ workers $ conns $ requests $ loris $ json_out)
  in
  let soak_cmd =
    let seed =
      let doc = "Seed for the deterministic kill schedule." in
      Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
    in
    let duration =
      let doc = "Wall-clock soak budget in seconds." in
      Arg.(value & opt float 10.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
    in
    let kill_prob =
      let doc = "Worker-kill probability per executed event (0 disables kills)." in
      Arg.(value & opt float 0.0002 & info [ "kill-prob" ] ~docv:"P" ~doc)
    in
    let check_every =
      let doc = "Quiesce and audit conservation every N accepted events." in
      Arg.(value & opt int 100_000 & info [ "check-every" ] ~docv:"N" ~doc)
    in
    let json_out =
      let doc = "Write a machine-readable JSON report here (for CI)." in
      Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
    in
    Cmd.v
      (Cmd.info "soak"
         ~doc:
           "Long-soak production gate: drive a sustained event stream through \
            a serving runtime for a wall-clock budget with seeded worker \
            kills mixed in, stopping the world every N events to audit exact \
            conservation (no accepted event lost, structure clean, mutual \
            exclusion intact). Exits nonzero on the first violation.")
      Term.(
        const run_rt_soak $ seed $ workers $ duration $ kill_prob $ check_every
        $ json_out)
  in
  Cmd.group
    ~default:Term.(const run_rt $ workers $ events $ serve $ inject_rate $ duration)
    (Cmd.info "rt"
       ~doc:
         "Exercise the real multicore runtime and print per-worker stats \
          (subcommands: $(b,trace) runs the microbenchmark under the flight \
          recorder, $(b,serve) serves real TCP traffic, $(b,top) watches a \
          serving instance live over its admin endpoint, $(b,loadgen) drives \
          a server, $(b,chaos) runs the fault-injection drill, $(b,soak) \
          runs the long-soak self-healing gate).")
    [ trace_cmd; serve_cmd; top_cmd; loadgen_cmd; chaos_cmd; soak_cmd ]

let perf_gate_cmd =
  let dir n docv =
    Arg.(required & pos n (some dir) None & info [] ~docv ~doc:(docv ^ " result directory."))
  in
  Cmd.v
    (Cmd.info "perf-gate"
       ~doc:
         "A/B regression verdict over perfbench runs from the same host: \
          $(b,BASE) and $(b,CHANGE) each hold one $(i,W).jsonl per workload, \
          line $(i,i) the result line of pair $(i,i). Fails on any incorrect \
          run, a larger failed share, or a BENCHMARK.json end-to-end metric \
          worse than the base beyond its bound in every pair.")
    Term.(const run_perf_gate $ dir 0 "BASE" $ dir 1 "CHANGE")

let () =
  let doc = "Mely reproduction: workstealing for multicore event-driven systems" in
  let info = Cmd.info "melyctl" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info [ list_cmd; run_cmd; rt_cmd; perf_gate_cmd ]))
