(* Rendering for the admin endpoint: the runtime's telemetry snapshot
   plus the server's per-shard counters, as Prometheus text exposition
   (/metrics) and a full structured snapshot (/stats.json).

   Pure data-in, string-out — [Server] builds the [net] view from its
   counters and calls these; nothing here touches sockets, so the
   formats are unit-testable without a running server. *)

type net = {
  n_port : int;
  n_admin_port : int;
  n_live : int;
  n_draining : bool;
  n_faults_injected : int;
  n_shards : Net_stats.stats array;  (** index [i] for shard [i] *)
}

let ilbl i = string_of_int i

(* The two counters are read racily, one after the other, so their
   difference can transiently go negative: clamp. *)
let conns_open (s : Net_stats.stats) = max 0 (s.conns_accepted - s.conns_closed)

(* ---------------------------------------------------------------- *)
(* GET /metrics — Prometheus text exposition 0.0.4. *)

let metrics_text (rt : Rt.Telemetry.snapshot) (net : net) =
  let p = Mstd.Prometheus.create () in
  let counter = Mstd.Prometheus.counter p in
  let gauge = Mstd.Prometheus.gauge p in
  (* Runtime globals. *)
  counter ~name:"mely_runtime_executed_total" ~help:"Events executed" rt.s_executed;
  counter ~name:"mely_runtime_steals_total" ~help:"Color-queues stolen" rt.s_steals;
  counter ~name:"mely_runtime_steal_attempts_total" ~help:"Steal rounds attempted"
    rt.s_steal_attempts;
  counter ~name:"mely_runtime_refused_total"
    ~help:"Registers refused by the shutdown gate" rt.s_refused;
  counter ~name:"mely_runtime_errors_total" ~help:"Handler invocations that raised"
    rt.s_errors;
  gauge ~name:"mely_runtime_pending" ~help:"Accepted events not yet executed"
    (float_of_int rt.s_pending);
  gauge ~name:"mely_runtime_active" ~help:"Events executing right now"
    (float_of_int rt.s_active);
  gauge ~name:"mely_runtime_accepting"
    ~help:"1 while the shutdown gate accepts registers, 0 once draining"
    (if rt.s_accepting then 1.0 else 0.0);
  (* Self-healing plane. *)
  gauge ~name:"mely_runtime_live_workers"
    ~help:"Worker slots with a running domain" (float_of_int rt.s_live_workers);
  gauge ~name:"mely_runtime_degraded"
    ~help:"1 once any worker slot is down (its domain died, or a wedged \
           domain was confiscated)"
    (if rt.s_degraded then 1.0 else 0.0);
  counter ~name:"mely_runtime_migrations_total"
    ~help:"Color-queues re-homed off failed workers" rt.s_migrations;
  counter ~name:"mely_runtime_reclaimed_colors_total"
    ~help:"Color-queues swept from failed slots" rt.s_reclaimed;
  counter ~name:"mely_runtime_abandoned_total"
    ~help:"Accepted events dropped when a wedged slot was confiscated"
    rt.s_abandoned;
  gauge ~name:"mely_telemetry_epoch" ~help:"Streaming-window epoch"
    (float_of_int rt.s_epoch);
  gauge ~name:"mely_runtime_worthy_threshold"
    ~help:"Steal-worthiness bar (weighted declared cycles)"
    (float_of_int rt.s_worthy_threshold);
  (* Per-worker series. *)
  Array.iter
    (fun (w : Rt.Telemetry.worker_snap) ->
      let labels = [ ("worker", ilbl w.w_id) ] in
      let m = w.w_metrics in
      counter ~name:"mely_worker_executed_total" ~help:"Events executed by worker"
        ~labels m.executed;
      counter ~name:"mely_worker_enqueued_total"
        ~help:"Handler follow-ups published by worker (publisher side)" ~labels
        m.enqueued;
      counter ~name:"mely_worker_steals_in_total" ~help:"Color-queues worker stole"
        ~labels m.steals_in;
      counter ~name:"mely_worker_steals_out_total"
        ~help:"Color-queues stolen from worker" ~labels m.steals_out;
      counter ~name:"mely_worker_failed_steal_rounds_total"
        ~help:"Steal rounds that found no victim" ~labels m.failed_attempts;
      counter ~name:"mely_worker_victim_visits_total"
        ~help:"Victims probed across steal rounds" ~labels m.visits;
      counter ~name:"mely_worker_parks_total" ~help:"Times worker parked idle"
        ~labels m.parks;
      counter ~name:"mely_worker_errors_total" ~help:"Handler failures on worker"
        ~labels m.errors;
      counter ~name:"mely_worker_sheds_total" ~help:"503 load sheds by worker"
        ~labels m.sheds;
      counter ~name:"mely_worker_evictions_total"
        ~help:"Deadline evictions carried out by worker" ~labels m.evictions;
      gauge ~name:"mely_worker_park_seconds_total"
        ~help:"Wall-clock seconds spent parked" ~labels m.park_seconds;
      gauge ~name:"mely_worker_parked" ~help:"1 while parked on the idle condition"
        ~labels (if m.parked_now then 1.0 else 0.0);
      gauge ~name:"mely_worker_inbox_depth"
        ~help:"Colors currently chained to worker" ~labels
        (float_of_int w.w_inbox_depth);
      gauge ~name:"mely_worker_live" ~help:"1 while a domain runs this slot"
        ~labels
        (if w.w_live then 1.0 else 0.0);
      gauge ~name:"mely_worker_heartbeat_age_seconds"
        ~help:"Seconds since the slot's last event-boundary heartbeat" ~labels
        (float_of_int w.w_hb_age_ns /. 1e9);
      gauge ~name:"mely_worker_inflight_seconds"
        ~help:"Seconds the current handler has been executing (0 when idle)"
        ~labels
        (float_of_int w.w_busy_ns /. 1e9);
      gauge ~name:"mely_worker_busy_seconds_total"
        ~help:"Seconds spent executing handlers" ~labels
        (float_of_int w.w_service_sum_ns /. 1e9);
      (* Spot quantiles so a bare curl shows the tails without a
         Prometheus server doing histogram_quantile. *)
      gauge ~name:"mely_worker_queue_wait_p50_ns"
        ~help:"Cumulative queue-wait p50 (bucket upper bound)" ~labels
        (Mstd.Histogram.quantile w.w_qwait 0.5);
      gauge ~name:"mely_worker_queue_wait_p99_ns"
        ~help:"Cumulative queue-wait p99 (bucket upper bound)" ~labels
        (Mstd.Histogram.quantile w.w_qwait 0.99);
      Mstd.Prometheus.histogram p ~name:"mely_worker_queue_wait_ns"
        ~help:"Enqueue-to-start wait per event, ns" ~labels w.w_qwait;
      Mstd.Prometheus.histogram_sum p ~name:"mely_worker_queue_wait_ns" ~labels
        (float_of_int w.w_qwait_sum_ns);
      Mstd.Prometheus.histogram p ~name:"mely_worker_service_ns"
        ~help:"Handler service time per event, ns" ~labels w.w_service;
      Mstd.Prometheus.histogram_sum p ~name:"mely_worker_service_ns" ~labels
        (float_of_int w.w_service_sum_ns);
      (* Steal matrix: only non-zero cells, the matrix is sparse. *)
      Array.iteri
        (fun victim n ->
          if n > 0 then
            counter ~name:"mely_steals_won_total"
              ~help:"Won steals by thief from victim"
              ~labels:[ ("thief", ilbl w.w_id); ("victim", ilbl victim) ]
              n)
        w.w_steals_from)
    rt.s_workers;
  (* Net front end. *)
  gauge ~name:"mely_net_live_conns" ~help:"Connections accepted and not yet closed"
    (float_of_int net.n_live);
  gauge ~name:"mely_net_draining" ~help:"1 while the server drains"
    (if net.n_draining then 1.0 else 0.0);
  counter ~name:"mely_net_faults_injected_total"
    ~help:"Syscall faults injected by the fault plane" net.n_faults_injected;
  Array.iteri
    (fun i (s : Net_stats.stats) ->
      let labels = [ ("shard", ilbl i) ] in
      gauge ~name:"mely_net_shard_conns_open" ~help:"Open connections on shard"
        ~labels (float_of_int (conns_open s));
      counter ~name:"mely_net_shard_conns_accepted_total"
        ~help:"Connections accepted" ~labels s.conns_accepted;
      counter ~name:"mely_net_shard_conns_refused_total"
        ~help:"Connections refused while draining" ~labels s.conns_refused;
      counter ~name:"mely_net_shard_conns_closed_total" ~help:"Connections closed"
        ~labels s.conns_closed;
      counter ~name:"mely_net_shard_conns_failed_total"
        ~help:"Connections dropped on error" ~labels s.conns_failed;
      counter ~name:"mely_net_shard_wheel_evictions_total"
        ~help:"Deadline evictions (slow-loris 408, idle, write stall)" ~labels
        s.conns_evicted;
      counter ~name:"mely_net_shard_reqs_parsed_total" ~help:"Requests parsed"
        ~labels s.reqs_parsed;
      counter ~name:"mely_net_shard_reqs_served_total" ~help:"Responses served"
        ~labels s.reqs_served;
      counter ~name:"mely_net_shard_reqs_failed_total"
        ~help:"Requests failed (500 or dead conn)" ~labels s.reqs_failed;
      counter ~name:"mely_net_shard_reqs_shed_total"
        ~help:"Requests shed under overload (503)" ~labels s.reqs_shed;
      counter ~name:"mely_net_shard_reqs_malformed_total"
        ~help:"Requests rejected as malformed (400)" ~labels s.reqs_malformed;
      counter ~name:"mely_net_shard_reqs_too_large_total"
        ~help:"Requests rejected as oversized (431)" ~labels s.reqs_too_large;
      counter ~name:"mely_net_shard_injections_refused_total"
        ~help:"Poller registers refused by the runtime gate" ~labels
        s.injections_refused;
      counter ~name:"mely_net_shard_accept_errors_total" ~help:"Accept failures"
        ~labels s.accept_errors;
      counter ~name:"mely_net_shard_accept_backoffs_total"
        ~help:"Acceptor backoff windows entered" ~labels s.accept_backoffs)
    net.n_shards;
  Mstd.Prometheus.contents p

(* ---------------------------------------------------------------- *)
(* GET /stats.json — the full snapshot, histogram buckets included. *)

let hist_json ?sum_ns h =
  let open Mstd.Json in
  let buckets =
    List.rev
      (Mstd.Histogram.fold
         (fun i c acc ->
           let lo, hi = Mstd.Histogram.bucket_range h i in
           List [ Num lo; Num hi; int c ] :: acc)
         h [])
  in
  let base =
    [
      ("count", int (Mstd.Histogram.count h));
      ("p50_ns", Num (Mstd.Histogram.quantile h 0.5));
      ("p90_ns", Num (Mstd.Histogram.quantile h 0.9));
      ("p99_ns", Num (Mstd.Histogram.quantile h 0.99));
      ("buckets", List buckets);
    ]
  in
  Obj (match sum_ns with None -> base | Some s -> ("sum_ns", int s) :: base)

let worker_json (w : Rt.Telemetry.worker_snap) =
  let open Mstd.Json in
  let m = w.w_metrics in
  Obj
    [
      ("id", int w.w_id);
      ("executed", int m.executed);
      ("enqueued", int m.enqueued);
      ("steals_in", int m.steals_in);
      ("steals_out", int m.steals_out);
      ("failed_steal_rounds", int m.failed_attempts);
      ("victim_visits", int m.visits);
      ("parks", int m.parks);
      ("park_seconds", Num m.park_seconds);
      ("parked", Bool m.parked_now);
      ("queue_hwm", int m.queue_hwm);
      ("errors", int m.errors);
      ("sheds", int m.sheds);
      ("evictions", int m.evictions);
      ("inbox_depth", int w.w_inbox_depth);
      ("current_color", int w.w_current_color);
      ("busy_ns", int w.w_service_sum_ns);
      ("live", Bool w.w_live);
      ("phase", Str (Rt.Supervision.phase_name w.w_phase));
      ("heartbeat_age_ns", int w.w_hb_age_ns);
      ("inflight_ns", int w.w_busy_ns);
      ("queue_wait", hist_json ~sum_ns:w.w_qwait_sum_ns w.w_qwait);
      ("queue_wait_window", hist_json w.w_qwait_win);
      ("service", hist_json ~sum_ns:w.w_service_sum_ns w.w_service);
      ("service_window", hist_json w.w_service_win);
      ("steals_from", List (Array.to_list (Array.map int w.w_steals_from)));
    ]

let shard_json i (s : Net_stats.stats) =
  let open Mstd.Json in
  Obj
    [
      ("id", int i);
      ("conns_open", int (conns_open s));
      ("accepted", int s.conns_accepted);
      ("refused", int s.conns_refused);
      ("closed", int s.conns_closed);
      ("failed", int s.conns_failed);
      ("evicted", int s.conns_evicted);
      ("parsed", int s.reqs_parsed);
      ("served", int s.reqs_served);
      ("req_failed", int s.reqs_failed);
      ("malformed", int s.reqs_malformed);
      ("too_large", int s.reqs_too_large);
      ("shed", int s.reqs_shed);
      ("inj_refused", int s.injections_refused);
      ("accept_errors", int s.accept_errors);
      ("accept_backoffs", int s.accept_backoffs);
    ]

let stats_json (rt : Rt.Telemetry.snapshot) (net : net) =
  let open Mstd.Json in
  to_string
    (Obj
       [
         ("epoch", int rt.s_epoch);
         ( "runtime",
           Obj
             [
               ("workers", int (Array.length rt.s_workers));
               ("executed", int rt.s_executed);
               ("pending", int rt.s_pending);
               ("active", int rt.s_active);
               ("steals", int rt.s_steals);
               ("steal_attempts", int rt.s_steal_attempts);
               ("refused", int rt.s_refused);
               ("errors", int rt.s_errors);
               ("serving", Bool rt.s_serving);
               ("accepting", Bool rt.s_accepting);
               ("worthy_threshold", int rt.s_worthy_threshold);
               ("live_workers", int rt.s_live_workers);
               ("degraded", Bool rt.s_degraded);
               ("migrations", int rt.s_migrations);
               ("reclaimed", int rt.s_reclaimed);
               ("abandoned", int rt.s_abandoned);
             ] );
         ("workers", List (Array.to_list (Array.map worker_json rt.s_workers)));
         ( "net",
           Obj
             [
                        ("port", int net.n_port);
               ("admin_port", int net.n_admin_port);
               ("live", int net.n_live);
               ("draining", Bool net.n_draining);
               ("faults_injected", int net.n_faults_injected);
               ("shards", List (Array.to_list (Array.mapi shard_json net.n_shards)));
             ] );
       ])
