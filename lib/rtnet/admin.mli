(** Rendering for the admin endpoint: Prometheus text exposition
    ([GET /metrics]) and the full structured snapshot
    ([GET /stats.json]) over a {!Rt.Telemetry.snapshot} plus the
    server's per-shard counter view.

    Pure data-in, string-out: {!Server} assembles the {!net} view and
    calls these, so both formats are unit-testable without sockets. *)

type net = {
  n_port : int;
  n_admin_port : int;
  n_live : int;
  n_draining : bool;
  n_faults_injected : int;
  n_shards : Net_stats.stats array;  (** index [i] for shard [i] *)
}

val metrics_text : Rt.Telemetry.snapshot -> net -> string
(** Prometheus text exposition (format 0.0.4): runtime globals,
    per-worker counters/gauges + queue-wait and service-time
    histograms, the (sparse) steal matrix, per-shard net counters. *)

val stats_json : Rt.Telemetry.snapshot -> net -> string
(** Full snapshot as one JSON document, histogram buckets included. *)
