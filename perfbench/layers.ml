(* Per-layer numbers read from the system's public counters, and the
   paper's Table I taken from the flight recorder's spans. *)

(* ------------------------------------------------------------------ *)
(* Runtime counters: a snapshot before and after a phase. *)

type rt_snap = {
  executed : int array;  (** per worker *)
  parks : int;
  park_s : float;
  service_ns : int;
  qwait_ns : int;
  steals : int;  (** color-queues stolen *)
  wins : int;  (** winning probes ([steals] counts each queue of a batch) *)
  attempts : int;  (** steal rounds *)
}

let rt_snap rt =
  let s = Rt.Runtime.telemetry_snapshot rt in
  let ws = s.Rt.Telemetry.s_workers in
  let sum f = Array.fold_left (fun acc (w : Rt.Telemetry.worker_snap) -> acc + f w) 0 ws in
  {
    executed = Array.map (fun (w : Rt.Telemetry.worker_snap) -> w.w_metrics.executed) ws;
    parks = sum (fun w -> w.w_metrics.parks);
    park_s = Array.fold_left (fun acc (w : Rt.Telemetry.worker_snap) -> acc +. w.w_metrics.park_seconds) 0.0 ws;
    service_ns = sum (fun w -> w.w_service_sum_ns);
    qwait_ns = sum (fun w -> w.w_qwait_sum_ns);
    steals = s.s_steals;
    wins = sum (fun w -> w.w_metrics.steals_in - w.w_metrics.batch_extra);
    attempts = s.s_steal_attempts;
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [ops] completed in [wall_s] seconds between snapshots [a] and [b]. *)
let rt_metrics a b ~ops ~wall_s ~pending_peak =
  let executed = Array.map2 (fun x y -> y - x) a.executed b.executed in
  let total = float_of_int (Array.fold_left ( + ) 0 executed) in
  let fi = float_of_int in
  let ops = fi ops and workers = fi (Array.length executed) in
  let per_kop n = ratio (1000.0 *. fi n) ops in
  let hi = Array.fold_left max 0 executed and lo = Array.fold_left min max_int executed in
  [
    ("rt.steals", fi (b.steals - a.steals), "count");
    ("rt.steal_attempts", fi (b.attempts - a.attempts), "count");
    ("rt.steal_success_ratio", ratio (fi (b.wins - a.wins)) (fi (b.attempts - a.attempts)), "ratio");
    ("rt.steals_per_kop", per_kop (b.steals - a.steals), "count");
    ("rt.imbalance", ratio (fi hi) (fi (max lo 1)), "ratio");
    ("rt.parks_per_kop", per_kop (b.parks - a.parks), "count");
    ("rt.park_share", ratio (b.park_s -. a.park_s) (workers *. wall_s), "ratio");
    ("rt.busy_ratio", ratio (fi (b.service_ns - a.service_ns)) (workers *. wall_s *. 1e9), "ratio");
    ("rt.events_per_op", ratio total ops, "ratio");
    ("rt.qwait_mean_us", ratio (fi (b.qwait_ns - a.qwait_ns)) (total *. 1e3), "us");
    ("rt.service_mean_us", ratio (fi (b.service_ns - a.service_ns)) (total *. 1e3), "us");
    ("rt.pending_peak", fi pending_peak, "count");
  ]

let service_ns a b = float_of_int (b.service_ns - a.service_ns)

(* ------------------------------------------------------------------ *)
(* Front-end counters. *)

type net_snap = { st : Rtnet.Server.stats; alloc : int; reused : int }

let net_snap server =
  let alloc, reused = Rtnet.Server.bufpool_stats server in
  { st = Rtnet.Server.stats server; alloc; reused }

let net_metrics a b =
  let d f = float_of_int (f b.st - f a.st) in
  let reused = float_of_int (b.reused - a.reused) in
  let checkouts = reused +. float_of_int (b.alloc - a.alloc) in
  [
    ("rtnet.reqs_parsed", d (fun s -> s.Rtnet.Server.reqs_parsed), "count");
    ("rtnet.reqs_served", d (fun s -> s.Rtnet.Server.reqs_served), "count");
    ("rtnet.reqs_shed", d (fun s -> s.Rtnet.Server.reqs_shed), "count");
    ("rtnet.reqs_failed", d (fun s -> s.Rtnet.Server.reqs_failed), "count");
    ("rtnet.bufpool_reuse_ratio", ratio reused checkouts, "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Table I on real domains, from each worker's Visit and Exec spans.

   - probe: a Visit that directly follows an Exec or a Park on the same
     worker costs the time since that span ended: the dry pop plus one
     probe, with no idle backoff inside the interval. Median over such
     visits.
   - stolen work: after a winning Visit, the worker runs the stolen
     queues; the service time of its Execs up to its next Visit or Park
     is that steal's stolen work. Mean over winning visits, as the
     paper averages.
   - worth: stolen work over probe cost. Above 1, the steal paid for
     its probe. *)

let table1 tr =
  let probes = Samples.create 1024 and stolen = Samples.create 1024 in
  for w = 0 to Rt.Trace.workers tr - 1 do
    let prev = ref `None and acc = ref None in
    let close () =
      Option.iter (Samples.add stolen) !acc;
      acc := None
    in
    List.iter
      (fun span ->
        match span with
        | Rt.Trace.Exec e ->
          acc := Option.map (fun s -> s +. Int64.to_float (Int64.sub e.x_end e.x_start)) !acc;
          prev := `Idle_from e.x_end
        | Rt.Trace.Visit v ->
          close ();
          (match !prev with
          | `Idle_from t -> Samples.add probes (Int64.to_float (Int64.sub v.v_ns t))
          | `None -> ());
          if v.v_outcome = Rt.Trace.Won then acc := Some 0.0;
          prev := `None
        | Rt.Trace.Park p ->
          close ();
          prev := `Idle_from p.p_end
        | _ -> ())
      (Rt.Trace.spans tr w);
    close ()
  done;
  let probe_ns = Samples.median probes and stolen_ns = Samples.mean stolen in
  ( [
      ("rt.steal_probe_ns", probe_ns, "ns");
      ("rt.stolen_work_us", stolen_ns /. 1e3, "us");
      ("rt.steal_worth_ratio", ratio stolen_ns probe_ns, "ratio");
    ],
    Samples.count probes,
    Samples.count stolen )
