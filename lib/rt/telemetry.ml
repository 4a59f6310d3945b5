(* Always-on online stats plane — the runtime's only stats substrate.

   One shard per worker, written only by the owning worker domain: the
   hot-path records are plain stores into caches the worker already
   owns (no RMW, no lock). Readers snapshot at any instant without
   stopping writers — monotone counters and grow-only histogram buckets
   make racy reads safe: a reader can under-observe the newest events
   but never sees a torn or decreasing value.

   Windowing: a single global epoch counter (bumped by [swap_window])
   selects which of two per-histogram buffers writers record into;
   readers take the last *closed* buffer. See {!Mstd.Histogram.Windowed}. *)

(* The per-event fields come first: a neighbouring worker's record may
   share the cache line holding this record's tail, which the owner
   only touches on rare events. *)
type counters = {
  mutable executed : int;
  mutable max_same_color : int;
  mutable enqueued : int;
  mutable steals_in : int;
  mutable steals_out : int;
  mutable batch_extra : int;
  mutable steal_rounds : int;
  mutable failed_attempts : int;
  mutable visits : int;
  mutable parks : int;
  mutable park_seconds : float;
  mutable parked_now : bool;
  mutable queue_hwm : int;
  mutable errors : int;
  mutable last_error : (string * string) option;
  mutable sheds : int;
  mutable evictions : int;
}

type shard = {
  c : counters;
  qwait : Mstd.Histogram.Windowed.t;  (** queue wait, ns *)
  service : Mstd.Histogram.Windowed.t;  (** handler service time, ns *)
  steals_from : int array;  (** row of the worker×victim steal matrix *)
  mutable qwait_sum_ns : int;
  mutable service_sum_ns : int;
      (** [service_sum_ns] doubles as busy-time: worker utilization over
          an interval is (delta service_sum_ns) / (wall ns). *)
}

type t = {
  epoch : int Atomic.t;
  shards : shard array;
}

(* 48 base-2 buckets cover 1 ns .. ~2^48 ns (~3 days) — every latency
   the runtime can plausibly observe. *)
let histogram_buckets = 48

let zero_counters () =
  {
    executed = 0;
    max_same_color = 0;
    enqueued = 0;
    steals_in = 0;
    steals_out = 0;
    batch_extra = 0;
    steal_rounds = 0;
    failed_attempts = 0;
    visits = 0;
    parks = 0;
    park_seconds = 0.0;
    parked_now = false;
    queue_hwm = 0;
    errors = 0;
    last_error = None;
    sheds = 0;
    evictions = 0;
  }

let create ~workers =
  {
    (* Epoch starts at 1 so the pre-first-swap window (buffer parity 0)
       reads empty, not garbage. *)
    epoch = Atomic.make 1;
    shards =
      Array.init workers (fun _ ->
          {
            c = zero_counters ();
            qwait = Mstd.Histogram.Windowed.create ~buckets:histogram_buckets ();
            service = Mstd.Histogram.Windowed.create ~buckets:histogram_buckets ();
            steals_from = Array.make workers 0;
            qwait_sum_ns = 0;
            service_sum_ns = 0;
          });
  }

let workers t = Array.length t.shards
let epoch t = Atomic.get t.epoch
let swap_window t = Atomic.incr t.epoch
let counters t ~worker = t.shards.(worker).c

(* Hot path; called by worker [worker] only (single writer). *)
let on_exec t ~worker ~qwait_ns ~service_ns =
  let s = t.shards.(worker) in
  let epoch = Atomic.get t.epoch in
  Mstd.Histogram.Windowed.add_int s.qwait ~epoch qwait_ns;
  Mstd.Histogram.Windowed.add_int s.service ~epoch service_ns;
  s.qwait_sum_ns <- s.qwait_sum_ns + qwait_ns;
  s.service_sum_ns <- s.service_sum_ns + service_ns;
  s.c.executed <- s.c.executed + 1

(* Called by the thief; it writes its own matrix row and counters, so
   the matrix is single-writer per row like everything else in the
   shard. A winning probe claims exactly one color-queue. *)
let on_steal t ~thief ~victim =
  let s = t.shards.(thief) in
  s.steals_from.(victim) <- s.steals_from.(victim) + 1;
  s.c.steals_in <- s.c.steals_in + 1

type sample = {
  counters : counters;
  qwait : Mstd.Histogram.t;
  service : Mstd.Histogram.t;
  qwait_win : Mstd.Histogram.t;
  service_win : Mstd.Histogram.t;
  qwait_sum_ns : int;
  service_sum_ns : int;
  steals_from : int array;
}

let sample t ~worker =
  let s = t.shards.(worker) in
  let epoch = Atomic.get t.epoch in
  {
    counters = { s.c with executed = s.c.executed };
    qwait = Mstd.Histogram.Windowed.cumulative s.qwait;
    service = Mstd.Histogram.Windowed.cumulative s.service;
    qwait_win = Mstd.Histogram.Windowed.window s.qwait ~epoch;
    service_win = Mstd.Histogram.Windowed.window s.service ~epoch;
    qwait_sum_ns = s.qwait_sum_ns;
    service_sum_ns = s.service_sum_ns;
    steals_from = Array.copy s.steals_from;
  }

(* Full-plane snapshot assembled by {!Runtime.telemetry_snapshot}: the
   runtime owns the worker states and the gate/supervision counters, so
   it fills these records; the types live here so consumers (rtnet
   admin, melyctl) depend on [Telemetry] alone. *)

type worker_snap = {
  w_id : int;
  w_metrics : counters;
  w_inbox_depth : int;  (** colors currently chained to this worker *)
  w_current_color : int;  (** color being drained; -1 = idle *)
  w_qwait_sum_ns : int;
  w_service_sum_ns : int;
  w_qwait : Mstd.Histogram.t;
  w_service : Mstd.Histogram.t;
  w_qwait_win : Mstd.Histogram.t;
  w_service_win : Mstd.Histogram.t;
  w_steals_from : int array;
  w_live : bool;  (** a worker domain is currently running this slot *)
  w_phase : Supervision.phase;  (** supervision state at snapshot *)
  w_hb_age_ns : int;
      (** ns since the slot's last heartbeat (event boundary); large
          while idle or wedged — read with [w_busy_ns] to tell apart *)
  w_busy_ns : int;
      (** ns the current handler has been executing; 0 when idle *)
}

type snapshot = {
  s_epoch : int;
  s_workers : worker_snap array;
  s_executed : int;
  s_pending : int;
  s_active : int;
  s_steals : int;
  s_steal_attempts : int;
  s_refused : int;
  s_errors : int;
  s_serving : bool;
  s_accepting : bool;  (** shutdown gate open (false once draining) *)
  s_worthy_threshold : int;  (** worthiness bar, {!Mely.steal_cost_prior} *)
  s_live_workers : int;  (** slots with a running worker domain *)
  s_degraded : bool;
      (** some slot is Dead (its domain died) or Lost (a wedged domain
          was confiscated): the runtime serves at reduced width *)
  s_migrations : int;  (** color-queues re-homed off failed workers *)
  s_reclaimed : int;  (** color-queues swept from failed slots *)
  s_abandoned : int;
      (** accepted events dropped during force-confiscation of a wedged
          slot; conservation counts them alongside executed/refused *)
}
