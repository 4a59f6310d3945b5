(** Always-on online stats plane: per-worker single-writer shards,
    snapshottable at any instant without stopping writers. It is the
    runtime's only stats substrate — every per-worker counter lives
    here, and runtime totals are sums or maxima over the shards.

    Each worker owns one shard and records into it with plain stores —
    no lock, no atomic RMW on the hot path. Counters are monotone and
    histogram buckets grow-only, so a concurrent reader can
    under-observe the newest events but never reads a torn or
    decreasing value: two back-to-back snapshots bracket the live
    counters.

    Streaming windows: one global epoch counter, bumped by
    {!swap_window}, selects which of two buffers each histogram's
    writer records into; {!sample} returns both the cumulative
    distribution and the last closed window. *)

type t

(** One worker's counters. The live record returned by {!counters} is
    written only by that worker's domain (plain stores); snapshots hand
    out copies. *)
type counters = {
  mutable executed : int;  (** events this worker ran *)
  mutable max_same_color : int;
      (** largest same-color concurrency this worker observed when it
          started an event; mutual exclusion requires it to stay <= 1 *)
  mutable enqueued : int;
      (** handler follow-ups this worker published (publisher side; the
          external share of accepted events is executed + pending +
          abandoned minus the sum over workers) *)
  mutable steals_in : int;  (** color-queues this worker stole *)
  mutable steals_out : int;
      (** color-queues stolen from this worker: derived at snapshot
          time from the steal matrix's column; the live record keeps 0 *)
  mutable batch_extra : int;
      (** color-queues claimed beyond the first in one winning probe.
          Always 0: a probe claims exactly one queue, so [steals_in] is
          the number of winning probes. Kept so readers of
          [steals_in - batch_extra] stay valid. *)
  mutable steal_rounds : int;  (** steal rounds this worker started *)
  mutable failed_attempts : int;  (** steal rounds that found no victim *)
  mutable visits : int;
      (** individual victims probed across all steal rounds; with the
          per-visit trace spans this makes locality ordering auditable *)
  mutable parks : int;  (** times the worker parked on the idle condition *)
  mutable park_seconds : float;  (** total wall-clock time spent parked *)
  mutable parked_now : bool;  (** asleep on the idle condition right now *)
  mutable queue_hwm : int;
      (** largest backlog of any color-queue at the moment this worker
          made it current (deque pop or steal claim), read exactly by
          the new owner *)
  mutable errors : int;  (** handler invocations that raised on this worker *)
  mutable last_error : (string * string) option;
      (** most recent failure as [(handler name, exception text)] *)
  mutable sheds : int;
      (** requests this worker refused with a 503 load shed
          ({!Runtime.note_shed}) *)
  mutable evictions : int;
      (** connection evictions this worker carried out
          ({!Runtime.note_evict}) *)
}

val create : workers:int -> t
val workers : t -> int

val epoch : t -> int
(** Current window epoch (starts at 1). *)

val swap_window : t -> unit
(** Close the current window and open a fresh one. Any reader may call
    this; writers notice the epoch change on their next record. *)

val counters : t -> worker:int -> counters
(** The live counters of worker [worker]. Only that worker's domain may
    write them; any domain may read them racily. *)

val on_exec : t -> worker:int -> qwait_ns:int -> service_ns:int -> unit
(** Record one executed event: bumps [executed] and records queue wait
    (enqueue to start of run) and service time. Must be called by
    worker [worker]'s own domain. *)

val on_steal : t -> thief:int -> victim:int -> unit
(** Record a won steal of one color-queue: the worker×victim matrix
    cell and [steals_in]. Must be called by the thief's domain (each
    row is single-writer). *)

(** Racy-read-safe copies of one worker's shard. *)
type sample = {
  counters : counters;  (** copy; [steals_out] is 0 *)
  qwait : Mstd.Histogram.t;  (** cumulative queue-wait, ns *)
  service : Mstd.Histogram.t;  (** cumulative service time, ns *)
  qwait_win : Mstd.Histogram.t;  (** last closed window *)
  service_win : Mstd.Histogram.t;
  qwait_sum_ns : int;
  service_sum_ns : int;
      (** also the worker's busy time: utilization over an interval is
          (delta service_sum_ns) / (wall ns) *)
  steals_from : int array;  (** matrix row: wins against each victim *)
}

val sample : t -> worker:int -> sample

(** {1 Full-plane snapshot}

    Assembled by {!Runtime.telemetry_snapshot}, which owns the worker
    states and the gate and supervision counters; the types live here
    so consumers (rtnet's admin endpoint, melyctl) need only
    [Telemetry]. *)

type worker_snap = {
  w_id : int;
  w_metrics : counters;  (** copy, with [steals_out] filled in *)
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

(** [s_executed], [s_steals], [s_steal_attempts] and [s_errors] are the
    sums of the per-worker [executed], [steals_in], [steal_rounds] and
    [errors] in [s_workers], so they agree with them exactly. *)
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
