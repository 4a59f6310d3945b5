(** Always-on flight recorder for the real multicore runtime.

    Enabled per-runtime at {!Runtime.create} via [?trace]. Each worker
    owns a fixed-capacity ring of spans written only by that worker's
    domain — recording is an unsynchronized array store stamped with
    {!Clock} nanoseconds, cheap enough to leave on while serving. When
    the ring is full the oldest span is overwritten and counted in
    {!dropped}.

    Read the rings only after the worker domains have been joined (or
    at a quiescent moment): the join provides the happens-before edge
    for the unsynchronized writes. *)

(** One retained event execution. *)
type exec = {
  x_handler : string;
  x_color : int;
  x_seq : int;
      (** global push order, assigned under the color's shard lock at
          publish time; within a color this is FIFO order *)
  x_enq : int64;  (** enqueue timestamp (ns); queue wait is [x_start - x_enq] *)
  x_start : int64;  (** handler start (ns) *)
  x_end : int64;  (** handler end (ns); service time is [x_end - x_start] *)
}

(** Outcome of visiting one victim during a steal round. In the
    lock-free runtime a lost steal race shows up as [Empty] or
    [Unworthy] — there is no lock to find busy. *)
type visit_outcome =
  | Won  (** a color-queue was stolen *)
  | Empty  (** the victim had no queued events *)
  | Unworthy  (** candidates existed but none passed the worthiness bar *)
  | Executing  (** the only worthy candidates were the victim's current color *)
  | Quiet
      (** not probed: the victim's worthy-work advert had not moved
          since this thief's last complete failed scan of it *)

val visit_outcome_name : visit_outcome -> string

type span =
  | Exec of exec
  | Visit of {
      v_victim : int;
      v_outcome : visit_outcome;
      v_ns : int64;
    }
  | Park of { p_start : int64; p_end : int64 }
  | Start of { s_ns : int64 }
      (** the worker's loop began (one per epoch); guarantees every
          worker leaves at least one span, and makes late domain
          startup on oversubscribed hosts visible in the trace *)
  | Shed of { sh_color : int; sh_ns : int64 }
      (** overload armor refused work for this color: the serving stack
          answered 503 instead of queueing past its in-flight budget *)
  | Evict of { ev_color : int; ev_ns : int64 }
      (** a per-connection deadline fired and this color's connection
          was evicted (slow-loris 408) *)
  | Death of { d_reason : string; d_ns : int64 }
      (** this worker's domain died (escape past the execute boundary,
          deliberate kill, or a zombie's exit after confiscation) —
          recorded by the dying domain itself, keeping the ring
          single-writer; the supervisor then reclaims the slot's colors
          and the runtime runs degraded *)

type config = {
  capacity : int;  (** spans retained per worker ring *)
  histograms : bool;  (** also feed per-handler latency histograms *)
}

val default_config : config
(** 65536 spans per worker, histograms on. *)

type t

val create : workers:int -> config -> t
val workers : t -> int
val capacity : t -> int
val histograms_enabled : t -> bool

val next_seq : t -> int
(** Next global sequence number (used by the runtime at push time). *)

(** {1 Recording} — called by the owning worker's domain only. *)

val record_exec :
  t ->
  worker:int ->
  handler:string ->
  color:int ->
  seq:int ->
  enq_ns:int64 ->
  start_ns:int64 ->
  end_ns:int64 ->
  unit

val record_visit :
  t -> worker:int -> victim:int -> outcome:visit_outcome -> ns:int64 -> unit
val record_park : t -> worker:int -> start_ns:int64 -> end_ns:int64 -> unit
val record_start : t -> worker:int -> ns:int64 -> unit
val record_shed : t -> worker:int -> color:int -> ns:int64 -> unit
val record_evict : t -> worker:int -> color:int -> ns:int64 -> unit
val record_death : t -> worker:int -> reason:string -> ns:int64 -> unit

(** {1 Offline access} *)

val spans : t -> int -> span list
(** Retained spans of worker [w], oldest first. *)

val span_count : t -> int -> int

val dropped : t -> int -> int
(** Spans of worker [w] overwritten after its ring filled. *)

val total_dropped : t -> int

val execs : t -> (int * exec) list
(** Every retained execution span as [(worker, exec)]. *)

(** {1 Replay checking} — {!Mely.check_mutual_exclusion} and
    {!Mely.check_fifo_per_color}, the pair the simulator's
    {!Engine.Trace} also calls, over the retained exec spans. *)

type violation = { va : int * exec; vb : int * exec }

val check_mutual_exclusion : t -> violation option
(** [None] iff no two retained same-color executions overlap in time. *)

val check_fifo_per_color : t -> violation option
(** [None] iff, per color, execution order respects push ([x_seq])
    order. Ring overflow drops oldest spans only, so it cannot turn a
    correct trace into a violating one. *)

(** {1 Latency histograms} — per handler, log-bucketed
    ({!Mstd.Histogram}), merged across workers. *)

type latency = {
  l_handler : string;
  l_count : int;  (** executions observed *)
  l_qwait_p50 : float;  (** queue-wait percentiles, ns *)
  l_qwait_p99 : float;
  l_service_p50 : float;  (** service-time percentiles, ns *)
  l_service_p99 : float;
}

val latency_summary : t -> latency list
(** One entry per handler, sorted by name; empty when histograms were
    disabled or nothing executed. *)

(** {1 Export} *)

val export_chrome : ?pid:int -> t -> string
(** Chrome trace-event JSON (object format): one [pid] per runtime
    (default 0), one [tid] per worker; executions and parks as ["X"]
    duration events, steal visits as ["i"] instants. Open the file at
    ui.perfetto.dev or chrome://tracing. *)
