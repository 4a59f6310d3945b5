(** The Mely runtime on real parallelism: OCaml 5 domains.

    Same structure as the simulated {!Engine.Mely_sched} — per-color
    queues chained into per-worker queues, the locality / time-left /
    penalty heuristics — but executing real OCaml closures on one
    domain per worker. Event handlers must be non-blocking, exactly as
    in the paper; two events with the same color never run
    concurrently, events with different colors may.

    The hot path is lock-free: an owner pops events with one atomic
    load, publishers serialize per color on a sharded lock, and a thief
    migrates a whole color-queue with a single compare-and-set on the
    victim's {!Spmc_queue} — there is no per-worker lock.

    Intended use:
    {[
      let rt = Rt.Runtime.create ~workers:4 () in
      let h = Rt.Runtime.handler rt ~name:"hello" () in
      Rt.Runtime.register rt ~handler:h ~color:7 (fun ctx -> ...);
      Rt.Runtime.run_until_idle rt
    ]}

    [run_until_idle] starts the domains, processes every registered
    event (including events registered by handlers), and joins.

    For long-running servers use the serving lifecycle instead:
    {[
      Rt.Runtime.start rt;                  (* workers persist *)
      ... Rt.Runtime.try_register rt ... ;  (* from any thread *)
      Rt.Runtime.quiesce rt;                (* wait for drain *)
      Rt.Runtime.stop rt                    (* drain + join *)
    ]}

    Handler exceptions never kill a worker by accident: they are
    contained at the execution boundary, recorded in the executing
    worker's {!Telemetry.counters} (summed by {!errors}), and handled
    per the {!failure_policy} given to {!create}.

    Worker domains can still die (a bug past the containment boundary,
    or {!inject_worker_death} in a test) or wedge (a handler that does
    not return). A supervisor domain watches for both: it reclaims
    every color a dead slot held — inbox, steal deque, and the queue it
    was draining — and migrates them to survivors with the ownership
    hand-off ordered exactly like a steal, so per-color mutual
    exclusion and FIFO survive the failure. A dead slot is not
    respawned: the runtime runs degraded until the next {!start} or
    {!run_until_idle}. A wedged worker is quarantined; if its handler
    returns within the confirm window it resumes in place, otherwise
    its slot is confiscated. The supervisor sleeps until a death or
    {!stop} wakes it, or for a quarter of the warn deadline; see
    {!Supervision}. *)

type t
type handler

(** What to do when a handler raises. In every case the failure is
    counted ({!errors}, {!Telemetry.counters.errors}) with the handler
    name and exception text, the event still counts as executed, and
    the runtime's accounting stays intact. *)
type failure_policy =
  | Swallow  (** contain the failure; keep serving (default) *)
  | Stop_runtime
      (** abort: refuse further registers, workers exit without
          draining the backlog (inspect {!pending} for what was left);
          a serving runtime still needs {!stop} to join its domains *)

type ctx = {
  worker : int;  (** worker executing the handler *)
  register : ?color:int -> handler:handler -> (ctx -> unit) -> unit;
      (** register a follow-up event; [color] defaults to the default
          serial color 0 *)
}

val create :
  ?workers:int ->
  ?on_error:failure_policy ->
  ?trace:Trace.config ->
  ?supervision:Supervision.config ->
  unit ->
  t
(** [workers] defaults to [Domain.recommended_domain_count () - 1],
    at least 1. The steal decision is fixed and taken from {!Mely}: an
    idle worker probes victims in {!Mely.victim_order} over a
    synthetic cache tree of the workers (pairs share an L2, two pairs
    a package; nearest cache first, ties by ascending id), skipping one
    whose worthy-work advert has not moved since it last found nothing
    there, and claims one color-queue per winning probe, taking only a
    queue that is {!Mely.worthy} against {!Mely.steal_cost_prior}: its
    remaining weighted declared cycles — declared cycles as given to
    {!handler}, divided by its penalty ({!Mely.weight}) — exceed 2,000.
    An owner rotates a color after {!Mely.batch_threshold} events.
    [on_error] (default [Swallow])
    is the handler-failure policy. [trace] enables the {!Trace} flight
    recorder for the lifetime of the runtime (per-worker span rings,
    optional latency histograms); omitted, recording is compiled in but
    skipped behind one branch per event. [supervision] (default
    {!Supervision.default_config}) sets the supervisor's wedge
    deadlines. *)

val workers : t -> int

val handler :
  t -> name:string -> ?declared_cycles:int -> ?penalty:int -> unit -> handler
(** Declare a handler with its profiling annotations (the time-left and
    penalty heuristics read them, as in Section III). *)

val register : t -> ?color:int -> handler:handler -> (ctx -> unit) -> unit
(** Register an event: before or between runs, or — while serving —
    from any thread into the live runtime. Handlers register follow-ups
    through their {!ctx}. If the runtime is draining after {!stop},
    aborted by [Stop_runtime], or stopped, the event is refused and
    counted in {!refused} (use {!try_register} to observe refusal). *)

val try_register :
  t -> ?color:int -> ?home:int -> handler:handler -> (ctx -> unit) -> bool
(** Like {!register} but reports acceptance: [false] means the event
    was refused by the shutdown gate (and counted in {!refused}).

    [home] is a placement hint from the injector (e.g. a poller shard
    spreading its connections): if this event creates [color]'s queue,
    the queue starts owned by worker [home mod workers] instead of
    [color mod workers] (while the runtime is degraded, by the first
    live worker from there on). An existing queue keeps its owner —
    stealing, not hints, moves live queues. *)

val try_register_batch :
  t -> ?home:int -> (int * handler * (ctx -> unit)) list -> bool
(** Inject a batch of events — [(color, handler, run)] in list order,
    so two events of the same color keep their relative order — with
    one shutdown-gate decision for the whole batch. As with single
    registers, only a parked worker handed a queue is woken (once),
    plus one parked sibling when a worthy queue lands on a busy
    worker. All-or-nothing: [false] means the gate refused
    every event in the batch (each counted in {!refused}). [home] as
    in {!try_register}, applied to every queue the batch creates.
    Conservation is per event, exactly as if each had gone through
    {!try_register}. *)

val run_until_idle : t -> unit
(** Spawn the worker domains, drain every event, join. Raises
    [Invalid_argument] if the runtime is already running. Can be called
    again after it returns.

    An idle worker never spins: once a steal round finds no sibling
    advertising worthy work it parks on its own condition variable,
    even while unstealable work is pending elsewhere. It is woken when
    a queue is handed to it, when a sibling advertises a worthy queue
    with it first in line, or at shutdown and quiescence. *)

(** {1 Serving lifecycle}

    [start] spawns worker domains that persist across quiescent
    periods: when the runtime drains, workers park instead of exiting,
    and external threads keep injecting events with {!register} /
    {!try_register}. [stop] drains gracefully — it closes the gate to
    external registers (refusals are counted), lets in-flight handlers
    finish their chains, waits for the backlog to drain, and joins the
    domains. [quiesce] blocks until a moment with no queued and no
    executing events, without stopping — only meaningful while the
    runtime is running. After [stop] the gate stays closed until the
    next [start] or [run_until_idle]. *)

val start : t -> unit
(** Raises [Invalid_argument] if the runtime is already running. *)

val stop : t -> unit
(** Raises [Invalid_argument] if the runtime is not serving. The
    supervisor stays up during the drain: a worker that dies mid-drain
    has its colors migrated to survivors, so the drain completes on
    [N - 1] workers instead of hanging. If {e every} worker is lost
    with work still pending, the supervisor aborts the runtime so
    [stop] returns honestly rather than waiting forever (the remaining
    backlog stays in {!pending}). *)

val quiesce : t -> unit

val is_serving : t -> bool

(** {1 Supervision}

    Observability and fault hooks for the self-healing layer; the
    state machine itself is documented in {!Supervision}. *)

val inject_worker_death : t -> int -> unit
(** Ask worker [w]'s domain to die at its next event boundary (or on
    wake, if parked) — the test/chaos hook for the death-and-reclaim
    path. The supervisor then migrates the slot's colors to survivors,
    and the slot stays [Dead] (the runtime degraded) until the next
    {!start} or {!run_until_idle}. Raises [Invalid_argument] on a bad
    index. *)

val live_workers : t -> int
(** Slots whose worker domain is currently running. *)

val is_degraded : t -> bool
(** True once any slot is down — its domain died, or a wedged domain
    was confiscated — so the runtime is serving at reduced width.
    Latched until the next lifecycle start recomputes it. *)

val migrations : t -> int
(** Color-queues re-homed from failed slots to survivors. *)

val abandoned : t -> int
(** Accepted events dropped during force-confiscation of a wedged
    slot (the wedged color's backlog plus its in-flight event).
    Conservation: attempts = executed + pending + refused +
    abandoned. *)

val worker_phase : t -> int -> Supervision.phase
(** Supervision phase of slot [w]. *)

(** Counters observed after (or during) a run. Each is a sum (or, for
    {!max_concurrent_same_color}, a maximum) over the per-worker
    {!Telemetry} shards; read racily while running they can lag the
    newest events, and they are exact once {!quiesce}, {!stop} or
    {!run_until_idle} returned. *)

val executed : t -> int
val steals : t -> int
val steal_attempts : t -> int

val pending : t -> int
(** Accepted events not yet executed. Never negative; [0] after a
    graceful [stop], possibly positive after a [Stop_runtime] abort. *)

val refused : t -> int
(** Registers rejected by the shutdown gate (or by the poisoned queue
    of a confiscated color). Conservation: every register attempt is
    eventually accounted as executed, pending, refused, or
    {!abandoned}. *)

val errors : t -> int
(** Handler invocations that raised, across all workers; per-worker
    detail (count, last handler name and exception) is in
    {!telemetry_snapshot}. *)

val max_concurrent_same_color : t -> int
(** Highest number of simultaneously-executing events observed for any
    single color; the mutual-exclusion invariant requires this to be 1.
    Tracked always (one owner-private compare per event); the property
    tests assert on it. *)

val note_shed : t -> worker:int -> color:int -> unit
(** Record a 503 load shed decided inside a handler: bumps the
    executing worker's shed counter and, when tracing is on,
    leaves a [Shed] span in its ring. Must be called from inside a
    handler currently running on [worker] (the trace rings are
    single-writer per worker domain). *)

val note_evict : t -> worker:int -> color:int -> unit
(** Record a deadline eviction (408) carried out inside a handler; same
    calling contract as {!note_shed}. *)

val telemetry : t -> Telemetry.t
(** The always-on stats plane (e.g. to {!Telemetry.swap_window} on a
    schedule independent of snapshots). *)

val telemetry_snapshot : ?swap_window:bool -> t -> Telemetry.snapshot
(** Full telemetry-plane snapshot — per-worker counters (cumulative
    across runs), queue-wait and service-time histograms (cumulative +
    last closed window), steal matrix, inbox-depth / current-color /
    parked gauges, and runtime totals — taken at any instant without
    stopping the workers. This is the one read path for runtime stats.
    Counters are monotone, so two back-to-back snapshots bracket the
    live values. [swap_window] (default false) rotates the streaming
    windows first: pass it from exactly one periodic scraper so the
    windows mean "since my previous poll". *)

val trace : t -> Trace.t option
(** The flight recorder, when enabled at {!create}. Cumulative across
    runs; read it only after the domains joined ({!run_until_idle} /
    {!stop} returned) or at a quiescent moment. *)

val debug_check_conservation : t -> string option
(** Audit the lock-free structures: takes every shard lock (freezing
    publishers and queue retirement) and checks that no retired queue
    is still mapped and that queued-event counters are non-negative;
    when the snapshot is quiescent ([pending = 0] and nothing
    executing, with the caller synchronized against the workers — e.g.
    right after {!quiesce} or {!stop} returned) it additionally checks
    that every queue is empty, counters agree with a walk of the
    linked queues, consumed weight equals enqueued weight, and no
    colors remain chained. Returns [Some message] describing the first
    violation, [None] if the invariants hold. Intended for tests and
    debugging. *)

val split_stack : newest_first:'a list -> ('a -> bool) -> 'a option * 'a list
(** The pure core of a thief's inbox probe, exposed so its order
    argument can be tested without domains: [split_stack ~newest_first
    pred] splits a Treiber-stack image (newest first, as exchanged out
    of an inbox) into its oldest element satisfying [pred] — the one
    the thief claims — and the rest, still newest first, ready to be
    appended under concurrent pushes with a single CAS. *)
