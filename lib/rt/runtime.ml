(* [weight] is the handler's {!Mely.weight}, computed once at
   declaration: publish and pop add it to the color's weighted pair. *)
type handler = { name : string; weight : int }

type ctx = { worker : int; register : ?color:int -> handler:handler -> (ctx -> unit) -> unit }

(* [ev_enq] is the enqueue timestamp, stamped on every register: the
   telemetry plane's queue-wait histograms read it on every execute.
   [ev_seq] is a flight-recorder stamp, written only when tracing is
   on, under the color's shard lock at push time (so per-color seq
   order equals per-color queue order — the property the FIFO replay
   check relies on); left at 0 when tracing is off. *)
type event = {
  ev_handler : handler;
  ev_color : int;
  ev_run : ctx -> unit;
  mutable ev_seq : int;
  mutable ev_enq : int64;
}

(* Per-color event queue: a dummy-headed singly-linked list used as an
   SPSC queue. Producers are serialized by the color's shard lock (they
   append at [evq_tail]); the single consumer is whichever worker
   currently owns the color (it advances [evq_head]). Neither side ever
   needs a read-modify-write: push is one atomic link store, pop is one
   atomic link load. *)
type ev_node = { node_ev : event; node_next : ev_node option Atomic.t }

(* Per-color queue (the Mely per-color structure, Section IV-A),
   lock-free edition.

   Ownership protocol: [owner] names the worker responsible for
   consuming the queue; it changes only at a steal, and only while the
   queue sits unclaimed in the old owner's deque — so for any queue
   that is current or being published into, [owner] is stable.
   [chained] is the single linearization point for queue hand-off: it
   is true exactly when the queue is en route to or sitting in an
   owner's inbox/deque, or is an owner's current queue. Whoever wins
   the [false -> true] CAS (a publisher finding the queue idle, or the
   owner re-chaining a refilled queue it just released) is the one
   party allowed to hand the queue to its owner. [retired] is written
   and read under the shard lock only. *)
type color_queue = {
  color : int;
  mutable evq_head : ev_node;  (** consumer boundary; owner-private *)
  mutable evq_tail : ev_node;  (** producer end; under the shard lock *)
  pushed : int Atomic.t;
      (** Total appended; bumped under the shard lock. Must be an SC
          atomic: the owner's release recheck depends on seeing the
          bump of any push whose [chained] CAS it beat (see
          [release_current]). *)
  mutable popped : int;
      (** Total consumed. Plain: single writer (the owner), and every
          exact reader is either the owner itself (release, retire) or
          synchronizes with it first — a thief through the deque-claim
          CAS, the conservation audit through quiescence. Remote racy
          reads (the mid-flight audit) only ever undercount
          consumption, which is the safe direction. *)
  running : int Atomic.t;  (** concurrent executions; must never exceed 1 *)
  mutable weighted_in : int;
      (** Weighted cycles ever enqueued; written under the shard lock. *)
  mutable weighted_out : int;
      (** Weighted cycles consumed; written by the owner. The pair
          replaces one contended atomic: steal-worthiness is a
          heuristic, so thieves may read both plainly and tolerate
          staleness — what matters is that neither update is an RMW on
          the hot path. *)
  chained : bool Atomic.t;
  owner : int Atomic.t;
  mutable retired : bool;  (** unmapped; under the shard lock *)
  mutable poisoned : bool;
      (** under the shard lock. Set when a wedged worker was
          force-confiscated while (possibly) still executing this
          color: its mutual exclusion can no longer be certified, so
          further registers for the color are refused rather than run
          concurrently with a zombie handler. Poisoned queues stay
          mapped so the color cannot re-hash to a fresh queue. *)
}

(* Raised by a worker to die on purpose ([inject_worker_death]), only
   at an event boundary, after the event's accounting is complete, so a
   deliberate death never loses an accepted event. *)
exception Worker_killed

(* Raised by a zombie: a worker whose wedged handler finally returned
   after the supervisor confiscated its slot. It exits without touching
   its current queue again — the supervisor owns it from then on. *)
exception Worker_confiscated

(* [q_state] protocol between a worker and the supervisor. The
   supervisor stores [q_requested] over [q_normal]; then exactly one
   CAS wins: [q_requested -> q_normal] by the worker at its next event
   boundary (it resumes in place) or [q_requested -> q_confiscated] by
   the supervisor once the confirm window has passed. *)
let q_normal = 0

let q_requested = 1

let q_confiscated = 2

type worker_state = {
  inbox : color_queue list Atomic.t;
      (** Treiber stack of queues other parties chained to this worker;
          drained into [deque] by the owner at every color switch. *)
  deque : color_queue Spmc_queue.t;
      (** Ready colors in rotation order. Only this worker pushes;
          thieves claim mid-queue elements with one CAS. *)
  n_chained : int Atomic.t;
      (** Colors currently chained to this worker (inbox + deque +
          in-flight hand-offs); a thief reads it to label an empty
          probe. *)
  advert : int Atomic.t;
      (** Worthy-work advert: bumped after anything that may have made
          one of this worker's chained queues worthy and stealable. A
          thief that failed a complete scan of this worker skips it
          while the advert still reads what it read before that scan. *)
  seen : int array;
      (** owner-private: per victim, the advert read before the last
          complete failed scan of that victim (-1 = never scanned) *)
  sleeping : bool Atomic.t;
      (** set by this worker before its last recheck ahead of parking;
          cleared by whichever waker wins the CAS (see [wake]) *)
  park_lock : Mutex.t;
  park_cond : Condition.t;  (** this worker alone sleeps here *)
  current_color : int Atomic.t;  (** color being drained; -1 = none *)
  mutable current : color_queue option;  (** owner-private *)
  mutable batch_remaining : int;  (** owner-private *)
  counters : Telemetry.counters;
      (** this slot's live telemetry counters; written only by the
          domain running the slot *)
  (* --- supervision state (one slot per worker; the slot survives the
     domain, so the next lifecycle's domain inherits its telemetry and
     trace shards — at most one live domain ever runs a slot). --- *)
  busy_since : int Atomic.t;
      (** 0 = idle; else [Clock.now_ns] at the current event's start.
          Doubles as the heartbeat stamp and the wedge-age source.
          Replaces the global [active] RMW pair: raised BEFORE the
          [pending] decrement, so an observer seeing [pending = 0]
          sees every busy slot (same SC argument as the old counter). *)
  hb_last : int Atomic.t;  (** ns of the last completed event boundary *)
  q_state : int Atomic.t;  (** quarantine handshake; see [q_normal] *)
  kill_flag : bool Atomic.t;  (** deliberate death requested (tests) *)
  live : bool Atomic.t;  (** a domain is currently running this slot *)
  exited : bool Atomic.t;  (** the domain's wrapper finished *)
  crashed : bool Atomic.t;
      (** exit was a death (escape/kill/confiscation), not a clean
          terminal-quiescence return; written before [exited] *)
  mutable death_reason : string;  (** written before [exited] is set *)
  phase : int Atomic.t;
      (** encoded {!Supervision.phase}; written by the supervisor, and
          by the lifecycle while no supervisor runs *)
  mutable q_since : int;  (** supervisor-private: quarantine request ns *)
}

type failure_policy = Swallow | Stop_runtime

(* Shutdown gate, monotonic within a serving epoch: [accepting] takes
   any register, [draining] (set by [stop]) refuses external registers
   but lets in-flight handlers finish their chains, [aborted] (set by
   the [Stop_runtime] failure policy) refuses everything and makes
   workers exit without draining the backlog. [start] and
   [run_until_idle] reset the gate to [accepting]. *)
let accepting = 0

let draining = 1

let aborted = 2

(* The color map is sharded: publishers for different colors contend on
   different locks, and the shard lock doubles as the per-color
   producer serialization for the SPSC event queues. Power of two so
   the shard index is a mask. *)
let n_shards = 64

type shard = { sh_lock : Spinlock.t; sh_tbl : (int, color_queue) Hashtbl.t }

type t = {
  n : int;
  states : worker_state array;
  victims : int list array;  (** per-worker locality victim order *)
  shards : shard array;
  pending : int Atomic.t;
      (** accepted events not yet consumed; read for quiescence, drain
          and supervision, never to decide whether an idle worker parks *)
  quiesce_lock : Mutex.t;
  quiesce_cond : Condition.t;  (** [quiesce] waiters sleep here *)
  n_waiters : int Atomic.t;  (** threads blocked in [quiesce] *)
  on_error : failure_policy;
  shutdown : int Atomic.t;  (** [accepting] / [draining] / [aborted] *)
  serving : bool Atomic.t;  (** workers persist across quiescence *)
  refused : int Atomic.t;  (** registers rejected by the shutdown gate *)
  telemetry : Telemetry.t;  (** always-on online stats plane *)
  trace : Trace.t option;  (** flight recorder; None = zero-cost disabled *)
  lifecycle_lock : Mutex.t;  (** serializes start/stop/run_until_idle *)
  mutable running : bool;
  (* --- supervision plane --- *)
  sup : Supervision.config;
  slot_domains : unit Domain.t option array;
      (** per-slot domain handle. Written by [spawn_worker] under the
          lifecycle lock and cleared by whoever joins; lifecycle code
          only touches it after the supervisor domain has been joined. *)
  mon_stop : bool Atomic.t;
  mutable monitor : unit Domain.t option;
  wake_lock : Mutex.t;
  mutable wake_pipe : (Unix.file_descr * Unix.file_descr) option;
      (** the supervisor's self-pipe (read end, write end), under
          [wake_lock]: a death, a queue stranded on a down slot and
          [stop] write a byte to wake it. [None] while no supervisor
          runs. *)
  migration_count : int Atomic.t;  (** color-queues re-homed *)
  reclaim_count : int Atomic.t;  (** color-queues swept off dead slots *)
  abandoned : int Atomic.t;
      (** accepted events dropped at force-confiscation; conservation
          becomes attempts = executed + pending + refused + abandoned *)
  degraded : bool Atomic.t;  (** some slot is Dead or Lost *)
}

let default_color = 0

(* Victim order for the locality heuristic (Section III-A): the workers
   mapped onto a xeon-shaped cache hierarchy — pairs share an L2, two
   pairs share a package — in {!Mely.victim_order}, nearest first. *)
let victims n =
  let packages = max 1 ((n + 3) / 4) in
  let topo = Hw.Topology.create ~packages ~groups_per_package:2 ~cores_per_group:2 in
  Array.init n (Mely.victim_order topo ~n)

(* {!Supervision.phase} packed into the per-slot atomic so any domain
   can read it without locks. *)
let phase_to_int = function
  | Supervision.Live -> 0
  | Supervision.Suspect -> 1
  | Supervision.Quarantined -> 2
  | Supervision.Dead -> 3
  | Supervision.Lost -> 4

let phase_of_int = function
  | 0 -> Supervision.Live
  | 1 -> Supervision.Suspect
  | 2 -> Supervision.Quarantined
  | 3 -> Supervision.Dead
  | _ -> Supervision.Lost

(* Monotonic ns as int: 63 bits hold ~146 years of nanoseconds, and
   every consumer (wedge ages, heartbeats) wants plain int math. *)
let now_int () = Int64.to_int (Clock.now_ns ())

let create ?workers ?(on_error = Swallow) ?trace
    ?(supervision = Supervision.default_config) () =
  let n =
    match workers with
    | Some n ->
      if n < 1 then invalid_arg "Rt.Runtime.create: workers must be >= 1";
      n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let telemetry = Telemetry.create ~workers:n in
  {
    n;
    states =
      Array.init n (fun w ->
          {
            inbox = Atomic.make [];
            deque = Spmc_queue.create ();
            n_chained = Atomic.make 0;
            advert = Atomic.make 0;
            seen = Array.make n (-1);
            sleeping = Atomic.make false;
            park_lock = Mutex.create ();
            park_cond = Condition.create ();
            current_color = Atomic.make (-1);
            current = None;
            batch_remaining = 0;
            counters = Telemetry.counters telemetry ~worker:w;
            busy_since = Atomic.make 0;
            hb_last = Atomic.make 0;
            q_state = Atomic.make q_normal;
            kill_flag = Atomic.make false;
            live = Atomic.make false;
            exited = Atomic.make false;
            crashed = Atomic.make false;
            death_reason = "";
            phase = Atomic.make (phase_to_int Supervision.Live);
            q_since = 0;
          });
    victims = victims n;
    shards =
      Array.init n_shards (fun _ ->
          { sh_lock = Spinlock.create (); sh_tbl = Hashtbl.create 16 });
    pending = Atomic.make 0;
    quiesce_lock = Mutex.create ();
    quiesce_cond = Condition.create ();
    n_waiters = Atomic.make 0;
    on_error;
    shutdown = Atomic.make accepting;
    serving = Atomic.make false;
    refused = Atomic.make 0;
    telemetry;
    trace = Option.map (fun cfg -> Trace.create ~workers:n cfg) trace;
    lifecycle_lock = Mutex.create ();
    running = false;
    sup = supervision;
    slot_domains = Array.make n None;
    mon_stop = Atomic.make false;
    monitor = None;
    wake_lock = Mutex.create ();
    wake_pipe = None;
    migration_count = Atomic.make 0;
    reclaim_count = Atomic.make 0;
    abandoned = Atomic.make 0;
    degraded = Atomic.make false;
  }

let workers t = t.n

(* Runtime totals are folds over the single-writer shards; no global
   counter is touched per event. *)
let sum_counters t f = Array.fold_left (fun acc ws -> acc + f ws.counters) 0 t.states

let executed t = sum_counters t (fun c -> c.Telemetry.executed)
let steals t = sum_counters t (fun c -> c.Telemetry.steals_in)
let steal_attempts t = sum_counters t (fun c -> c.Telemetry.steal_rounds)
let errors t = sum_counters t (fun c -> c.Telemetry.errors)

let max_concurrent_same_color t =
  Array.fold_left (fun acc ws -> max acc ws.counters.max_same_color) 0 t.states

let handler _t ~name ?(declared_cycles = 1_000) ?(penalty = 1) () =
  if penalty < 1 then invalid_arg "Rt.Runtime.handler: penalty must be >= 1";
  { name; weight = Mely.weight ~declared:declared_cycles ~penalty }

let shard_of t color = t.shards.(color land (n_shards - 1))

let dummy_event =
  { ev_handler = { name = ""; weight = 1 };
    ev_color = -1; ev_run = (fun _ -> ()); ev_seq = 0; ev_enq = 0L }

(* Queued length. Exact when read by the owner (it wrote [popped]
   itself) or after synchronizing with it; a remote racy read can see a
   stale [popped] and overcount, which the only remote caller (the
   mid-flight conservation audit) tolerates. *)
let cq_len cq = Atomic.get cq.pushed - cq.popped

(* Append one event; caller holds the color's shard lock. The link
   store is the release that publishes the event (and its seq stamp) to
   the consumer, so it comes after every other field write. *)
let evq_push cq ev =
  let n = { node_ev = ev; node_next = Atomic.make None } in
  let tail = cq.evq_tail in
  cq.evq_tail <- n;
  (* Link first, count second: any reader that sees the length bump can
     also see the node, so a positive [cq_len] always means a poppable
     event. *)
  Atomic.set tail.node_next (Some n);
  Atomic.incr cq.pushed

(* Consume one event; owner only. One SC load and two plain stores —
   no RMW, no fence-heavy store on the pop path. *)
let evq_pop cq =
  match Atomic.get cq.evq_head.node_next with
  | None -> None
  | Some n ->
    cq.evq_head <- n;
    cq.popped <- cq.popped + 1;
    Some n.node_ev

(* A dead slot stays down until the next lifecycle start, so while the
   runtime is degraded a fresh queue homed there starts on the next
   live slot instead of waiting for the supervisor to migrate it. With
   no live slot (before [start], or degraded to zero) it keeps [h]. *)
let live_home t h =
  let rec go k =
    if k = t.n then h
    else
      let v = (h + k) mod t.n in
      if Atomic.get t.states.(v).live then v else go (k + 1)
  in
  if Atomic.get t.degraded then go 0 else h

(* Locate or create the color-queue; caller holds [sh]'s lock. A fresh
   color hashes to its home worker, like the seed runtime — unless the
   injector supplied a placement hint ([home]), in which case the new
   queue starts on that worker instead. The hint only matters at
   creation: an existing queue keeps its owner (stealing is what moves
   live queues). *)
let locate_locked t sh ?home color =
  match Hashtbl.find_opt sh.sh_tbl color with
  | Some cq -> cq
  | None ->
    let dummy = { node_ev = dummy_event; node_next = Atomic.make None } in
    let cq =
      {
        color;
        evq_head = dummy;
        evq_tail = dummy;
        pushed = Atomic.make 0;
        popped = 0;
        running = Atomic.make 0;
        weighted_in = 0;
        weighted_out = 0;
        chained = Atomic.make false;
        owner =
          Atomic.make
            (live_home t
               (match home with
               | Some h -> ((h mod t.n) + t.n) mod t.n
               | None -> color mod t.n));
        retired = false;
        poisoned = false;
      }
    in
    Hashtbl.replace sh.sh_tbl color cq;
    cq

(* Wake [ws]'s domain if it is parked, and say whether this call did.
   The CAS clears [sleeping] before the signal and elects one waker
   among racing ones; the sleeper waits only while [sleeping] is still
   set, under its own lock, so a signal can never fall between its
   check and its wait. *)
let wake ws =
  Atomic.get ws.sleeping
  && Atomic.compare_and_set ws.sleeping true false
  && begin
       Mutex.lock ws.park_lock;
       Condition.signal ws.park_cond;
       Mutex.unlock ws.park_lock;
       true
     end

(* A queue of worker [v]'s may have become worthy and stealable: bump
   [v]'s advert, then (unless [v]'s own wake already covers the queue)
   wake the first parked sibling in [v]'s locality order. The bump
   comes first: a sibling sets [sleeping] before it rechecks adverts,
   so either it sees the bump or this wake sees it asleep. *)
let advertise t v ~wake_sibling =
  Atomic.incr t.states.(v).advert;
  if wake_sibling then
    ignore (List.exists (fun s -> wake t.states.(s)) t.victims.(v))

(* The time-left test against the steal-cost prior, with the penalty
   already folded into the weights. Plain reads of the weighted pair: a
   stale value only mis-ranks a queue. *)
let worthy_left left = Mely.worthy ~steal_cost:Mely.steal_cost_prior left
let worthy cq = worthy_left (cq.weighted_in - cq.weighted_out)

let wake_quiescers t =
  Mutex.lock t.quiesce_lock;
  Condition.broadcast t.quiesce_cond;
  Mutex.unlock t.quiesce_lock

(* Wake every parked worker and every [quiesce] waiter: terminal
   quiescence, shutdown, abort, kill, quarantine and death must reach
   every sleeper. Each such transition is written before this call,
   and a parking worker rechecks it after setting [sleeping]. *)
let broadcast_all t =
  Array.iter (fun ws -> ignore (wake ws)) t.states;
  wake_quiescers t

(* Wake the supervisor out of its [select]: a write to its self-pipe.
   Non-blocking, so a full pipe (the supervisor already has a wake
   pending) just drops the byte. The lock orders the write against
   [stop_monitor] closing the pipe. *)
let wake_supervisor t =
  Mutex.lock t.wake_lock;
  (match t.wake_pipe with
  | Some (_, fd) -> (
    try ignore (Unix.single_write_substring fd "!" 0 1)
    with Unix.Unix_error _ -> ())
  | None -> ());
  Mutex.unlock t.wake_lock

let rec inbox_push ws cq =
  let old = Atomic.get ws.inbox in
  if not (Atomic.compare_and_set ws.inbox old (cq :: old)) then inbox_push ws cq

(* Deliver a chained queue to [target]'s inbox and make it reachable: a
   parked target is woken (it owns the queue and always drains its
   own), and a worthy queue is advertised to thieves — waking a sibling
   only if the target was awake already, since a target just woken
   takes the queue itself. The push precedes the [sleeping] read, the
   mirror of the parking worker's flag-then-inbox order. A push onto a
   slot that is not live (it died after this queue was homed there)
   wakes the supervisor, which sweeps the slot again: the push precedes
   the [live] read, and the slot's death clears [live] before the
   supervisor's first sweep, so no push lands unseen. *)
let hand_off t cq target =
  let ts = t.states.(target) in
  Atomic.incr ts.n_chained;
  inbox_push ts cq;
  if not (Atomic.get ts.live) then wake_supervisor t;
  let woke = wake ts in
  if worthy cq then advertise t target ~wake_sibling:(not woke)

(* Retire a drained color from the map (only if it is still this
   queue), so recycled colors re-hash cleanly. Everything happens under
   the shard lock: publishers find the queue under the same lock, so
   once the length check passes here no event can slip into a retired
   queue — the push either landed before we took the lock (we see it
   and keep the queue) or finds a fresh queue after the removal. *)
let forget_if_drained t cq =
  let sh = shard_of t cq.color in
  Spinlock.with_lock sh.sh_lock (fun () ->
      if
        (not cq.poisoned)
        && (not (Atomic.get cq.chained))
        && Atomic.get cq.running = 0
        && cq_len cq = 0
      then
        match Hashtbl.find_opt sh.sh_tbl cq.color with
        | Some current when current == cq ->
          cq.retired <- true;
          Hashtbl.remove sh.sh_tbl cq.color
        | _ -> ())

(* Hand [cq], whose chain this publisher just won, to its owner, unless
   it is empty: between our push and our CAS the owner can have popped
   the event, run it and released (even retired) the queue. Handing off
   an empty queue wakes the owner for nothing and leaves a chain count
   up with nothing pending, a false quiescence for the audit. [cq_len]
   is exact here: only the chain holder pops, and the owner cleared
   [chained] after its last pop, so our CAS read its final [popped]. An
   empty queue is released the way [release_current] releases one. *)
let rec chain_won t cq =
  if cq_len cq > 0 then hand_off t cq (Atomic.get cq.owner)
  else begin
    Atomic.set cq.chained false;
    if cq_len cq > 0 && Atomic.compare_and_set cq.chained false true then chain_won t cq
    else forget_if_drained t cq
  end

(* Publish one event. The only lock on this path is the color's shard
   lock, held for a hashtable probe plus three atomic stores; there is
   no per-worker lock to fight the owner for, and no [migrating] state
   to spin on — a queue found in the map is never mid-steal from the
   publisher's point of view, because owners only change while the
   queue idles in a deque, and [retired] queues are unmapped under the
   same shard lock we hold. *)
let publish t ?home event =
  let sh = shard_of t event.ev_color in
  Spinlock.acquire sh.sh_lock;
  let cq = locate_locked t sh ?home event.ev_color in
  if cq.poisoned then begin
    (* The color's last owner was force-confiscated while possibly
       still executing it: running this event anywhere could overlap
       the zombie handler, so the register is refused instead. *)
    Spinlock.release sh.sh_lock;
    false
  end
  else begin
  (match t.trace with
  | Some tr -> event.ev_seq <- Trace.next_seq tr
  | None -> ());
  (* Plain add: serialized by the shard lock, raised before the event
     becomes poppable so the owner's [weighted_out] can never overtake
     it. *)
  let left = cq.weighted_in - cq.weighted_out in
  cq.weighted_in <- cq.weighted_in + event.ev_handler.weight;
  let crossed = worthy cq && not (worthy_left left) in
  evq_push cq event;
  Spinlock.release sh.sh_lock;
  (* Hand-off: if the queue is idle (not current, not in any deque or
     inbox), win the [chained] CAS and chain it to its owner. Exactly
     one of {publisher, releasing owner} wins when they race over a
     refilled queue. The owner is re-read after the CAS: holding the
     chain freezes ownership, so the read cannot be stale. A lost CAS
     needs no wake: whoever holds the chain is awake or was woken when
     it was handed the queue. *)
  if (not (Atomic.get cq.chained)) && Atomic.compare_and_set cq.chained false true
  then chain_won t cq
  else if crossed then begin
    (* This push made an already chained queue worthy. Unless it is
       the owner's current color (unstealable), advertise it; a stale
       [owner] read only bumps the wrong advert. *)
    let owner = Atomic.get cq.owner in
    if Atomic.get t.states.(owner).current_color <> event.ev_color then
      advertise t owner ~wake_sibling:true
  end;
  true
  end

(* Take back [k] admitted events that will never run. Workers park
   while [pending > 0] with nothing they can take, so whoever drops it
   to 0 outside a worker must announce the possible quiescence: no
   worker will observe it on its own. *)
let unadmit t k =
  if Atomic.fetch_and_add t.pending (-k) = k then broadcast_all t

(* Admission of [k] events through the shutdown gate. [pending] is
   raised BEFORE any event becomes poppable, so a worker that pops
   immediately can never drive the counter negative (a sibling would
   otherwise observe [pending = -1] and declare quiescence mid-enqueue).
   The gate is read only after the increment: if we saw [accepting],
   any worker that later reads [pending] on its exit path also sees our
   increment (SC atomics), so it cannot declare the drain finished
   under our feet. [internal] follow-ups pass a draining gate; only an
   abort refuses them. On refusal all [k] count as refused. *)
let admit t ~internal k =
  ignore (Atomic.fetch_and_add t.pending k);
  let gate = Atomic.get t.shutdown in
  if gate = aborted || (gate = draining && not internal) then begin
    unadmit t k;
    ignore (Atomic.fetch_and_add t.refused k);
    false
  end
  else true

(* An admitted event refused at its queue: the color is poisoned. *)
let refuse_admitted t =
  unadmit t 1;
  Atomic.incr t.refused

(* The single-event path: no list, one gate decision. *)
let enqueue t ~internal ?home event =
  (* Always stamped: the telemetry plane's queue-wait histograms need
     it even when the flight recorder is off. *)
  event.ev_enq <- Clock.now_ns ();
  admit t ~internal 1 && (publish t ?home event || (refuse_admitted t; false))

let make_event ~handler ~color run =
  { ev_handler = handler; ev_color = color; ev_run = run; ev_seq = 0; ev_enq = 0L }

(* The one registration body: [register], [try_register] and a
   handler's [ctx.register] differ only in the name in the argument
   error and in [internal]. Handler follow-ups count as in-flight work:
   a draining [stop] lets them through so interrupted chains can
   finish, only an abort refuses them. *)
let register_as name t ~internal ?(color = default_color) ?home ~handler run =
  if color < 0 then invalid_arg ("Rt.Runtime." ^ name ^ ": color must be >= 0");
  enqueue t ~internal ?home (make_event ~handler ~color run)

let try_register t = register_as "try_register" t ~internal:false

let register t ?color ~handler run =
  ignore (register_as "register" t ~internal:false ?color ~handler run)

(* Batched external injection: one shutdown-gate decision for the
   whole batch, instead of one per event — the per-event path is what
   a poller shard would otherwise pay once per readiness on every
   epoll_wait return. Wakes are per hand-off, as in [publish]: only a
   parked worker that was handed a queue is woken. All-or-nothing at
   the gate: either every event is admitted (and published in list
   order, so per-color FIFO is preserved) or the whole batch counts as
   refused. *)
let try_register_batch t ?home items =
  match items with
  | [] -> true
  | _ ->
    List.iter
      (fun (color, _, _) ->
        if color < 0 then
          invalid_arg "Rt.Runtime.try_register_batch: color must be >= 0")
      items;
    let k = List.length items in
    admit t ~internal:false k
    && begin
      List.iter
        (fun (color, handler, run) ->
          let event = make_event ~handler ~color run in
          event.ev_enq <- Clock.now_ns ();
          (* A poisoned color refuses its events individually; the
             rest of the batch still lands. *)
          if not (publish t ?home event) then refuse_admitted t)
        items;
      true
    end

(* The owner puts its own queue back in rotation (release with refill,
   batch rotation): the queue turns stealable, so a worthy one is
   advertised. *)
let chain_own t w ws cq =
  Atomic.incr ws.n_chained;
  Spmc_queue.push ws.deque cq;
  if worthy cq then advertise t w ~wake_sibling:true

(* Release the drained current queue. Clearing [chained] re-opens the
   hand-off; the refill recheck closes the race with a publisher that
   pushed between our last pop and the clear: whoever wins the CAS
   chains the queue (us, onto our own deque) and the loser does
   nothing. SC atomics guarantee one side sees the other: if our
   recheck misses the push, the publisher's CAS comes after our clear
   and wins. *)
let release_current t w ws cq =
  ws.current <- None;
  Atomic.set ws.current_color (-1);
  Atomic.set cq.chained false;
  if cq_len cq > 0 && Atomic.compare_and_set cq.chained false true then
    chain_own t w ws cq
  else forget_if_drained t cq

(* Move inbox arrivals into the deque (reversed: the Treiber stack is
   LIFO, rotation order wants FIFO). Called at every color switch so a
   long-running color cannot starve freshly chained ones forever. *)
let drain_inbox ws =
  match Atomic.get ws.inbox with
  | [] -> ()
  | _ ->
    let got = Atomic.exchange ws.inbox [] in
    List.iter (fun cq -> Spmc_queue.push ws.deque cq) (List.rev got)

(* Install [cq] as the owner's current queue (deque pop, which also
   covers a rotated queue coming round again, or steal claim). The new
   owner reads the queue's length exactly here, so the high-water mark
   costs the publish path nothing. *)
let make_current ws cq =
  ws.current <- Some cq;
  Atomic.set ws.current_color cq.color;
  ws.batch_remaining <- Mely.batch_threshold;
  let len = cq_len cq in
  if len > ws.counters.queue_hwm then ws.counters.queue_hwm <- len

(* Next event for worker [w]. The owner's fast path is one atomic link
   load (the SPSC pop) and a batch counter decrement — no lock, no CAS.
   Batch rotation happens BEFORE popping, never after: a color-queue
   must not sit in the deque (where a thief can claim it) while one of
   its events is executing, or same-color mutual exclusion would break.
   Rotating at the pop boundary keeps the invariant: a queue is either
   current (unstealable) or in a deque (no event of it running). *)
let rec next_event t w ws =
  match ws.current with
  | Some cq ->
    if ws.batch_remaining <= 0 && cq_len cq > 0 then begin
      (* Rotate to the back of the deque to prevent starvation. *)
      ws.current <- None;
      Atomic.set ws.current_color (-1);
      chain_own t w ws cq;
      next_event t w ws
    end
    else begin
      match evq_pop cq with
      | Some ev ->
        cq.weighted_out <- cq.weighted_out + ev.ev_handler.weight;
        ws.batch_remaining <- ws.batch_remaining - 1;
        Some (ev, cq)
      | None ->
        release_current t w ws cq;
        next_event t w ws
    end
  | None -> (
    drain_inbox ws;
    match Spmc_queue.pop ws.deque with
    | Some cq ->
      Atomic.decr ws.n_chained;
      make_current ws cq;
      next_event t w ws
    | None -> None)

(* Escalate the shutdown gate to [aborted] (it only ever rises within an
   epoch) and wake everyone so workers notice and exit. *)
let request_abort t =
  let rec raise_gate () =
    let cur = Atomic.get t.shutdown in
    if cur < aborted && not (Atomic.compare_and_set t.shutdown cur aborted) then
      raise_gate ()
  in
  raise_gate ();
  broadcast_all t

(* Execution boundary: a raising handler must not escape — the seed let
   the exception unwind [worker_loop] past the [active] decrement,
   killing the domain while parked siblings waited on [active > 0]
   forever. The failure is recorded per-worker, the event still counts
   as executed (conservation: every accepted event is consumed exactly
   once), and the [running]/[active]/[pending] accounting is identical
   on both paths. [t0] is the busy stamp [worker_loop] took for this
   event, so queue wait ends and service starts there; the end stamp is
   returned for the heartbeat. Every counter write lands in this
   worker's own shard before the caller clears [busy_since]. *)
let execute t w ctx (cq : color_queue) event ~t0 =
  let c = t.states.(w).counters in
  let concurrent = 1 + Atomic.fetch_and_add cq.running 1 in
  (* Record the worst concurrency ever observed for the invariant test. *)
  if concurrent > c.max_same_color then c.max_same_color <- concurrent;
  (match event.ev_run ctx with
  | () -> ()
  | exception e ->
    c.errors <- c.errors + 1;
    c.last_error <- Some (event.ev_handler.name, Printexc.to_string e);
    (match t.on_error with
    | Swallow -> ()
    | Stop_runtime -> request_abort t));
  let t1 = Clock.now_ns () in
  if Atomic.get t.states.(w).q_state = q_confiscated then begin
    (* Zombie path: while this handler wedged, the supervisor
       confiscated the slot — the queue was abandoned and this event
       counted with it, so finish with the bare [running] release and
       no telemetry writes (the slot stays Lost, so the single-writer
       shards are safe either way). *)
    Atomic.decr cq.running;
    raise Worker_confiscated
  end;
  (* The span is stamped and recorded before [running] is released (and
     before the queue can be released, rotated or retired — all of that
     happens on this worker's next [next_event] call): everything inside
     it lies within the color's exclusion window, so overlapping spans
     in the trace always mean a real mutual-exclusion violation — a
     recycled same-color queue can only start after this point. *)
  (match t.trace with
  | None -> ()
  | Some tr ->
    Trace.record_exec tr ~worker:w ~handler:event.ev_handler.name
      ~color:event.ev_color ~seq:event.ev_seq ~enq_ns:event.ev_enq ~start_ns:t0
      ~end_ns:t1);
  Telemetry.on_exec t.telemetry ~worker:w
    ~qwait_ns:(max 0 (Int64.to_int (Int64.sub t0 event.ev_enq)))
    ~service_ns:(max 0 (Int64.to_int (Int64.sub t1 t0)));
  Atomic.decr cq.running;
  t1

(* The pure core of the inbox probe: split a Treiber-stack image
   (newest first) into its oldest element satisfying [pred] — the color
   the owner has waited longest to serve — and the rest, still newest
   first. *)
let split_stack ~newest_first pred =
  let rec go = function
    | [] -> (None, [])
    | x :: tl -> (
      match go tl with
      | (Some _ as found), rest -> (found, x :: rest)
      | None, rest -> if pred x then (Some x, rest) else (None, x :: rest))
  in
  go newest_first

(* Claim one worthy queue out of the victim's inbox. Without this,
   freshly published colors would be invisible to thieves until the
   owner's next color switch moves them into its deque — on a loaded
   owner that window is exactly when stealing matters. The probe reads
   before it writes: the list is immutable, so a walk of one
   [Atomic.get] decides, and only an inbox holding a worthy queue is
   exchanged. The queues stay [chained] throughout.

   The unclaimed rest goes back in ONE CAS, appended underneath
   whatever was pushed concurrently: the rest is older than any
   concurrent arrival (it was in the stack before our exchange), so
   [cur @ rest] keeps the stack newest-first as a whole AND preserves
   the rest's internal order. Re-pushing one element at a time would
   let a concurrent push land *between* two restored queues and shuffle
   their relative age — the order regression test pins this down. The
   owner may have rechecked its inbox while we held the rest and
   parked, so the restore ends with a wake, exactly like a hand-off. *)
let steal_inbox vs pred =
  if not (List.exists pred (Atomic.get vs.inbox)) then None
  else
    match split_stack ~newest_first:(Atomic.exchange vs.inbox []) pred with
    | claimed, [] -> claimed
    | claimed, rest ->
      let rec restore () =
        let cur = Atomic.get vs.inbox in
        if not (Atomic.compare_and_set vs.inbox cur (cur @ rest)) then restore ()
      in
      restore ();
      ignore (wake vs);
      claimed

(* Steal one color-queue from [victim] into [w] (the Mely thief: one
   queue per winning probe); returns the visit outcome — [Won] on
   success, otherwise why the victim yielded nothing. The deque scan
   has no budget: a failed probe is complete, which is what lets the
   thief skip this victim until its advert moves. No lock is taken on
   either side: the claim is one CAS on the deque slot (or the inbox
   exchange), and that is the ownership linearization point — the
   victim stopped touching the queue when it chained it, so the winner
   may immediately write [owner] and start draining. The claimed queue
   becomes the thief's current directly, with no inbox/deque
   round-trip. The queue the victim is currently executing is never in
   its deque or inbox, so the same-color exclusion invariant is
   structural, not lock-guarded. *)
let steal_from t w victim =
  let vs = t.states.(victim) in
  let claimed =
    match Spmc_queue.steal vs.deque worthy with
    | None -> steal_inbox vs worthy
    | found -> found
  in
  match claimed with
  | None ->
    if Atomic.get vs.n_chained <= 0 then
      if Atomic.get vs.current_color >= 0 then Trace.Executing else Trace.Empty
    else Trace.Unworthy
  | Some cq ->
    Atomic.decr vs.n_chained;
    Atomic.set cq.owner w;
    make_current t.states.(w) cq;
    Telemetry.on_steal t.telemetry ~thief:w ~victim;
    Trace.Won

(* One steal round: walk victims in the fixed locality order until one
   yields a queue, skipping (as a [Quiet] visit) each victim whose
   advert has not moved since this worker's last complete failed scan
   of it — one load, no deque scan, no inbox traffic. The per-visit
   counter and (when tracing) the Visit span make the ordering
   auditable per probe; with tracing off the round reads no clock. *)
let try_steal t w =
  let ws = t.states.(w) in
  let c = ws.counters in
  c.steal_rounds <- c.steal_rounds + 1;
  let rec visit = function
    | [] -> false
    | victim :: rest -> (
      (* Read before the probe: a bump racing the scan then leaves
         [seen] behind the advert, and the next round probes again. *)
      let advert = Atomic.get t.states.(victim).advert in
      let outcome =
        if advert = ws.seen.(victim) then Trace.Quiet
        else
          match steal_from t w victim with
          | Trace.Won -> Trace.Won
          | missed ->
            ws.seen.(victim) <- advert;
            missed
      in
      c.visits <- c.visits + 1;
      (match t.trace with
      | Some tr -> Trace.record_visit tr ~worker:w ~victim ~outcome ~ns:(Clock.now_ns ())
      | None -> ());
      match outcome with Trace.Won -> true | _ -> visit rest)
  in
  let won = visit t.victims.(w) in
  if not won then c.failed_attempts <- c.failed_attempts + 1;
  won

(* Events currently executing on slots that still have a live domain.
   Replaces the old global [active] counter: a busy bit stuck on a
   dead or confiscated slot must not keep quiescence (and therefore
   graceful drain) waiting forever — that was the hang the ISSUE's
   first satellite names. Each slot raises [busy_since] BEFORE
   decrementing [pending], so an observer that reads [pending = 0]
   cannot miss a live busy slot (SC order, same argument as the old
   counter); a dead slot's in-flight event was finalized by its death
   wrapper before [live] dropped. A slot also counts as active while it
   still OWNS a current queue ([current_color] >= 0): between the end of
   [execute] and [release_current] the handler is done but the color is
   still claimed, and an auditor that declared quiescence inside that
   window would see a stale current color. *)
let live_active t =
  let n = ref 0 in
  Array.iter
    (fun ws ->
      if
        Atomic.get ws.live
        && (Atomic.get ws.busy_since <> 0 || Atomic.get ws.current_color >= 0)
      then incr n)
    t.states;
  !n

(* Nothing left to wait for: no stop-free serving epoch, nothing
   pending, nothing executing. The gate is read before [pending]: a
   register that saw [accepting] raised [pending] before the gate
   closed, so a worker that saw it closed cannot then miss the event
   and abandon it. [pending] is read before the busy slots, which
   raise [busy_since] before they decrement it. *)
let terminal t =
  (not (Atomic.get t.serving && Atomic.get t.shutdown = accepting))
  && Atomic.get t.pending = 0
  && live_active t = 0

(* The parking worker's recheck, made after it set [sleeping]. Each
   disjunct is the mirror of a writer that writes first and then reads
   [sleeping] to wake it: a hand-off or inbox restore ([inbox]), an
   advert bump ([advert]), abort/kill/quarantine, and the last step to
   quiescence. Only other parties push into the inbox; the deque is
   pushed by this worker alone and was empty when [next_event] gave
   up. Adverts matter only while something is pending: with nothing
   pending there is nothing to steal, and [seen] goes stale. *)
let stay_awake t w ws =
  Atomic.get t.shutdown = aborted
  || Atomic.get ws.kill_flag
  || Atomic.get ws.q_state <> q_normal
  || Atomic.get ws.inbox <> []
  || Atomic.get t.pending > 0
     && List.exists
          (fun v -> Atomic.get t.states.(v).advert <> ws.seen.(v))
          t.victims.(w)
  || terminal t

(* Idle policy: a worker with nothing of its own parks as soon as a
   steal round finds no victim advertising worthy work, whatever
   [pending] says. It sleeps on its own condition variable until a
   waker clears [sleeping]: a hand-off to it, an advert bump by a
   victim with it first in line, or a broadcast. There is no spin and
   no timed sleep; a missed advert bump costs parallelism, never
   liveness, because an owner always drains its own queues. *)
let park t w ws =
  Atomic.set ws.sleeping true;
  if stay_awake t w ws then Atomic.set ws.sleeping false
  else begin
    (* Counted on falling asleep, so a parked worker shows in
       snapshots while it still is; the time is added after waking. *)
    let c = ws.counters in
    let t0 = Clock.now_ns () in
    c.parks <- c.parks + 1;
    c.parked_now <- true;
    Mutex.lock ws.park_lock;
    while Atomic.get ws.sleeping do
      Condition.wait ws.park_cond ws.park_lock
    done;
    Mutex.unlock ws.park_lock;
    c.parked_now <- false;
    c.park_seconds <- c.park_seconds +. Clock.elapsed_seconds ~since:t0;
    match t.trace with
    | Some tr -> Trace.record_park tr ~worker:w ~start_ns:t0 ~end_ns:(Clock.now_ns ())
    | None -> ()
  end

let worker_loop t w =
  let ws = t.states.(w) in
  let ctx =
    {
      worker = w;
      register =
        (fun ?color ~handler run ->
          (* Counted in this worker's own shard. *)
          if register_as "register" t ~internal:true ?color ~handler run then
            ws.counters.enqueued <- ws.counters.enqueued + 1);
    }
  in
  (match t.trace with
  | Some tr -> Trace.record_start tr ~worker:w ~ns:(Clock.now_ns ())
  | None -> ());
  let rec loop () =
    if Atomic.get t.shutdown = aborted then
      (* Exit without draining; wake siblings (and [stop]/[quiesce]
         waiters) so they notice the abort too. *)
      broadcast_all t
    else if Atomic.get ws.kill_flag then begin
      (* Deliberate death ([inject_worker_death]): always at an event
         boundary, so no accepted event is lost. *)
      Atomic.set ws.kill_flag false;
      raise Worker_killed
    end
    else begin
      (* Quarantine handshake: the supervisor saw our last handler run
         past the kill deadline. It has returned, so take the request
         back and carry on in place; losing the CAS means the confirm
         window ran out first and the slot was confiscated, so exit
         before touching [current] again. *)
      if
        Atomic.get ws.q_state <> q_normal
        && not (Atomic.compare_and_set ws.q_state q_requested q_normal)
      then raise Worker_confiscated;
      match next_event t w ws with
      | Some (event, cq) ->
        (* The busy stamp is raised before [pending] drops (SC): an
           observer seeing [pending = 0] sees this slot busy, so
           quiescence cannot be declared under a running handler. The
           stamp doubles as the heartbeat, the wedge age and the
           event's start; its end stamp is the next heartbeat. The
           event's counters are written before [busy_since] clears, so
           whoever observes quiescence reads exact totals. *)
        let t0 = Clock.now_ns () in
        Atomic.set ws.busy_since (max 1 (Int64.to_int t0));
        Atomic.decr t.pending;
        let t1 = execute t w ctx cq event ~t0 in
        Atomic.set ws.busy_since 0;
        Atomic.set ws.hb_last (Int64.to_int t1);
        loop ()
      | None ->
        if Atomic.get t.pending > 0 && try_steal t w then loop ()
        else if terminal t then
          (* Terminal quiescence: wake parked siblings and [quiesce]
             waiters so they observe it and exit too. *)
          broadcast_all t
        else begin
          (* Transient quiescence in a serving epoch only matters to
             [quiesce] waiters; they have their own condition variable,
             so parked siblings are not woken to ping-pong back. *)
          if
            Atomic.get t.n_waiters > 0
            && Atomic.get t.pending = 0
            && live_active t = 0
          then wake_quiescers t;
          park t w ws;
          loop ()
        end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Self-healing: death wrapper, color migration, supervisor domain.    *)

let set_phase ws p = Atomic.set ws.phase (phase_to_int p)

let get_phase ws = phase_of_int (Atomic.get ws.phase)

(* The dying domain's last act: fix the accounting for an event it was
   mid-way through (the event is consumed exactly once even when the
   consumer dies under it), leave a Death span in its own ring (still
   single-writer), and publish the death for the supervisor. [crashed]
   and the reason are written before [exited]: the supervisor reads
   them only after seeing [exited], so the atomic orders the plain
   field. *)
let on_death t w reason =
  let ws = t.states.(w) in
  (match ws.current with
  | Some cq when Atomic.get ws.busy_since <> 0 && Atomic.get cq.running > 0 ->
    (* Escaped from inside the handler: finish the event's accounting
       the same way the contained-failure path would have (counted
       executed, but with no latency sample to record). *)
    Atomic.decr cq.running;
    ws.counters.executed <- ws.counters.executed + 1
  | _ -> ());
  Atomic.set ws.busy_since 0;
  Atomic.set ws.hb_last (now_int ());
  (match t.trace with
  | Some tr -> Trace.record_death tr ~worker:w ~reason ~ns:(Clock.now_ns ())
  | None -> ());
  ws.death_reason <- reason;
  Atomic.set ws.crashed true

let worker_main t w =
  let ws = t.states.(w) in
  (match worker_loop t w with
  | () -> Atomic.set ws.crashed false  (* clean terminal-quiescence exit *)
  | exception Worker_killed -> on_death t w "killed"
  | exception Worker_confiscated -> on_death t w "confiscated"
  | exception e -> on_death t w (Printexc.to_string e));
  Atomic.set ws.live false;
  Atomic.set ws.exited true;
  (* Parked siblings re-check liveness and [quiesce]/[stop] waiters
     re-evaluate; a death also wakes the supervisor to reclaim the
     slot at once (a clean exit is joined by the lifecycle). *)
  broadcast_all t;
  if Atomic.get ws.crashed then wake_supervisor t

(* Re-home one color-queue onto [target]. The ownership store comes
   before the inbox push, exactly as in [steal_from], so whoever later
   claims the queue synchronizes after it; [chained] stays true the
   whole way, so a racing publisher cannot double-chain it. The
   hand-off wakes a parked target and advertises a worthy queue, like
   a publish. *)
let rehome t cq target =
  Atomic.set cq.owner target;
  hand_off t cq target;
  Atomic.incr t.migration_count

(* Sweep every color off slot [w] and migrate it to survivors,
   round-robin. Only the supervisor calls this, and only once the
   slot's domain is confirmed gone (joined, or confiscated past the
   handshake): nothing else touches the slot's owner-private state.
   Idempotent — later ticks re-run it to catch straggler publishes
   that chained onto the dead slot with a pre-sweep [owner] read (such
   a publish wakes the supervisor; see [hand_off]).
   Returns false when there is no live slot to migrate to. *)
let reclaim_slot t w =
  let ws = t.states.(w) in
  let targets =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun v ->
              if v <> w && Atomic.get t.states.(v).live then Some v else None)
            (Seq.init t.n Fun.id)))
  in
  match targets with
  | [] -> false
  | _ ->
    let ntargets = List.length targets in
    let ti = ref 0 in
    let next_target () =
      let v = List.nth targets (!ti mod ntargets) in
      incr ti;
      v
    in
    (match ws.current with
    | Some cq ->
      (* The in-flight queue: safe to take, the domain is gone (a
         wedged-but-alive domain goes through [force_confiscate],
         which never reaches here with [current] still set). Current
         queues are not counted in [n_chained]. *)
      ws.current <- None;
      Atomic.set ws.current_color (-1);
      Atomic.incr t.reclaim_count;
      rehome t cq (next_target ())
    | None -> ());
    let rec drain_deque () =
      match Spmc_queue.pop ws.deque with
      | Some cq ->
        Atomic.decr ws.n_chained;
        Atomic.incr t.reclaim_count;
        rehome t cq (next_target ());
        drain_deque ()
      | None -> ()
    in
    drain_deque ();
    (match Atomic.exchange ws.inbox [] with
    | [] -> ()
    | got ->
      List.iter
        (fun cq ->
          Atomic.decr ws.n_chained;
          Atomic.incr t.reclaim_count;
          rehome t cq (next_target ()))
        (List.rev got));
    true

let spawn_worker t w =
  let ws = t.states.(w) in
  Atomic.set ws.q_state q_normal;
  Atomic.set ws.kill_flag false;
  Atomic.set ws.busy_since 0;
  Atomic.set ws.hb_last (now_int ());
  Atomic.set ws.crashed false;
  Atomic.set ws.exited false;
  set_phase ws Supervision.Live;
  Atomic.set ws.live true;
  t.slot_domains.(w) <- Some (Domain.spawn (fun () -> worker_main t w))

(* A quarantined worker did not resume within the confirm window: it is
   wedged inside the handler with no way to preempt it. Win the
   confiscation CAS (the worker can now only observe it and exit),
   declare the slot Lost — it is never respawned while the zombie may
   run, so the zombie stays the sole writer of this slot's
   telemetry/trace shards — abandon the wedged color's backlog (its
   mutual exclusion cannot be certified while the zombie may still be
   running it) and migrate the innocent colors to survivors. *)
let force_confiscate t w =
  let ws = t.states.(w) in
  if Atomic.compare_and_set ws.q_state q_requested q_confiscated then begin
    Atomic.set ws.live false;
    set_phase ws Supervision.Lost;
    Atomic.set t.degraded true;
    (match ws.current with
    | Some cq ->
      ws.current <- None;
      Atomic.set ws.current_color (-1);
      Atomic.incr t.reclaim_count;
      let sh = shard_of t cq.color in
      (* Poison and drain under the shard lock: a push serialized
         before us is drained here; one serialized after sees
         [poisoned] and is refused. The wedged in-flight event counts
         abandoned too — if the zombie ever finishes it, [execute]
         sees [q_confiscated] and skips the executed increment, so it
         is never double-counted. *)
      let dropped = ref 1 in
      Spinlock.with_lock sh.sh_lock (fun () ->
          cq.poisoned <- true;
          let rec drain () =
            match evq_pop cq with
            | Some _ ->
              incr dropped;
              Atomic.decr t.pending;
              drain ()
            | None -> ()
          in
          drain ());
      ignore (Atomic.fetch_and_add t.abandoned !dropped)
    | None -> ());
    ignore (reclaim_slot t w);
    broadcast_all t
  end

(* Watchdog for one live slot: the busy stamp is the heartbeat. The
   phase is written here only (the worker takes a quarantine request
   back with its CAS alone), so a resumed slot reads Live again from
   the next tick on. *)
let check_live_slot t w now =
  let ws = t.states.(w) in
  let busy = Atomic.get ws.busy_since in
  let age = if busy = 0 then 0 else now - busy in
  if Atomic.get ws.q_state = q_requested then begin
    if now - ws.q_since > t.sup.confirm_wait_ns then force_confiscate t w
  end
  else if age > t.sup.wedge_kill_ns then begin
    (* Phase first: the worker may take the request back as soon as
       it is stored, and must not be left showing Quarantined. The
       broadcast wakes it if it parked between our busy read and the
       store, so a finished handler is never confiscated. *)
    ws.q_since <- now;
    set_phase ws Supervision.Quarantined;
    Atomic.set ws.q_state q_requested;
    broadcast_all t
  end
  else
    set_phase ws
      (if age > t.sup.wedge_warn_ns then Supervision.Suspect else Supervision.Live)

(* A slot's domain exited: join it (the wrapper finished, so the join
   is immediate and provides the happens-before for the sweep), then
   reclaim it; a dead slot stays down until the next lifecycle start.
   Clean terminal-quiescence exits released everything themselves;
   Lost slots were reclaimed at confiscation. [degraded] is raised
   before the sweep, so a queue created after the sweep is homed on a
   live slot ([live_home]). *)
let handle_exit t w =
  let ws = t.states.(w) in
  (match t.slot_domains.(w) with
  | Some d ->
    Domain.join d;
    t.slot_domains.(w) <- None
  | None -> ());
  Atomic.set ws.exited false;
  if Atomic.get ws.crashed && get_phase ws <> Supervision.Lost then begin
    set_phase ws Supervision.Dead;
    Atomic.set t.degraded true;
    ignore (reclaim_slot t w)
  end

let supervise_tick t =
  let now = now_int () in
  for w = 0 to t.n - 1 do
    let ws = t.states.(w) in
    if Atomic.get ws.exited then handle_exit t w
    else if Atomic.get ws.live then check_live_slot t w now
    else if get_phase ws = Supervision.Dead || get_phase ws = Supervision.Lost
    then
      (* Down slot: catch straggler publishes that chained onto it
         behind a pre-sweep [owner] read. *)
      ignore (reclaim_slot t w)
  done;
  (* With every slot down, pending work can never drain: abort so
     drains and [quiesce] waiters return honestly instead of hanging —
     the degraded-to-zero endgame. *)
  if
    Atomic.get t.pending > 0
    && Atomic.get t.shutdown <> aborted
    && (not (Array.exists (fun ws -> Atomic.get ws.live) t.states))
    && not (Array.exists (fun ws -> Atomic.get ws.exited) t.states)
  then request_abort t

(* The supervisor sleeps in [select] on its self-pipe until a death, a
   stranded hand-off or [stop_monitor] writes to it, or until a quarter
   of the warn deadline has passed — the cadence at which busy handlers
   are aged. An idle runtime thus wakes it four times a second by
   default, instead of on a fixed poll. *)
let monitor_loop t wake_r =
  let period = float_of_int t.sup.wedge_warn_ns /. 4e9 in
  let buf = Bytes.create 64 in
  while not (Atomic.get t.mon_stop) do
    supervise_tick t;
    match Unix.select [ wake_r ] [] [] period with
    | [], _, _ -> ()
    | _ -> ( try ignore (Unix.read wake_r buf 0 64) with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
      (* [select] refuses an fd past FD_SETSIZE (a runtime started
         with over 1,024 fds open): poll instead, missing a wake by at
         most 5 ms. *)
      Unix.sleepf (Float.min period 0.005)
  done;
  (* Final sweep so domains whose wrapper finished while we were being
     stopped are joined before the lifecycle collects the rest. *)
  supervise_tick t

let stop_monitor t =
  Atomic.set t.mon_stop true;
  wake_supervisor t;
  (match t.monitor with Some d -> Domain.join d | None -> ());
  t.monitor <- None;
  (* Both ends close together, under the lock: a write never finds the
     read end closed (which would raise SIGPIPE). *)
  Mutex.lock t.wake_lock;
  Option.iter
    (fun (r, w) ->
      Unix.close r;
      Unix.close w)
    t.wake_pipe;
  t.wake_pipe <- None;
  Mutex.unlock t.wake_lock

(* Join every slot domain that can be joined. A force-confiscated
   zombie that never returned cannot be joined without hanging; its
   handle is abandoned — the slot is Lost and the runtime degraded,
   which is the honest cost of a handler that never yields. *)
let join_workers t =
  Array.iteri
    (fun w d ->
      match d with
      | None -> ()
      | Some d ->
        let ws = t.states.(w) in
        if get_phase ws <> Supervision.Lost || Atomic.get ws.exited then begin
          Domain.join d;
          t.slot_domains.(w) <- None
        end)
    t.slot_domains

(* Spawn workers on every joinable slot plus the supervisor and its
   self-pipe. A fresh lifecycle respawns Dead slots, and gives
   previously-Lost slots another chance as long as their zombie was
   actually joined; [degraded] is recomputed from what is still stuck. *)
let spawn_all t =
  Atomic.set t.mon_stop false;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Mutex.lock t.wake_lock;
  t.wake_pipe <- Some (wake_r, wake_w);
  Mutex.unlock t.wake_lock;
  for w = 0 to t.n - 1 do
    if t.slot_domains.(w) = None then spawn_worker t w
  done;
  Atomic.set t.degraded
    (Array.exists (fun ws -> get_phase ws = Supervision.Lost) t.states);
  t.monitor <- Some (Domain.spawn (fun () -> monitor_loop t wake_r))

(* Wait for a moment of quiescence without stopping. Workers broadcast
   [quiesce_cond] (under [quiesce_lock]) every time they observe
   [pending = 0] with nothing executing on a live slot and waiters
   present, and terminal quiescence / abort / worker death broadcast
   unconditionally, so the predicate here cannot miss its wakeup.
   Counting only *live* slots is what keeps a drain from hanging on a
   worker that died mid-drain (its colors finish on survivors). *)
let quiesce t =
  Mutex.lock t.quiesce_lock;
  Atomic.incr t.n_waiters;
  while
    Atomic.get t.shutdown <> aborted
    && not (Atomic.get t.pending = 0 && live_active t = 0)
  do
    Condition.wait t.quiesce_cond t.quiesce_lock
  done;
  Atomic.decr t.n_waiters;
  Mutex.unlock t.quiesce_lock

let run_until_idle t =
  Mutex.lock t.lifecycle_lock;
  if t.running then begin
    Mutex.unlock t.lifecycle_lock;
    invalid_arg "Rt.Runtime.run_until_idle: already running"
  end;
  t.running <- true;
  Atomic.set t.shutdown accepting;
  Mutex.unlock t.lifecycle_lock;
  spawn_all t;
  (* Workers exit at terminal quiescence (or abort) on their own; the
     supervisor keeps healing mid-run, so the join set can grow — wait
     for quiescence first, then stop the supervisor, then collect. *)
  quiesce t;
  stop_monitor t;
  join_workers t;
  Mutex.lock t.lifecycle_lock;
  t.running <- false;
  Mutex.unlock t.lifecycle_lock

let start t =
  Mutex.lock t.lifecycle_lock;
  if t.running then begin
    Mutex.unlock t.lifecycle_lock;
    invalid_arg "Rt.Runtime.start: already running"
  end;
  t.running <- true;
  Atomic.set t.shutdown accepting;
  Atomic.set t.serving true;
  spawn_all t;
  Mutex.unlock t.lifecycle_lock

let stop t =
  Mutex.lock t.lifecycle_lock;
  if not (Atomic.get t.serving) then begin
    Mutex.unlock t.lifecycle_lock;
    invalid_arg "Rt.Runtime.stop: not serving"
  end;
  (* Close the gate (unless an abort already did) and wake everyone:
     workers drain the backlog, then exit at quiescence. The
     supervisor stays up during the drain — a worker that dies
     mid-drain has its colors migrated so the backlog still finishes
     on survivors before the join. *)
  ignore (Atomic.compare_and_set t.shutdown accepting draining);
  broadcast_all t;
  quiesce t;
  stop_monitor t;
  join_workers t;
  Atomic.set t.serving false;
  t.running <- false;
  Mutex.unlock t.lifecycle_lock

let inject_worker_death t w =
  if w < 0 || w >= t.n then
    invalid_arg "Rt.Runtime.inject_worker_death: no such worker";
  Atomic.set t.states.(w).kill_flag true;
  broadcast_all t

let pending t = Atomic.get t.pending
let refused t = Atomic.get t.refused
let is_serving t = Atomic.get t.serving
let abandoned t = Atomic.get t.abandoned
let migrations t = Atomic.get t.migration_count
let is_degraded t = Atomic.get t.degraded

let live_workers t =
  Array.fold_left
    (fun acc ws -> if Atomic.get ws.live then acc + 1 else acc)
    0 t.states

let worker_phase t w =
  if w < 0 || w >= t.n then
    invalid_arg "Rt.Runtime.worker_phase: no such worker";
  phase_of_int (Atomic.get t.states.(w).phase)

let trace t = t.trace

(* Conservation audit over the lock-free structure. Takes every shard
   lock (freezing publishers and retire, not consumers), then checks:

   - a mapped queue is never retired and is keyed by its own color;
   - queued lengths are never negative ([popped] may read stale from
     here, but stale-low only overcounts the length, so a negative
     reading is a real bug);
   - at quiescence ([pending = 0 && active = 0] observed under the
     locks, with the caller synchronized against the workers — e.g.
     after [quiesce] or [stop] returned) the structure must be empty:
     every length counter zero and agreeing with a walk of its linked
     queue, consumed weight equal to enqueued weight, every chain
     count zero.

   Mid-flight the per-queue walk and the exact totals are skipped:
   consumers advance [evq_head]/[popped] without a lock, so only the
   quiescent snapshot is exact. *)
let debug_check_conservation t =
  Array.iter (fun sh -> Spinlock.acquire sh.sh_lock) t.shards;
  let pending_now = Atomic.get t.pending in
  let active_now = live_active t in
  let quiescent = pending_now = 0 && active_now = 0 in
  let problem = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  let total = ref 0 in
  Array.iter
    (fun sh ->
      Hashtbl.iter
        (fun color cq ->
          if cq.retired then note "color %d: retired queue still mapped" color;
          if color <> cq.color then note "color %d: mapped queue says color %d" color cq.color;
          let len = cq_len cq in
          if len < 0 then note "color %d: negative queue length %d" color len;
          total := !total + max 0 len;
          (* A poisoned queue belonged to a confiscated slot: its
             backlog was abandoned without consuming weight, and its
             zombie may still hold [running] — the exact quiescent
             invariants no longer apply to it. *)
          if quiescent && not cq.poisoned then begin
            if len <> 0 then note "color %d: %d events queued at quiescence" color len;
            let rec walk n acc =
              match Atomic.get n.node_next with None -> acc | Some m -> walk m (acc + 1)
            in
            let actual = walk cq.evq_head 0 in
            if actual <> len then
              note "color %d: counter says %d queued, walk finds %d" color len actual;
            if cq.weighted_in <> cq.weighted_out then
              note "color %d: weighted in %d <> out %d at quiescence" color
                cq.weighted_in cq.weighted_out;
            if Atomic.get cq.running <> 0 then
              note "color %d: running %d at quiescence" color (Atomic.get cq.running)
          end)
        sh.sh_tbl)
    t.shards;
  (* [popped] can read stale (low) from here mid-flight, so the length
     sum can only overcount; the exact [<= pending] bound is therefore
     asserted only on the quiescent snapshot, where it degenerates to
     the per-queue emptiness checks above. *)
  if quiescent && !total > pending_now then
    note "queued events (%d) exceed pending (%d)" !total pending_now;
  if quiescent then
    Array.iteri
      (fun w ws ->
        let c = Atomic.get ws.n_chained in
        if c <> 0 then note "worker %d: n_chained = %d at quiescence" w c;
        if Atomic.get ws.current_color >= 0 then
          note "worker %d: current color %d at quiescence" w (Atomic.get ws.current_color))
      t.states;
  Array.iter (fun sh -> Spinlock.release sh.sh_lock) t.shards;
  !problem

(* Overload-armor notifications from serving layers above the runtime
   (lib/rtnet). Both must be called from inside a handler running on
   [worker]: the trace ring is single-writer per worker domain, so the
   calling domain has to be the one executing that worker's loop. *)
let note_shed t ~worker ~color =
  let c = t.states.(worker).counters in
  c.sheds <- c.sheds + 1;
  match t.trace with
  | Some tr -> Trace.record_shed tr ~worker ~color ~ns:(Clock.now_ns ())
  | None -> ()

let note_evict t ~worker ~color =
  let c = t.states.(worker).counters in
  c.evictions <- c.evictions + 1;
  match t.trace with
  | Some tr -> Trace.record_evict tr ~worker ~color ~ns:(Clock.now_ns ())
  | None -> ()

let telemetry t = t.telemetry

(* Assemble the full telemetry-plane snapshot. Safe at any instant:
   every source is either atomic or a single-writer cell whose racy
   read is monotone (see [Telemetry]). Each shard is sampled once and
   every total is derived from those samples — steals out from the
   steal matrix's columns, the runtime totals from sums over workers —
   so the snapshot agrees with itself exactly. With [swap_window] the
   streaming windows are rotated first, so the returned window
   histograms cover the interval since the previous swap. *)
let telemetry_snapshot ?(swap_window = false) t =
  if swap_window then Telemetry.swap_window t.telemetry;
  let snap_now = now_int () in
  let samples = Array.init t.n (fun w -> Telemetry.sample t.telemetry ~worker:w) in
  let steals_out = Array.make t.n 0 in
  Array.iter
    (fun (s : Telemetry.sample) ->
      Array.iteri (fun v k -> steals_out.(v) <- steals_out.(v) + k) s.steals_from)
    samples;
  let worker w (s : Telemetry.sample) =
    let ws = t.states.(w) in
    let busy = Atomic.get ws.busy_since in
    {
      Telemetry.w_id = w;
      w_metrics = { s.counters with steals_out = steals_out.(w) };
      w_inbox_depth = Atomic.get ws.n_chained;
      w_current_color = Atomic.get ws.current_color;
      w_qwait_sum_ns = s.qwait_sum_ns;
      w_service_sum_ns = s.service_sum_ns;
      w_qwait = s.qwait;
      w_service = s.service;
      w_qwait_win = s.qwait_win;
      w_service_win = s.service_win;
      w_steals_from = s.steals_from;
      w_live = Atomic.get ws.live;
      w_phase = phase_of_int (Atomic.get ws.phase);
      w_hb_age_ns = max 0 (snap_now - Atomic.get ws.hb_last);
      w_busy_ns = (if busy = 0 then 0 else max 0 (snap_now - busy));
    }
  in
  let sum f = Array.fold_left (fun acc (s : Telemetry.sample) -> acc + f s.counters) 0 samples in
  {
    Telemetry.s_epoch = Telemetry.epoch t.telemetry;
    s_workers = Array.mapi worker samples;
    s_executed = sum (fun c -> c.executed);
    s_pending = Atomic.get t.pending;
    s_active = live_active t;
    s_steals = sum (fun c -> c.steals_in);
    s_steal_attempts = sum (fun c -> c.steal_rounds);
    s_refused = Atomic.get t.refused;
    s_errors = sum (fun c -> c.errors);
    s_serving = Atomic.get t.serving;
    s_accepting = Atomic.get t.shutdown = accepting;
    s_worthy_threshold = Mely.steal_cost_prior;
    s_live_workers = live_workers t;
    s_degraded = Atomic.get t.degraded;
    s_migrations = Atomic.get t.migration_count;
    s_reclaimed = Atomic.get t.reclaim_count;
    s_abandoned = Atomic.get t.abandoned;
  }
