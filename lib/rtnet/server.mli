(** A real TCP front-end for the domain runtime — SWS's Figure 6 mapped
    onto {!Rt.Runtime} and actual sockets.

    [shards] poller domains split the fd space over {!Epoll}
    (edge-triggered epoll, so this module needs Linux): each shard owns
    a disjoint slice of connections — its own epoll instance, timer
    wheel, read-buffer pool and wake eventfd — and does everything for its slice: waits,
    reads, injects colored events ({!Rt.Runtime.try_register_batch},
    one gate decision per wait return, the shard id as placement
    hint), enforces deadlines, closes. Shard 0 additionally owns the
    shared listener and hands accepted fds round-robin to the shards.
    The old single-select front end's [FD_SETSIZE] (~1024 fd) ceiling
    and O(conns) per-lap interest rebuild are gone. The connection fd
    is the color, so one connection's requests stay strictly ordered
    while distinct connections spread across the worker domains via
    stealing.

    Ownership boundary (see DESIGN.md §5e/§5g): every mutable field of
    a connection record is touched only inside events of that
    connection's color (parse state, output slice queue), or only by
    the owning shard (fd lifetime); the two sides talk through a few
    atomics ([inflight], [want_write], [wants_close], [shard_waits])
    plus a per-shard attention stack. A connection's edges (read and
    write) are registered once at accept; an event that leaves output
    stalled re-arms the write edge itself. Only the shard raises
    [inflight], once per event it injects; every event ends by dropping
    it, and wakes the shard only when the shard may now close the
    connection (close wanted, draining, or EOF/error seen while the
    event ran). The shard closes an fd only once no event of that
    connection is queued or executing, so a handler can never write
    into a recycled descriptor.

    Per-connection state machine: accumulate bytes →
    {!Httpkit.Request.parse} (with the resume hint, so torn requests
    cost O(bytes) not O(bytes²)) → serve pipelined keep-alive requests
    from the response cache, each answered inside the read event that
    parsed it, in wire order → retry short writes when the socket
    drains. One read event is one runtime event, however many requests
    its bytes complete. A malformed request gets a [400] and closes that
    one connection; a raising handler gets a [500], closes that one
    connection (requests pipelined behind it are not answered), and is
    contained by the runtime — sibling connections keep serving either
    way.

    Overload armor (DESIGN.md §5f): a header block that never completes
    within [overload.header_deadline] is evicted with a [408] (slow
    loris), a header block over [max_request_bytes] gets a [431], an
    idle keep-alive connection is closed quietly after
    [overload.idle_deadline], a peer that stops draining our output for
    [overload.write_deadline] is dropped, a request parsed once the
    runtime backlog plus the requests its read event already answered
    reaches [overload.shed_pending_hwm] is shed with a
    [503 + Connection: close], and EMFILE/ENFILE on accept backs
    the acceptor off exponentially (50 ms doubling to 1 s) instead of
    hot-looping. Every one of these shows up in {!stats}, in the
    worker's {!Rt.Telemetry.counters} (sheds / evictions) and — when
    tracing is on — as [Shed] / [Evict] spans in the {!Rt.Trace}
    flight recorder.

    Fault plane: every network syscall the server makes (read, write,
    accept, select, close) is routed through an {!Rt.Faults} shim. The
    default is {!Rt.Faults.passthrough} — one constructor check per
    call, no behavior change. Passing a seeded instance replays a
    deterministic schedule of errnos, torn I/O and delays, which is how
    the chaos suite proves the armor holds ([melyctl rt chaos]).

    Lifecycle: {!stop} drains gracefully — the listener refuses
    connections arriving mid-drain, queued requests complete, output
    buffers flush, then every fd is closed (a deadline bounds the
    wait). If the *runtime* is stopped instead, its shutdown gate
    refuses the poller's injections and the affected connections are
    closed cleanly. *)

type t

include module type of struct
  include Net_stats
end
(** [type stats = Net_stats.stats = { conns_accepted; ... }]: the
    front end's counters, per shard or aggregated. *)

type overload = {
  header_deadline : float;
      (** seconds a connection may sit on an incomplete request header
          before a 408 eviction (slow-loris armor) *)
  idle_deadline : float;
      (** seconds an idle keep-alive connection is kept before a quiet
          close *)
  write_deadline : float;
      (** seconds without write progress while output is pending before
          the connection is dropped; the timing wheel visits every
          connection at least once per write deadline, so the drop
          comes within two of them *)
  shed_pending_hwm : int;
      (** shed budget in requests: a newly parsed request is shed with
          a 503 once the runtime backlog ({!Rt.Runtime.pending}) plus
          the requests its read event has already answered reaches this
          value; [0] sheds everything (useful in tests) *)
}

val default_overload : overload
(** [header_deadline = 10.], [idle_deadline = 30.],
    [write_deadline = 10.], [shed_pending_hwm = 4096]. *)

val create :
  rt:Rt.Runtime.t ->
  ?shards:int ->
  ?max_clients:int ->
  ?backlog:int ->
  ?max_request_bytes:int ->
  ?drain_deadline:float ->
  ?overload:overload ->
  ?faults:Rt.Faults.t ->
  ?app:(Httpkit.Request.t -> string) ->
  ?admin_port:int ->
  cache:(string, string) Hashtbl.t ->
  port:int ->
  unit ->
  t
(** Bind a listening socket on [port] ([0] picks an ephemeral port,
    read it back with {!port}) and prepare the serving state; no domain
    is spawned yet. [shards] (default 1, must be >= 1) is the number of
    poller shard domains. [app] maps a parsed request to complete response
    bytes and may raise (the failure is contained); it defaults to a
    lookup in [cache] (the prebuilt-response Flash cache, see
    {!Httpkit.Response.prebuild_cache}) with 404 on miss and
    headers-only answers for [HEAD]. [max_clients] (default 1024) caps
    simultaneous accepted connections across all shards;
    [max_request_bytes] (default 65536) bounds one request's header
    block (431 past it); [drain_deadline] (default 5 s) bounds the
    graceful drain in {!stop}; [overload] (default
    {!default_overload}) configures the deadline/shedding armor;
    [faults] (default passthrough) is the syscall fault plane.
    [admin_port] (default absent) binds a second loopback listener for
    the telemetry plane: its connections are ordinary fd-colored
    events on shard 0 answering [GET /metrics] (Prometheus text),
    [GET /stats.json] (full snapshot; [?swap=1] also rotates the
    histogram window epoch) and [GET /healthz] (200 accepting, 503
    draining); they are exempt from [max_clients] and load shedding
    and stay readable through a short drain grace so a scraper can
    observe the drain itself. Deadlines must be positive,
    [shed_pending_hwm >= 0]. Ignores [SIGPIPE] process-wide (a server
    must). *)

val start : t -> unit
(** Spawn the poller shard domains and begin serving. The runtime must
    already be serving ({!Rt.Runtime.start}); raises
    [Invalid_argument] otherwise, or if this server was already
    started or stopped. *)

val port : t -> int
(** The actually-bound TCP port. *)

val admin_port : t -> int option
(** The actually-bound admin TCP port, when [create] was given
    [~admin_port] ([Some 0] input picks an ephemeral port too). *)

val shard_count : t -> int

val stop : t -> unit
(** Graceful drain: refuse new connections, let accepted requests
    complete and output buffers flush (bounded by [drain_deadline]),
    close every connection and the listener, join the shard domains.
    Does not stop the runtime — that is the caller's. Idempotent. *)

val stats : t -> stats
(** Aggregate over the shards. Conservation:
    [conns_accepted = conns_closed] after {!stop}, and
    [reqs_parsed = reqs_served + reqs_failed + reqs_shed] whenever
    every accepted request has run (e.g. after a graceful drain) —
    the invariants [melyctl rt chaos] asserts under fault injection. *)

val shard_stats : t -> stats array
(** Per-shard counters, index [i] for shard [i]. A connection is
    accepted, served and closed by one shard, so the two conservation
    identities above hold for every element as well as for the
    {!stats} aggregate. [faults_injected] is plane-global and reported
    only in the aggregate (0 here). *)

val ownership_violations : t -> int
(** fd-slice disjointness audit: incremented whenever a shard installs
    an fd another shard still owns, or closes one it does not own.
    Always 0 unless the sharding logic is broken; the tests assert
    on it. *)

val bufpool_stats : t -> int * int
(** Summed [(allocated, reused)] read-buffer checkout counts across
    the shards' {!Bufpool}s. *)
