(** Deterministic syscall fault injection for the serving stack.

    Every [Unix] call the TCP front-end makes (read/write/accept/
    select/close) is routed through a shim that consults a fault plane
    before touching the kernel. The default plane is {!passthrough}:
    one constructor check per call, no locking, no randomness — serving
    performance is unchanged. A {!seeded} plane draws each decision
    from a per-site SplitMix64 stream derived from the seed, so the
    k-th decision at a given site is a pure function of
    [(seed, plan, k)]: a hostile-network scenario becomes a
    reproducible schedule instead of a flaky hope.

    The shim itself lives with its call sites (see
    [lib/rtnet/server.ml]); this module only decides {e what} happens:
    pass the call through, raise an errno before the syscall, cap the
    byte count of a read/write (torn I/O), or delay then pass. *)

(** Call sites routed through the shim: the serving stack's syscalls. *)
type site = Read | Write | Accept | Select | Close

val site_name : site -> string
val all_sites : site list

(** One decision. [Errno e] means the syscall is not performed and
    [Unix.Unix_error (e, _, _)] is raised instead. [Torn n] means a
    read/write is performed with its length capped at [n >= 1]
    (harmless passthrough at sites without a length). [Delay s] sleeps
    [s] seconds, then performs the call. *)
type outcome = Pass | Errno of Unix.error | Torn of int | Delay of float

(** Per-site probabilities. [errnos] are disjoint probabilities (their
    sum plus [torn] plus [delay] must be <= 1; the remainder is
    [Pass]). [Torn] lengths are drawn uniformly from [1..torn_cap]. *)
type site_plan = {
  errnos : (Unix.error * float) list;
  torn : float;
  torn_cap : int;
  delay : float;
  delay_s : float;
}

type plan = {
  read : site_plan;
  write : site_plan;
  accept : site_plan;
  select : site_plan;
  close : site_plan;
}

val calm : site_plan
(** All probabilities zero: decisions are always [Pass]. *)

val calm_plan : plan

val hostile_plan : plan
(** The chaos default: EINTR everywhere, torn reads and writes,
    ECONNRESET/EPIPE on the data path, occasional EMFILE and delayed
    accepts — the Section V saturation mix made reproducible. *)

type t

val passthrough : t
(** The no-op plane: {!decide} always answers [Pass] without locking. *)

val seeded : ?plan:plan -> int -> t
(** [seeded ~plan seed] builds an active plane. Each site owns an
    independent stream split from [seed], so one site's decision
    sequence does not depend on how calls at other sites interleave
    with it. [plan] defaults to {!hostile_plan}. *)

val is_active : t -> bool

val set_plan : t -> plan -> unit
(** Swap the plan of an active plane (e.g. stop injecting EMFILE once a
    test has seen the backoff engage). No-op on {!passthrough}. *)

val decide : t -> site -> outcome
(** Draw the next decision for [site]. Thread-safe: active planes
    serialize draws under a mutex, per-site streams keep the schedule
    deterministic per site regardless of cross-site interleaving. *)

(** Decisions taken so far at one site. *)
type counts = { passes : int; errnos : int; torn : int; delays : int }

val counts : t -> site -> counts

val injected : t -> int
(** Total non-[Pass] decisions across all sites. *)
