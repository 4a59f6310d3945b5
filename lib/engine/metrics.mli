(** Runtime-level counters backing the paper's measurements.

    These are the numbers reported in Tables I, III and IV: events
    executed per second, the average cycles a thief spends performing a
    steal ("stealing time"), and the average processing time of the sets
    of events it obtains ("stolen time"). Machine-level numbers (lock
    spin time, L2 misses) live in {!Sim.Machine} and {!Hw.Cache}; the
    harness combines both. *)

type t

val create : unit -> t

val on_register : t -> unit
val on_execute : t -> cycles:int -> unit
(** One event executed; [cycles] includes cache-access cost. *)

val on_steal_attempt : t -> unit
val on_steal_success :
  t -> thief_cycles:int -> work_cycles:int -> events:int -> stolen_cost:int -> unit
(** [thief_cycles]: time from the start of the stealing procedure to
    migration complete, including spinning on contended locks (the
    paper's "stealing time"). [work_cycles]: the same interval with the
    spin time removed — what one steal inherently costs; this is what
    feeds the online estimate, so contention spikes cannot talk the
    time-left heuristic out of stealing permanently. [stolen_cost]:
    summed nominal processing time of the stolen set. *)

val on_steal_failure : t -> thief_cycles:int -> unit

val registered : t -> int
val executed : t -> int
val exec_cycles : t -> int
val steal_attempts : t -> int
val steals : t -> int
val stolen_events : t -> int

val avg_steal_cycles : t -> float
(** Average thief cycles per successful steal — the paper's "stealing
    time". 0 when no steal succeeded. *)

val avg_stolen_cost : t -> float
(** Average summed processing time of a stolen set — the paper's
    "stolen time". *)

val total_steal_cycles : t -> int
(** Thief cycles across all attempts, successful or not. *)

val steal_cost_estimate : t -> int
(** Online estimate (EWMA) of the cycles one steal costs; this is the
    runtime's built-in monitoring that feeds the time-left heuristic
    (Section IV-B). Starts at {!Mely.steal_cost_prior}. *)
