(** The paper's scheduling decisions, defined once.

    Both the simulated scheduler ({!Engine.Mely_sched}) and the real
    runtime on domains ({!Rt.Runtime}) take each Section III/IV
    decision from here, and both replay checkers are the pair below, so
    "the runtime runs the paper's algorithm" is a property the
    differential test can check instead of a comment. *)

val weight : declared:int -> penalty:int -> int
(** Per-event contribution to a color's perceived stealable time: the
    handler's declared (profiled) cycles divided by its workstealing
    penalty, floored at 1 (the penalty-aware heuristic, Section III-C).
    [penalty] must be >= 1. *)

val steal_cost_prior : int
(** 2,000 cycles: the cost of one steal assumed before any steal was
    measured. The simulator's online estimate starts here; the runtime
    uses it as its worthiness bar. *)

val worthy : steal_cost:int -> int -> bool
(** The time-left test (Section III-B): [worthy ~steal_cost remaining]
    holds when a color's remaining weighted work exceeds the cost of
    stealing it. *)

val batch_threshold : int
(** 10: events of one color an owner runs before rotating to its next
    color-queue, so a long-running color cannot starve the others
    (Section IV). *)

val victim_order : Hw.Topology.t -> n:int -> int -> int list
(** The locality-aware victim order (Section III-A): the cores of the
    first [n] ids other than the thief, nearest cache first, distance
    ties broken by ascending id ({!Hw.Topology.cores_by_distance}). *)

(** {1 Replay checkers}

    One execution of an event, as both traces record it: its color, its
    registration order within the color ([seq]), and its execution
    interval [\[start, stop)]. The checkers take the trace's own items
    and a projection to this record, and return the first offending
    pair of items. *)

type span = { color : int; seq : int; start : int; stop : int }

val check_mutual_exclusion : ('a -> span) -> 'a list -> ('a * 'a) option
(** A pair of same-color executions whose intervals overlap:
    [\[a, b)] and [\[c, d)] overlap when [a < d && c < b]. *)

val check_fifo_per_color : ('a -> span) -> 'a list -> ('a * 'a) option
(** A same-color pair that started out of registration order: per
    color, the items sorted by start time (ties keep list order) must
    have increasing [seq]. *)
