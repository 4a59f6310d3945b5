(** Event handlers and their workstealing annotations.

    A handler is the unit of code an event triggers. The paper's
    heuristics rely on two per-handler annotations, both produced by
    profiling and set by the application programmer (Sections III-B and
    III-C):

    - [declared_cycles]: the average processing time of the handler,
      used by the time-left heuristic to compute how much work a color
      still represents;
    - [penalty]: the workstealing penalty. The cumulative time a color
      contributes to the stealing-queue is divided by this factor, so
      handlers touching large, long-lived data sets can be made
      unattractive to thieves (penalty 1000 in the paper's *penalty*
      microbenchmark). *)

type t = private {
  id : int;
  name : string;
  mutable declared_cycles : int;
  mutable penalty : int;
}

val make : ?declared_cycles:int -> ?penalty:int -> string -> t
(** Fresh handler with a unique id. [declared_cycles] defaults to 1000,
    [penalty] to 1 (no penalty). [penalty] must be >= 1. *)

val set_declared_cycles : t -> int -> unit
val set_penalty : t -> int -> unit

val pp : Format.formatter -> t -> unit
