(** Execution traces for invariant checking.

    When tracing is enabled, the schedulers record one entry per event
    execution. The test suite replays the trace to verify the runtime's
    two safety properties:

    - {b color mutual exclusion}: the execution intervals of two events
      with the same color never overlap in virtual time, whatever core
      executed them;
    - {b per-color FIFO}: events of one color execute in registration
      order.

    Tracing costs memory proportional to the number of events, so it is
    off by default and enabled only in tests. *)

type entry = {
  event_seq : int;
  color : int;
  handler : string;
  core : int;
  t_start : int;
  t_end : int;
  stolen : bool;  (** executed on a core other than where it was enqueued *)
}

type t

val create : unit -> t
val record : t -> entry -> unit
val entries : t -> entry list
(** In recording order. *)

val length : t -> int

val check_mutual_exclusion : t -> (entry * entry) option
(** {!Mely.check_mutual_exclusion} over the entries: a pair of
    same-color overlapping executions, if any. *)

val check_fifo_per_color : t -> (entry * entry) option
(** {!Mely.check_fifo_per_color} over the entries: a same-color pair
    started out of registration order, if any. *)

val steal_ratio : t -> float
