(** Mely's event storage: color-queues, core-queues and stealing-queues
    (Section IV-A of the paper, Figure 5).

    Events of one color live together in a {e color-queue}; the
    color-queues owned by a core are chained into its doubly-linked
    {e core-queue}. This makes [construct_event_set] an O(1) splice
    instead of Libasync-smp's O(queue length) scan — the main structural
    reason Mely steals 12.5x to 32x faster.

    Each core additionally keeps a {e stealing-queue} holding the
    {e worthy} colors: those whose cumulative (penalty-weighted)
    processing time exceeds the current estimate of the cost of one
    steal. To balance insertion and lookup costs the stealing-queue is
    only partially ordered: three geometric time-left intervals
    ([1x..4x), [4x..16x), [16x..inf) of the steal-cost estimate), FIFO
    within an interval. Entries are validated lazily on pop, so
    insertion is O(1). *)

type color_queue = {
  color : int;
  events : Event.t Queue.t;
  mutable owner : int;  (** core whose core-queue currently holds this color *)
  mutable weighted : int;  (** cumulative penalty-weighted declared time *)
  mutable actual_cost : int;  (** cumulative nominal cost, for the stolen-time metric *)
  mutable in_core_queue : bool;
  mutable cq_prev : color_queue option;
  mutable cq_next : color_queue option;
  mutable sq_bucket : int;  (** stealing-queue interval this color belongs to; -1 = not worthy *)
}

type core_queue

val create_core_queue : core:int -> core_queue
val core : core_queue -> int
val n_colors : core_queue -> int
val n_events : core_queue -> int
val is_empty : core_queue -> bool

val make_color_queue : color:int -> owner:int -> color_queue

val append : core_queue -> color_queue -> unit
(** Chain a color-queue at the tail; it must not be in any core-queue. *)

val detach : core_queue -> color_queue -> unit
(** O(1) splice out; the color-queue keeps its events. *)

val head : core_queue -> color_queue option
val rotate : core_queue -> unit
(** Move the head color-queue to the tail (batch-threshold rotation). *)

val push_event : color_queue -> core_queue option -> Event.t -> weighted:int -> unit
(** Add an event: updates the queue's cumulative times and, when the
    color-queue is chained, the owning core-queue's event count. *)

val pop_event : color_queue -> core_queue option -> Event.t option
(** Remove the oldest event, updating the nominal-cost accumulator and
    the core-queue's event count. The caller subtracts the event's
    penalty-weighted time from [weighted] (it knows the handler and
    which heuristics are active). *)

val fold_colors : ('a -> color_queue -> 'a) -> 'a -> core_queue -> 'a
(** Head-to-tail fold over chained color-queues. *)

val find_color : (color_queue -> bool) -> core_queue -> color_queue option * int
(** First chained color-queue satisfying the predicate, walking from
    the head and stopping at the first hit; paired with the number of
    color-queues inspected. *)

(** The per-core stealing-queue. *)
module Stealing : sig
  type t

  val create : unit -> t

  val bucket_of : weighted:int -> estimate:int -> int
  (** Desired interval for a cumulative weighted time: -1 when not
      {!Mely.worthy} against [estimate], else 0, 1 or 2. *)

  val update : t -> color_queue -> estimate:int -> bool
  (** Recompute the color's bucket; (re)enqueue it if the bucket
      changed. Returns [true] when a structural update happened (the
      scheduler charges a cycle cost for it). *)

  val clear_membership : color_queue -> unit
  (** Mark a color as no longer in this stealing-queue (on steal or
      drain); stale bucket entries are skipped lazily. *)

  val pop_best :
    t -> exclude:int option -> validate:(color_queue -> bool) -> (color_queue * int) option
  (** Best worthy color: scan buckets from the highest interval,
      skipping stale entries and the excluded (currently-executing)
      color. Returns the color-queue and the number of entries
      inspected. The returned color keeps its bucket membership cleared
      (caller is stealing it). Excluded-but-valid entries also get their
      membership cleared and are dropped — the owner re-inserts the
      color on its next push or pop — so an idle core probing a busy
      neighbour does not keep paying for the same unstealable color. *)

  val is_empty : t -> bool
  val pending_entries : t -> int
end
