(** Runtime configuration: which scheduler features are active.

    The evaluation compares five configurations:
    - Libasync-smp without workstealing,
    - Libasync-smp with its base workstealing,
    - Mely without workstealing,
    - Mely with the base workstealing algorithm (Libasync-smp's
      decisions on Mely's data structures),
    - Mely with any subset of the three heuristics (all three = "Mely -
      WS" in the figures). *)

type heuristics = {
  locality : bool;  (** order steal victims by cache distance *)
  time_left : bool;  (** steal only worthy colors, best interval first *)
  penalty : bool;  (** divide perceived color time by handler penalty *)
}

type t = {
  ws_enabled : bool;
  heuristics : heuristics;
  batch_threshold : int;
      (** max events of one color processed before rotating to the next
          color-queue (Mely only; {!Mely.batch_threshold} by default) *)
  persistent_colors : int;
      (** colors below this bound keep their core binding for the whole
          run instead of being unmapped when they drain. These are the
          static handler-family colors (Epoll = 0, Accept = 1, ...);
          unmapping them would let a lagging core recreate the color and
          execute its next event before, in virtual time, the previous
          one finished on the old owner — an atomic-step artifact that
          would break the mutual-exclusion timeline. *)
  failed_steal_backoff : int;
      (** cycles an idle core pauses after a steal attempt that failed
          without taking any lock (cheap pre-checks found nothing); an
          attempt that did take locks retries immediately, like the
          paper's spinning thieves *)
  trace : bool;  (** record execution intervals for invariant checking *)
}

val no_heuristics : heuristics
val all_heuristics : heuristics

val libasync : t
(** Libasync-smp without workstealing. *)

val libasync_ws : t
(** Libasync-smp with its base workstealing. *)

val mely : t
(** Mely structures, workstealing disabled. *)

val mely_base_ws : t
(** Mely structures, base (Libasync-style) stealing decisions. *)

val mely_ws : t
(** Mely with all three heuristics — the paper's "Mely - WS". *)

val with_heuristics : t -> heuristics -> t
val with_trace : t -> t
