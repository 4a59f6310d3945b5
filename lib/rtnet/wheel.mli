(** Hashed timer wheel for the poller loop's per-connection deadlines.

    Single-domain (poller-owned), integer keys (connection fds),
    absolute [Rt.Clock] nanosecond deadlines. Entries hash into
    [slots] buckets by deadline tick; {!advance} walks the buckets
    between the last processed tick and [now] and fires every entry
    whose deadline has passed — entries scheduled further than one
    wheel revolution away are simply revisited on a later lap, so
    arbitrary deadlines are correct, just lazily re-examined.

    Designed for lazy re-arming: the server schedules one entry per
    connection and, when it fires, re-evaluates the connection's real
    deadline state — rescheduling if the deadline moved, evicting if it
    expired. Stale entries for closed (or recycled) fds are filtered by
    the fire callback, so no cancel operation is needed. *)

type t

val create : ?slots:int -> granularity_ns:int64 -> now:int64 -> unit -> t
(** [slots] defaults to 128; [granularity_ns] is the tick width (one
    bucket per tick). *)

val schedule : t -> int -> at:int64 -> unit
(** Arm (or re-arm) [key] to fire once [at] has passed. One live entry
    per key per bucket; re-scheduling the same key into a different
    bucket may leave a stale entry behind, which the fire callback must
    tolerate (it re-evaluates and re-arms, so a stale fire is a no-op).

    A deadline in a tick that has wholly passed goes to a dedicated
    overdue set that the next {!advance} always visits — the naive
    bucket placement would park it in a slot the cursor already passed
    this revolution and fire it a full revolution
    (slots × granularity) late. *)

val advance : t -> now:int64 -> fire:(int -> unit) -> unit
(** Process every tick between the previous [advance] and [now]: fire
    and remove entries with [at <= now] (overdue entries first), keep
    the rest for a later lap. The bucket of [now]'s own tick is visited
    again by the next [advance], so an entry of the current tick that is
    not yet due fires as soon as it is, not a revolution later. *)

val pending : t -> int
(** Entries currently armed (includes not-yet-collected stale ones). *)
