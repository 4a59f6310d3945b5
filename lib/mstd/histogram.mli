(** Logarithmically-bucketed histograms for cycle counts and latencies.

    Buckets grow geometrically so a single histogram covers the 100-cycle
    handlers and the million-cycle crypto operations of the paper without
    tuning. *)

type t

val create : ?base:float -> ?buckets:int -> unit -> t
(** [create ~base ~buckets ()]: bucket [i] covers values in
    [[base^i, base^(i+1))]. Defaults: base 2.0, 64 buckets. *)

val add : t -> float -> unit
(** Record one observation. Negative observations count in bucket 0. *)

val add_int : t -> int -> unit
(** [add_int t v] records [v] with integer arithmetic only (base 2;
    other bases fall back to the float path). It picks the bucket
    [add t (float_of_int v)] picks wherever [float_of_int v] is exact,
    that is up to 2{^53}; above that it keeps the exact bucket where
    the float path can round up by one. *)

val bucket_of : t -> float -> int
(** Bucket index [add] records a value in. *)

val bucket_of_int : t -> int -> int
(** Bucket index [add_int] records a value in. *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds every bucket of [src] into [into]. Raises
    [Invalid_argument] if base or bucket count differ. Useful for
    combining per-worker histograms into one distribution at export. *)

val count : t -> int
val bucket_count : t -> int

val copy : t -> t
(** Independent copy. Safe to call while the (single) writer is still
    adding: bucket counters only grow, and the copy's total is recomputed
    from the copied buckets so count = sum of buckets always holds. *)

val reset : t -> unit
(** Zero every bucket and the total. Writer-side only. *)

val bucket_range : t -> int -> float * float
(** Inclusive-exclusive value range covered by a bucket index. *)

val bucket_value : t -> int -> int
(** Number of observations recorded in a bucket. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [0,1]: upper bound of the bucket holding
    the q-th observation; [0.] when empty. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] folds [f bucket_index count] over non-empty
    buckets, in increasing bucket order. *)

val render : t -> width:int -> string
(** ASCII bar rendering of the non-empty region, for debug output. *)

(** Epoch-swapped streaming windows.

    A [Windowed.t] pairs a cumulative histogram with two window buffers
    swapped by an external epoch counter (one [int Atomic.t] shared by
    all writers, owned by the telemetry plane). The owning writer calls
    [add ~epoch]; any reader may take [cumulative] or [window] copies at
    any instant without stopping the writer. *)
module Windowed : sig
  type outer = t
  type t

  val create : ?base:float -> ?buckets:int -> unit -> t

  val add : t -> epoch:int -> float -> unit
  (** Record into the cumulative histogram and the current epoch's
      window buffer. On the first add after an epoch change, the entering
      buffer (parity [epoch land 1]) is zeroed. Single writer only. *)

  val add_int : t -> epoch:int -> int -> unit
  (** [add] of an integer observation through {!add_int}: no float
      work. *)

  val cumulative : t -> outer
  (** Racy-read-safe copy of the all-time histogram. *)

  val window : t -> epoch:int -> outer
  (** Racy-read-safe copy of the last closed window, i.e. buffer
      [(epoch - 1) land 1]. Stale (previous same-parity window) for a
      writer that recorded nothing since the swap. *)
end
