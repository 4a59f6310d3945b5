(** Readiness multiplexing for the poller shards.

    A thin, allocation-free wrapper over [epoll(7)] plus an
    [eventfd(2)] wake counter. [lib/rtnet] needs Linux: elsewhere
    {!create} fails, and only the simulator half of the repo is usable.
    One instance per poller shard; single-domain, no locking.

    Semantics the server relies on:
    - Registrations made with [~edge:true] are edge-triggered: a
      condition reports once, the consumer must drain the fd to
      [EAGAIN], and {!modify} on an armed fd re-arms it (a fresh event
      fires if the condition currently holds — the kernel's
      [EPOLL_CTL_MOD] rearm).
    - Registrations made with [~edge:false] are level-triggered: an
      unconsumed condition reports again on the next {!wait}.
    - Error/hangup conditions report via {!ready_error} (and are folded
      into readability via [EPOLLRDHUP]); the caller reads to observe
      the EOF or errno. *)

type t

val create : unit -> t
(** A fresh epoll instance. Raises [Failure] off Linux. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> edge:bool -> unit
(** Register interest. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> edge:bool -> unit
(** Replace interest; this re-arms an edge-triggered fd. *)

val remove : t -> Unix.file_descr -> unit
(** Forget the fd. Safe to call for an fd that was never added (or was
    already closed — the kernel drops epoll registrations on close). *)

val wait : t -> timeout_ms:int -> int
(** Block up to [timeout_ms] (0 polls, negative blocks indefinitely)
    and return the number of ready fds, readable through the
    [ready_*] accessors at indices [0 .. n-1] until the next [wait].
    Allocation-free; a burst larger than the result capacity (1024
    fds) is delivered across consecutive waits. Raises
    [Unix.Unix_error] (e.g. [EINTR]) like the underlying syscall. *)

val ready_fd : t -> int -> Unix.file_descr
val ready_readable : t -> int -> bool
val ready_writable : t -> int -> bool
val ready_error : t -> int -> bool

val close : t -> unit
(** Release the kernel object. Idempotent. *)

val eventfd : unit -> Unix.file_descr
(** A nonblocking, close-on-exec eventfd counter starting at 0: a
    shard's wake channel, readable while the counter is nonzero. *)

val signal : Unix.file_descr -> unit
(** Add 1 to the counter: one 8-byte write. A saturated counter
    already means a wake is pending, so [EAGAIN] counts as success. *)

val drain : Unix.file_descr -> unit
(** Reset the counter to 0: one 8-byte read, however many signals came
    before it. Draining a zero counter is a no-op. *)

val writev :
  Unix.file_descr ->
  strs:string array ->
  offs:int array ->
  lens:int array ->
  count:int ->
  int
(** Gather write of the first [count] (string, offset, length) slices
    (at most 64 are submitted per call); returns bytes written, raises
    [Unix.Unix_error] like [Unix.write]. *)
