(** Worker-domain supervision: the slot phases and the wedge deadlines.

    The runtime's monitor domain (see [runtime.ml]) reclaims dead
    worker domains and quarantines wedged ones. It sleeps until a
    worker's death or a stop wakes it, or until a quarter of
    [wedge_warn_ns] has passed, the cadence at which it ages busy
    handlers against the deadlines below.

    Supervision state machine (DESIGN.md §5j):

    {v
      live ──(busy > warn deadline)──► suspect
      suspect ──(handler returns)──► live
      suspect ──(busy > kill deadline)──► quarantined
      quarantined ──(worker resumes at its next event boundary)──► live
      quarantined ──(no resume within confirm window)──► lost
      any running phase ──(domain exits with an exception)──► dead
    v}

    A [dead] slot's colors are migrated to survivors and the slot stays
    down until the next lifecycle start: worker domains are never
    respawned mid-run, as in the paper, whose runtime runs one thread
    per core for the life of the process. A [lost] slot (confiscated
    while possibly still alive) is not respawned while its zombie may
    run, so the zombie's telemetry and trace shards keep a single
    writer. Any [dead] or
    [lost] slot marks the runtime degraded. *)

(** Slot lifecycle, exported through the telemetry plane. *)
type phase =
  | Live  (** a worker domain is running this slot *)
  | Suspect  (** current handler busy past the warn deadline *)
  | Quarantined  (** quarantine requested; waiting for the resume *)
  | Dead  (** domain exited by an exception; colors reclaimed *)
  | Lost
      (** confiscated while possibly alive: the wedged color's backlog
          was abandoned and its other colors migrated *)

val phase_name : phase -> string

type config = {
  wedge_warn_ns : int;
      (** busy this long = suspect; the monitor wakes at least every
          quarter of this *)
  wedge_kill_ns : int;  (** busy this long = request quarantine *)
  confirm_wait_ns : int;
      (** quarantine not resumed this long = force-confiscate (lost) *)
}

val default_config : config
(** Generous production defaults: 1 s warn (so the monitor wakes every
    250 ms), 8 s kill, 2 s confirm — no false positives on millisecond
    handlers. *)
