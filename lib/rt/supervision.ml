(* Supervision vocabulary: the slot phases and the wedge deadlines. The
   runtime's monitor (runtime.ml) drives the state machine; this module
   only names it, so the telemetry plane can export it without
   depending on the runtime. *)

type phase = Live | Suspect | Quarantined | Dead | Lost

let phase_name = function
  | Live -> "live"
  | Suspect -> "suspect"
  | Quarantined -> "quarantined"
  | Dead -> "dead"
  | Lost -> "lost"

type config = {
  wedge_warn_ns : int;
  wedge_kill_ns : int;
  confirm_wait_ns : int;
}

let default_config =
  {
    wedge_warn_ns = 1_000_000_000;
    wedge_kill_ns = 8_000_000_000;
    confirm_wait_ns = 2_000_000_000;
  }
