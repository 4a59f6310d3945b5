type heuristics = { locality : bool; time_left : bool; penalty : bool }

type t = {
  ws_enabled : bool;
  heuristics : heuristics;
  batch_threshold : int;
  persistent_colors : int;
  failed_steal_backoff : int;
  trace : bool;
}

let no_heuristics = { locality = false; time_left = false; penalty = false }
let all_heuristics = { locality = true; time_left = true; penalty = true }

let base =
  {
    ws_enabled = false;
    heuristics = no_heuristics;
    batch_threshold = Mely.batch_threshold;
    persistent_colors = 8;
    failed_steal_backoff = 2_000;
    trace = false;
  }

let libasync = base
let libasync_ws = { base with ws_enabled = true }
let mely = base
let mely_base_ws = { base with ws_enabled = true }
let mely_ws = { base with ws_enabled = true; heuristics = all_heuristics }
let with_heuristics t heuristics = { t with heuristics }
let with_trace t = { t with trace = true }
