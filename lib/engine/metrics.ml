type t = {
  mutable registered : int;
  mutable executed : int;
  mutable exec_cycles : int;
  mutable steal_attempts : int;
  mutable steals : int;
  mutable stolen_events : int;
  mutable steal_cycles_success : int;
  mutable steal_cycles_total : int;
  mutable stolen_cost : int;
  mutable estimate : float;
}

let create () =
  {
    registered = 0;
    executed = 0;
    exec_cycles = 0;
    steal_attempts = 0;
    steals = 0;
    stolen_events = 0;
    steal_cycles_success = 0;
    steal_cycles_total = 0;
    stolen_cost = 0;
    estimate = float_of_int Mely.steal_cost_prior;
  }

let on_register t = t.registered <- t.registered + 1

let on_execute t ~cycles =
  t.executed <- t.executed + 1;
  t.exec_cycles <- t.exec_cycles + cycles

let on_steal_attempt t = t.steal_attempts <- t.steal_attempts + 1

(* Exponentially-weighted moving average; a small alpha keeps the
   worthiness threshold stable against outliers. *)
let ewma_alpha = 0.05

let on_steal_success t ~thief_cycles ~work_cycles ~events ~stolen_cost =
  t.steals <- t.steals + 1;
  t.stolen_events <- t.stolen_events + events;
  t.steal_cycles_success <- t.steal_cycles_success + thief_cycles;
  t.steal_cycles_total <- t.steal_cycles_total + thief_cycles;
  t.stolen_cost <- t.stolen_cost + stolen_cost;
  t.estimate <- ((1.0 -. ewma_alpha) *. t.estimate) +. (ewma_alpha *. float_of_int work_cycles)

let on_steal_failure t ~thief_cycles =
  t.steal_cycles_total <- t.steal_cycles_total + thief_cycles

let registered t = t.registered
let executed t = t.executed
let exec_cycles t = t.exec_cycles
let steal_attempts t = t.steal_attempts
let steals t = t.steals
let stolen_events t = t.stolen_events

let avg_steal_cycles t =
  if t.steals = 0 then 0.0 else float_of_int t.steal_cycles_success /. float_of_int t.steals

let avg_stolen_cost t =
  if t.steals = 0 then 0.0 else float_of_int t.stolen_cost /. float_of_int t.steals

let total_steal_cycles t = t.steal_cycles_total
let steal_cost_estimate t = int_of_float t.estimate
