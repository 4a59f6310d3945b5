type t = {
  machine : Sim.Machine.t;
  config : Config.t;
  metrics : Metrics.t;
  trace : Trace.t option;
  mutable procs : Sim.Exec.process array;
  mutable pending : int;
  mutable seq : int;
  quiesce : (int, int) Hashtbl.t; (* color -> end of its previous life *)
}

let create machine config =
  let metrics = Metrics.create () in
  {
    machine;
    config;
    metrics;
    trace = (if config.Config.trace then Some (Trace.create ()) else None);
    procs = [||];
    pending = 0;
    seq = 0;
    quiesce = Hashtbl.create 256;
  }

let assign_seq t event =
  event.Event.seq <- t.seq;
  t.seq <- t.seq + 1;
  Metrics.on_register t.metrics

let charge t ~core cycles = Sim.Machine.advance t.machine ~core cycles

let wake_core t ~core ~at =
  if Array.length t.procs > 0 then Sim.Exec.wake t.procs.(core) ~at

let note_enqueued t ~target ~at =
  let was_empty = t.pending = 0 in
  t.pending <- t.pending + 1;
  wake_core t ~core:target ~at;
  if was_empty && t.config.Config.ws_enabled then
    Array.iter (fun p -> Sim.Exec.wake p ~at) t.procs

let note_dequeued t =
  assert (t.pending > 0);
  t.pending <- t.pending - 1

let note_color_quiesced t ~color ~at = Hashtbl.replace t.quiesce color at

let execute t ~core ~register ~enqueued_on event =
  let machine = t.machine in
  (* Causal repair for recycled colors: the first event of a color's new
     life may not start before the previous life ended. *)
  (match Hashtbl.find_opt t.quiesce event.Event.color with
  | Some at ->
    Hashtbl.remove t.quiesce event.Event.color;
    Sim.Machine.advance_to_idle machine ~core at
  | None -> ());
  let t_start = Sim.Machine.now machine ~core in
  Sim.Machine.advance machine ~core event.Event.cost;
  List.iter
    (fun { Event.data_id; bytes; write } ->
      ignore (Sim.Machine.touch_data machine ~core ~data:data_id ~bytes ~write))
    event.Event.data;
  let t_end = Sim.Machine.now machine ~core in
  Metrics.on_execute t.metrics ~cycles:(t_end - t_start);
  (match t.trace with
  | Some trace ->
    Trace.record trace
      {
        Trace.event_seq = event.Event.seq;
        color = event.Event.color;
        handler = event.Event.handler.Handler.name;
        core;
        t_start;
        t_end;
        stolen = event.Event.stolen || core <> enqueued_on;
      }
  | None -> ());
  let ctx =
    {
      Event.ctx_core = core;
      ctx_now = (fun () -> Sim.Machine.now machine ~core);
      ctx_register = (fun e -> register ~core e);
      ctx_rng = Sim.Machine.rng machine ~core;
    }
  in
  event.Event.action ctx
