type core_state = {
  core_queue : Melyq.core_queue;
  lock : Sim.Lock.t;
  stealing : Melyq.Stealing.t;
  mutable current_color : int option;
  mutable batch_color : int;  (* color currently being batch-processed; -1 none *)
  mutable batch_remaining : int;
}

type state = {
  shared : Runtime_shared.t;
  cores : core_state array;
  color_map : (int, Melyq.color_queue) Hashtbl.t;
}

let n_cores st = Array.length st.cores
let machine st = st.shared.Runtime_shared.machine
let cost_model st = Sim.Machine.cost (machine st)
let config st = st.shared.Runtime_shared.config
let heuristics st = (config st).Config.heuristics
let hash_core st color = color mod n_cores st

(* Per-event contribution to a color's perceived stealable time: the
   handler's profiled average, divided by its stealing penalty when the
   penalty-aware heuristic is active (Section IV-B). *)
let weight st handler =
  Mely.weight ~declared:handler.Handler.declared_cycles
    ~penalty:(if (heuristics st).Config.penalty then handler.Handler.penalty else 1)

let estimate st = Metrics.steal_cost_estimate st.shared.Runtime_shared.metrics

(* Re-evaluate a color's stealing-queue membership after its cumulative
   time changed; only meaningful under the time-left heuristic. The
   entry always lives in the stealing-queue of the core that owns the
   color-queue; [charge] is the core doing the update (a remote
   registrar pays for maintaining the victim's stealing-queue). *)
let update_worthiness ?charge st cq =
  if (heuristics st).Config.time_left then begin
    let owner = cq.Melyq.owner in
    let changed = Melyq.Stealing.update st.cores.(owner).stealing cq ~estimate:(estimate st) in
    if changed then
      match charge with
      | Some core ->
        Runtime_shared.charge st.shared ~core (cost_model st).Hw.Cost_model.color_queue_op
      | None -> ()
  end

let locate_or_create st event ~charge_core =
  let cm = cost_model st in
  (match charge_core with
  | Some core -> Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.color_map_op
  | None -> ());
  match Hashtbl.find_opt st.color_map event.Event.color with
  | Some cq -> (cq, cq.Melyq.owner, false)
  | None ->
    let owner =
      match event.Event.core_hint with
      | Some c -> c
      | None -> hash_core st event.Event.color
    in
    let cq = Melyq.make_color_queue ~color:event.Event.color ~owner in
    (cq, owner, true)

let register_from st ~core event =
  let cm = cost_model st in
  let m = machine st in
  let cq, owner, fresh = locate_or_create st event ~charge_core:(Some core) in
  let owner_state = st.cores.(owner) in
  Sim.Lock.with_lock owner_state.lock m ~core (fun () ->
      if fresh then begin
        (* Create the color-queue, publish the mapping, chain it. *)
        Hashtbl.replace st.color_map event.Event.color cq;
        Runtime_shared.charge st.shared ~core
          (cm.Hw.Cost_model.color_map_op + cm.Hw.Cost_model.color_queue_op);
        Melyq.append owner_state.core_queue cq
      end
      else if not cq.Melyq.in_core_queue then begin
        (* A persistent color that had drained: re-chain its queue. *)
        Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.color_queue_op;
        Melyq.append owner_state.core_queue cq
      end;
      Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.queue_op;
      Melyq.push_event cq (Some owner_state.core_queue) event
        ~weighted:(weight st event.Event.handler);
      update_worthiness ~charge:core st cq);
  Runtime_shared.assign_seq st.shared event;
  Runtime_shared.note_enqueued st.shared ~target:owner ~at:(Sim.Machine.now m ~core)

let register_external st ~at event =
  let cq, owner, fresh = locate_or_create st event ~charge_core:None in
  let owner_state = st.cores.(owner) in
  if fresh then begin
    Hashtbl.replace st.color_map event.Event.color cq;
    Melyq.append owner_state.core_queue cq
  end
  else if not cq.Melyq.in_core_queue then Melyq.append owner_state.core_queue cq;
  Melyq.push_event cq (Some owner_state.core_queue) event
    ~weighted:(weight st event.Event.handler);
  update_worthiness st cq;
  Runtime_shared.assign_seq st.shared event;
  Runtime_shared.note_enqueued st.shared ~target:owner ~at

(* Victim order: cache-distance with the locality heuristic, otherwise
   the baseline most-loaded-then-successive order. *)
let victim_order st ~core =
  if (heuristics st).Config.locality then
    Mely.victim_order (Sim.Machine.topo (machine st)) ~n:(n_cores st) core
  else begin
    let n = n_cores st in
    let most_loaded = ref 0 and best = ref (-1) in
    for c = 0 to n - 1 do
      let len = Melyq.n_events st.cores.(c).core_queue in
      if len > !best then begin
        best := len;
        most_loaded := c
      end
    done;
    List.filter (fun c -> c <> core) (List.init n (fun i -> (!most_loaded + i) mod n))
  end

(* Baseline color choice on Mely structures: walk the victim's
   core-queue for the first color that is not being processed and holds
   fewer than half of the queued events. One hop per color-queue, not
   per event. *)
let base_choice st ~thief vs =
  let cm = cost_model st in
  let total = Melyq.n_events vs.core_queue in
  let exclude = vs.current_color in
  let suitable cq =
    let excluded = match exclude with Some c -> cq.Melyq.color = c | None -> false in
    (not excluded) && Queue.length cq.Melyq.events * 2 < total
  in
  let found, inspected = Melyq.find_color suitable vs.core_queue in
  Runtime_shared.charge st.shared ~core:thief (inspected * cm.Hw.Cost_model.color_map_op);
  found

(* Time-left choice: pop the best validated entry from the victim's
   stealing-queue. *)
let time_left_choice st ~thief ~victim vs =
  let cm = cost_model st in
  let validate cq = cq.Melyq.owner = victim && cq.Melyq.in_core_queue in
  match Melyq.Stealing.pop_best vs.stealing ~exclude:vs.current_color ~validate with
  | None -> None
  | Some (cq, inspected) ->
    Runtime_shared.charge st.shared ~core:thief (inspected * cm.Hw.Cost_model.color_queue_op);
    Some cq

(* Pop one event from the head color-queue and run it, maintaining the
   batch threshold, the stealing-queue and the color map. Returns
   [false] when the core-queue was empty. *)
let process_next st ~core =
  let cs = st.cores.(core) in
  let m = machine st in
  let cm = cost_model st in
  let event =
    Sim.Lock.with_lock cs.lock m ~core (fun () ->
        match Melyq.head cs.core_queue with
        | None -> None
        | Some cq ->
          if cs.batch_color <> cq.Melyq.color then begin
            cs.batch_color <- cq.Melyq.color;
            cs.batch_remaining <- (config st).Config.batch_threshold
          end;
          Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.queue_op;
          let event = Melyq.pop_event cq (Some cs.core_queue) in
          (match event with
          | None -> ()
          | Some e ->
            cq.Melyq.weighted <- max 0 (cq.Melyq.weighted - weight st e.Event.handler);
            cs.batch_remaining <- cs.batch_remaining - 1;
            update_worthiness ~charge:core st cq;
            if (not (Queue.is_empty cq.Melyq.events)) && cs.batch_remaining <= 0 then begin
              (* Batch threshold reached: rotate to the next color. *)
              Melyq.rotate cs.core_queue;
              Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.color_queue_op;
              cs.batch_color <- -1
            end);
          event)
  in
  match event with
  | None -> false
  | Some event ->
    let color = event.Event.color in
    cs.current_color <- Some color;
    Runtime_shared.note_dequeued st.shared;
    Runtime_shared.execute st.shared ~core
      ~register:(fun ~core e -> register_from st ~core e)
      ~enqueued_on:core event;
    (* Empty color-queues leave the core-queue and the map — after the
       handler ran, so a handler registering its own color keeps its
       queue (and the runtime's serialization of that color) alive. *)
    Sim.Lock.with_lock cs.lock m ~core (fun () ->
        match Hashtbl.find_opt st.color_map color with
        | Some cq
          when cq.Melyq.owner = core && cq.Melyq.in_core_queue
               && Queue.is_empty cq.Melyq.events ->
          Melyq.detach cs.core_queue cq;
          Melyq.Stealing.clear_membership cq;
          (* Handler-family colors keep their mapping (and owner) for
             the whole run; see Config.persistent_colors. *)
          if color >= (config st).Config.persistent_colors then begin
            Hashtbl.remove st.color_map color;
            Runtime_shared.note_color_quiesced st.shared ~color
              ~at:(Sim.Machine.now m ~core);
            Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.color_map_op
          end;
          Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.color_queue_op
        | _ -> ());
    true

let try_steal st ~core =
  let cm = cost_model st in
  let m = machine st in
  Metrics.on_steal_attempt st.shared.Runtime_shared.metrics;
  if st.shared.Runtime_shared.pending = 0 then Sim.Exec.Sleep_forever
  else begin
    let t_start = Sim.Machine.now m ~core in
    let spin_start = Sim.Machine.spin_cycles m ~core in
    Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.steal_fixed;
    let time_left = (heuristics st).Config.time_left in
    let stolen = ref None in
    let rec visit = function
      | [] -> ()
      | victim :: rest ->
        let vs = st.cores.(victim) in
        (* Cheap unlocked pre-check; Mely only pays for a lock when the
           victim looks stealable. *)
        Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.color_map_op;
        let promising =
          if time_left then not (Melyq.Stealing.is_empty vs.stealing)
          else Melyq.n_colors vs.core_queue >= 2
        in
        if promising then begin
          Sim.Lock.with_lock vs.lock m ~core (fun () ->
              let choice =
                if time_left then time_left_choice st ~thief:core ~victim vs
                else base_choice st ~thief:core vs
              in
              match choice with
              | None -> ()
              | Some cq ->
                Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.color_queue_op;
                Melyq.detach vs.core_queue cq;
                Melyq.Stealing.clear_membership cq;
                stolen := Some cq)
        end;
        if !stolen = None then visit rest
    in
    visit (victim_order st ~core);
    match !stolen with
    | Some cq ->
      let self = st.cores.(core) in
      Sim.Lock.with_lock self.lock m ~core (fun () ->
          Runtime_shared.charge st.shared ~core cm.Hw.Cost_model.color_queue_op;
          Melyq.append self.core_queue cq;
          update_worthiness ~charge:core st cq);
      Queue.iter (fun e -> e.Event.stolen <- true) cq.Melyq.events;
      let thief_cycles = Sim.Machine.now m ~core - t_start in
      let spin = Sim.Machine.spin_cycles m ~core - spin_start in
      Metrics.on_steal_success st.shared.Runtime_shared.metrics ~thief_cycles
        ~work_cycles:(thief_cycles - spin)
        ~events:(Queue.length cq.Melyq.events)
        ~stolen_cost:cq.Melyq.actual_cost;
      (* Start on the loot immediately — the thief's loop pops right
         after migrating, leaving no window in which another idle core
         could bounce the freshly-stolen color away. *)
      ignore (process_next st ~core);
      Sim.Exec.Continue
    | None ->
      Metrics.on_steal_failure st.shared.Runtime_shared.metrics
        ~thief_cycles:(Sim.Machine.now m ~core - t_start);
      (* A failed sweep returns to the main loop, which polls I/O
         before the next stealing pass — a short natural pause. *)
      if st.shared.Runtime_shared.pending = 0 then Sim.Exec.Sleep_forever
      else
        Sim.Exec.Sleep_until
          (Sim.Machine.now m ~core + (config st).Config.failed_steal_backoff)
  end

let step st ~core () =
  let cs = st.cores.(core) in
  if Melyq.is_empty cs.core_queue then begin
    cs.current_color <- None;
    cs.batch_color <- -1;
    if (config st).Config.ws_enabled then try_steal st ~core else Sim.Exec.Sleep_forever
  end
  else begin
    ignore (process_next st ~core);
    Sim.Exec.Continue
  end

let name_of config =
  if not config.Config.ws_enabled then "Mely"
  else begin
    let h = config.Config.heuristics in
    if h.Config.locality && h.Config.time_left && h.Config.penalty then "Mely - WS"
    else if not (h.Config.locality || h.Config.time_left || h.Config.penalty) then
      "Mely - base WS"
    else
      Printf.sprintf "Mely - WS(%s%s%s)"
        (if h.Config.locality then "L" else "")
        (if h.Config.time_left then "T" else "")
        (if h.Config.penalty then "P" else "")
  end

let create machine config =
  let shared = Runtime_shared.create machine config in
  let st =
    {
      shared;
      cores =
        Array.init (Sim.Machine.n_cores machine) (fun core ->
            {
              core_queue = Melyq.create_core_queue ~core;
              lock = Sim.Lock.create machine;
              stealing = Melyq.Stealing.create ();
              current_color = None;
              batch_color = -1;
              batch_remaining = 0;
            });
      color_map = Hashtbl.create 4096;
    }
  in
  let procs =
    Array.init (n_cores st) (fun core ->
        Sim.Exec.core_process machine ~core ~step:(step st ~core))
  in
  shared.Runtime_shared.procs <- procs;
  {
    Sched.name = name_of config;
    machine;
    config;
    metrics = shared.Runtime_shared.metrics;
    trace = shared.Runtime_shared.trace;
    register_external = (fun ~at e -> register_external st ~at e);
    register_from = (fun ~core e -> register_from st ~core e);
    processes = (fun () -> Array.to_list procs);
    pending = (fun () -> shared.Runtime_shared.pending);
    queue_length = (fun ~core -> Melyq.n_events st.cores.(core).core_queue);
    current_color = (fun ~core -> st.cores.(core).current_color);
  }
