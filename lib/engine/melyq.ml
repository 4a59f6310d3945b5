type color_queue = {
  color : int;
  events : Event.t Queue.t;
  mutable owner : int;
  mutable weighted : int;
  mutable actual_cost : int;
  mutable in_core_queue : bool;
  mutable cq_prev : color_queue option;
  mutable cq_next : color_queue option;
  mutable sq_bucket : int;
}

type core_queue = {
  cq_core : int;
  mutable head : color_queue option;
  mutable tail : color_queue option;
  mutable n_colors : int;
  mutable n_events : int;
}

let create_core_queue ~core =
  { cq_core = core; head = None; tail = None; n_colors = 0; n_events = 0 }

let core t = t.cq_core
let n_colors t = t.n_colors
let n_events t = t.n_events
let is_empty t = t.n_colors = 0

let make_color_queue ~color ~owner =
  {
    color;
    events = Queue.create ();
    owner;
    weighted = 0;
    actual_cost = 0;
    in_core_queue = false;
    cq_prev = None;
    cq_next = None;
    sq_bucket = -1;
  }

let append t cq =
  assert (not cq.in_core_queue);
  cq.cq_prev <- t.tail;
  cq.cq_next <- None;
  (match t.tail with Some tl -> tl.cq_next <- Some cq | None -> t.head <- Some cq);
  t.tail <- Some cq;
  cq.in_core_queue <- true;
  cq.owner <- t.cq_core;
  t.n_colors <- t.n_colors + 1;
  t.n_events <- t.n_events + Queue.length cq.events

let detach t cq =
  assert cq.in_core_queue;
  assert (cq.owner = t.cq_core);
  (match cq.cq_prev with Some p -> p.cq_next <- cq.cq_next | None -> t.head <- cq.cq_next);
  (match cq.cq_next with Some n -> n.cq_prev <- cq.cq_prev | None -> t.tail <- cq.cq_prev);
  cq.cq_prev <- None;
  cq.cq_next <- None;
  cq.in_core_queue <- false;
  t.n_colors <- t.n_colors - 1;
  t.n_events <- t.n_events - Queue.length cq.events

let head t = t.head

let rotate t =
  match t.head with
  | None -> ()
  | Some h when t.n_colors <= 1 -> ignore h
  | Some h ->
    detach t h;
    append t h

let push_event cq core_q event ~weighted =
  Queue.push event cq.events;
  cq.weighted <- cq.weighted + weighted;
  cq.actual_cost <- cq.actual_cost + event.Event.cost;
  match core_q with
  | Some q when cq.in_core_queue -> q.n_events <- q.n_events + 1
  | _ -> ()

let pop_event cq core_q =
  match Queue.take_opt cq.events with
  | None -> None
  | Some event ->
    cq.actual_cost <- max 0 (cq.actual_cost - event.Event.cost);
    (match core_q with
    | Some q when cq.in_core_queue -> q.n_events <- q.n_events - 1
    | _ -> ());
    Some event

let fold_colors f init t =
  let rec walk acc = function
    | None -> acc
    | Some cq -> walk (f acc cq) cq.cq_next
  in
  walk init t.head

let find_color pred t =
  let rec walk inspected = function
    | None -> (None, inspected)
    | Some cq -> if pred cq then (Some cq, inspected + 1) else walk (inspected + 1) cq.cq_next
  in
  walk 0 t.head

module Stealing = struct
  type t = { buckets : color_queue Queue.t array }

  let n_buckets = 3

  let create () = { buckets = Array.init n_buckets (fun _ -> Queue.create ()) }

  (* Geometric intervals of the steal-cost estimate: worthy colors carry
     more remaining work than one steal costs; the interval index grows
     with how much more. *)
  let bucket_of ~weighted ~estimate =
    let estimate = max 1 estimate in
    if not (Mely.worthy ~steal_cost:estimate weighted) then -1
    else if weighted < 4 * estimate then 0
    else if weighted < 16 * estimate then 1
    else 2

  let update t cq ~estimate =
    let desired = bucket_of ~weighted:cq.weighted ~estimate in
    if desired = cq.sq_bucket then false
    else begin
      cq.sq_bucket <- desired;
      (* Stale entries in the old bucket are skipped lazily on pop. *)
      if desired >= 0 then Queue.push cq t.buckets.(desired);
      true
    end

  let clear_membership cq = cq.sq_bucket <- -1

  let pop_best t ~exclude ~validate =
    let inspected = ref 0 in
    let result = ref None in
    let bucket = ref (n_buckets - 1) in
    while !result = None && !bucket >= 0 do
      let q = t.buckets.(!bucket) in
      (* Bound the walk by the current bucket size so re-queued excluded
         entries cannot make us loop. *)
      let budget = ref (Queue.length q) in
      while !result = None && !budget > 0 do
        decr budget;
        match Queue.take_opt q with
        | None -> budget := 0
        | Some cq ->
          incr inspected;
          if cq.sq_bucket <> !bucket || not (validate cq) then ()
            (* stale or foreign entry: drop *)
          else if (match exclude with Some c -> cq.color = c | None -> false) then
            (* Valid but currently executing: drop the entry so probing
               thieves do not keep hammering this lock; the owner's next
               push or pop on the color re-inserts it. *)
            clear_membership cq
          else begin
            clear_membership cq;
            result := Some (cq, !inspected)
          end
      done;
      decr bucket
    done;
    !result

  let is_empty t = Array.for_all Queue.is_empty t.buckets

  let pending_entries t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.buckets
end
