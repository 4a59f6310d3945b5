type t = {
  id : int;
  name : string;
  mutable declared_cycles : int;
  mutable penalty : int;
}

let next_id = ref 0

let make ?(declared_cycles = 1000) ?(penalty = 1) name =
  assert (penalty >= 1);
  assert (declared_cycles >= 0);
  let id = !next_id in
  incr next_id;
  { id; name; declared_cycles; penalty }

let set_declared_cycles t c =
  assert (c >= 0);
  t.declared_cycles <- c

let set_penalty t p =
  assert (p >= 1);
  t.penalty <- p

let pp fmt t =
  Format.fprintf fmt "%s#%d (avg %d cycles, penalty %d)" t.name t.id t.declared_cycles t.penalty
