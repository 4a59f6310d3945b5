type entry = {
  event_seq : int;
  color : int;
  handler : string;
  core : int;
  t_start : int;
  t_end : int;
  stolen : bool;
}

type t = { mutable entries : entry list; mutable length : int }

let create () = { entries = []; length = 0 }

let record t e =
  t.entries <- e :: t.entries;
  t.length <- t.length + 1

let entries t = List.rev t.entries
let length t = t.length

let span e = { Mely.color = e.color; seq = e.event_seq; start = e.t_start; stop = e.t_end }
let check_mutual_exclusion t = Mely.check_mutual_exclusion span (entries t)
let check_fifo_per_color t = Mely.check_fifo_per_color span (entries t)

let steal_ratio t =
  if t.length = 0 then 0.0
  else begin
    let stolen = List.fold_left (fun acc e -> if e.stolen then acc + 1 else acc) 0 t.entries in
    float_of_int stolen /. float_of_int t.length
  end
