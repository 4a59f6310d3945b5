let weight ~declared ~penalty = max 1 (declared / penalty)
let steal_cost_prior = 2_000
let worthy ~steal_cost remaining = remaining > steal_cost
let batch_threshold = 10

let victim_order topo ~n c =
  List.filter (fun v -> v < n) (Array.to_list (Hw.Topology.cores_by_distance topo c))

type span = { color : int; seq : int; start : int; stop : int }

(* The items of each color, in start-time order. *)
let by_color span_of items =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let c = (span_of x).color in
      Hashtbl.replace tbl c (x :: Option.value ~default:[] (Hashtbl.find_opt tbl c)))
    items;
  let time x =
    let s = span_of x in
    (s.start, s.stop)
  in
  Hashtbl.fold
    (fun _ xs acc -> List.stable_sort (fun a b -> compare (time a) (time b)) (List.rev xs) :: acc)
    tbl []

let first_in_colors scan span_of items = List.find_map scan (by_color span_of items)

(* Compare each span with the latest-ending one before it: if any
   earlier span overlaps it, that one does too. *)
let check_mutual_exclusion span_of items =
  let overlap a b =
    let a = span_of a and b = span_of b in
    a.start < b.stop && b.start < a.stop
  in
  let rec scan latest = function
    | [] -> None
    | x :: rest ->
      if overlap latest x then Some (latest, x)
      else scan (if (span_of x).stop > (span_of latest).stop then x else latest) rest
  in
  first_in_colors (function [] -> None | x :: rest -> scan x rest) span_of items

let check_fifo_per_color span_of items =
  let rec scan = function
    | a :: (b :: _ as rest) -> if (span_of b).seq < (span_of a).seq then Some (a, b) else scan rest
    | _ -> None
  in
  first_in_colors scan span_of items
