(* Raw-sample buffers and exact percentiles.

   Every percentile the benchmark reports is computed here from the raw
   samples. The runtime's own histograms (Mstd.Histogram, power-of-two
   buckets) cannot resolve a change smaller than 2x, so the benchmark
   reads them for counts and sums only. *)

type t = { mutable data : float array; mutable n : int; mutable sorted : float array option }

(* Sized up front from the phase's schedule, so [add] never grows the
   buffer inside a measured loop. *)
let create cap = { data = Array.make (max 16 cap) 0.0; n = 0; sorted = None }

let add t v =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- v;
  t.n <- t.n + 1;
  t.sorted <- None

let count t = t.n
let values t = Array.sub t.data 0 t.n

(* Sorted once per buffer with a merge sort: a phase can hold millions
   of samples, and Mstd.Stats.percentile re-sorts (heap sort) on every
   call. *)
let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
    let s = values t in
    Array.stable_sort Float.compare s;
    t.sorted <- Some s;
    s

(* [p] in [0, 100], linear interpolation between the closest ranks (the
   definition of Mstd.Stats.percentile); 0 for an empty buffer. *)
let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let s = sorted t in
    let rank = p /. 100.0 *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
    let frac = rank -. Float.floor rank in
    (s.(lo) *. (1.0 -. frac)) +. (s.(hi) *. frac)
  end

let median t = percentile t 50.0

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n

(* The highest of the usual tail percentiles with at least ten samples
   beyond it. *)
let supported_percentile n =
  List.find_opt (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0) [ 99.9; 99.0; 90.0; 50.0 ]
  |> Option.value ~default:0.0

let of_list xs =
  let t = create (List.length xs) in
  List.iter (add t) xs;
  t
