type t = {
  base : float;
  log_base : float;
  counts : int array;
  mutable total : int;
}

let create ?(base = 2.0) ?(buckets = 64) () =
  assert (base > 1.0);
  assert (buckets > 0);
  { base; log_base = log base; counts = Array.make buckets 0; total = 0 }

let bucket_of t v =
  if v < 1.0 then 0
  else begin
    let b =
      if t.base = 2.0 then
        (* frexp gives the exact binary exponent: v = m * 2^e with
           m in [0.5, 1), so floor(log2 v) = e - 1.  Avoids two [log]
           calls per observation on the runtime's hot path. *)
        snd (Float.frexp v) - 1
      else int_of_float (log v /. t.log_base)
    in
    if b >= Array.length t.counts then Array.length t.counts - 1 else max 0 b
  end

(* floor (log2 v) for v >= 1, halving the probed shift from 32: six
   shifts and compares, no float conversion and no allocation. *)
let rec log2_from v r s =
  if s = 0 then r
  else if v lsr s <> 0 then log2_from (v lsr s) (r + s) (s / 2)
  else log2_from v r (s / 2)

let bucket_of_int t v =
  if t.base <> 2.0 then bucket_of t (float_of_int v)
  else if v < 1 then 0
  else min (log2_from v 0 32) (Array.length t.counts - 1)

let bump t b =
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1

let add t v = bump t (bucket_of t v)
let add_int t v = bump t (bucket_of_int t v)

let merge ~into src =
  if into.base <> src.base || Array.length into.counts <> Array.length src.counts then
    invalid_arg "Histogram.merge: mismatched base or bucket count";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.total <- into.total + src.total

let count t = t.total
let bucket_count t = Array.length t.counts

let copy t =
  (* Tolerates concurrent [add]s by a single writer: bucket counters only
     grow, and [total] is recomputed from the copied buckets so the copy
     always satisfies count = sum of buckets (no torn pair). *)
  let counts = Array.init (Array.length t.counts) (fun i -> t.counts.(i)) in
  let total = Array.fold_left ( + ) 0 counts in
  { base = t.base; log_base = t.log_base; counts; total }

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0

let bucket_range t i =
  let lo = if i = 0 then 0.0 else t.base ** float_of_int i in
  let hi = t.base ** float_of_int (i + 1) in
  (lo, hi)

let bucket_value t i = t.counts.(i)

let quantile t q =
  assert (q >= 0.0 && q <= 1.0);
  if t.total = 0 then 0.0
  else begin
    let target = int_of_float (Float.ceil (q *. float_of_int t.total)) in
    let target = max 1 target in
    let rec walk i seen =
      if i >= Array.length t.counts then fst (bucket_range t (Array.length t.counts - 1))
      else begin
        let seen = seen + t.counts.(i) in
        if seen >= target then snd (bucket_range t i) else walk (i + 1) seen
      end
    in
    walk 0 0
  end

let fold f t init =
  let acc = ref init in
  Array.iteri (fun i c -> if c > 0 then acc := f i c !acc) t.counts;
  !acc

let render t ~width =
  let max_count = Array.fold_left max 0 t.counts in
  if max_count = 0 then "(empty histogram)"
  else begin
    let buf = Buffer.create 256 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let lo, hi = bucket_range t i in
          let bar = c * width / max_count in
          Buffer.add_string buf
            (Printf.sprintf "[%12.0f, %12.0f) %8d %s\n" lo hi c (String.make (max bar 1) '#'))
        end)
      t.counts;
    Buffer.contents buf
  end

module Windowed = struct
  (* Cumulative histogram plus two window buffers swapped by a global
     epoch counter.  Single-writer: only the owning thread calls [add];
     readers copy buffers racily (see [copy]).  The writer zeroes the
     buffer it is entering the first time it observes a new epoch, so a
     reader of window [(epoch - 1) land 1] sees the last *closed* window.
     A writer that recorded nothing during an epoch leaves its same-parity
     buffer stale until its next observation — acceptable display skew for
     an idle worker, never a torn count. *)
  type outer = t

  type t = {
    cum : outer;
    wins : outer array; (* length 2, indexed by epoch parity *)
    mutable seen_epoch : int;
  }

  let create ?base ?buckets () =
    {
      cum = create ?base ?buckets ();
      wins = [| create ?base ?buckets (); create ?base ?buckets () |];
      seen_epoch = 0;
    }

  let enter w ~epoch =
    if epoch <> w.seen_epoch then begin
      reset w.wins.(epoch land 1);
      w.seen_epoch <- epoch
    end;
    w.wins.(epoch land 1)

  let add w ~epoch v =
    let win = enter w ~epoch in
    add w.cum v;
    add win v

  let add_int w ~epoch v =
    let win = enter w ~epoch in
    add_int w.cum v;
    add_int win v

  let cumulative w = copy w.cum
  let window w ~epoch = copy w.wins.((epoch - 1) land 1)
end
