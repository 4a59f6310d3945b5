(* Split a Treiber-stack image (newest first, as exchanged out of a
   worker's inbox) into up to [max_take] claimed elements and the rest.
   Claims go oldest-first — the colors the owner has waited longest to
   serve — and both halves keep their relative order: [claimed] is
   returned oldest-first (the order a thief should adopt them in), and
   [rest] newest-first (the order a single CAS can append back under
   any concurrently pushed entries). The pure core of the runtime's
   inbox steal, factored out so the order-preservation regression test
   needs no domains. *)
let split_stack ~newest_first ~max_take pred =
  let rec go claimed n rest = function
    | [] -> (List.rev claimed, rest)
    | x :: tl when n < max_take && pred x -> go (x :: claimed) (n + 1) rest tl
    | x :: tl -> go claimed n (x :: rest) tl
  in
  go [] 0 [] (List.rev newest_first)
