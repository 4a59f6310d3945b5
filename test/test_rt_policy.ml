(* The inbox split without domains: [Rt.Policy.split_stack] is the
   pure core of the thief's inbox steal. *)

module P = Rt.Policy

(* The regression this locks down: when the inbox holds more than one
   worthy queue, the claimed prefix comes out oldest-first and the
   unclaimed rest keeps its newest-first stack order — so the
   single-CAS re-push preserves the relative age of everything it
   returns, instead of reversing it the way one-at-a-time re-pushes
   did. *)
let test_split_stack () =
  (* Stack image of pushes 1,2,3,4,5: newest first. *)
  let stack = [ 5; 4; 3; 2; 1 ] in
  let claimed, rest =
    P.split_stack ~newest_first:stack ~max_take:2 (fun v -> v mod 2 = 0)
  in
  Alcotest.(check (list int)) "claims oldest-first" [ 2; 4 ] claimed;
  Alcotest.(check (list int)) "rest keeps stack order" [ 5; 3; 1 ] rest;
  let claimed, rest =
    P.split_stack ~newest_first:stack ~max_take:1 (fun v -> v mod 2 = 0)
  in
  Alcotest.(check (list int)) "max_take caps the claim" [ 2 ] claimed;
  Alcotest.(check (list int)) "unclaimed worthy stays put" [ 5; 4; 3; 1 ] rest;
  let claimed, rest =
    P.split_stack ~newest_first:stack ~max_take:8 (fun _ -> true)
  in
  Alcotest.(check (list int)) "all claimed, oldest first" [ 1; 2; 3; 4; 5 ]
    claimed;
  Alcotest.(check (list int)) "nothing left" [] rest;
  let claimed, rest =
    P.split_stack ~newest_first:stack ~max_take:0 (fun _ -> true)
  in
  Alcotest.(check (list int)) "max_take 0 claims nothing" [] claimed;
  Alcotest.(check (list int)) "and the image survives intact" stack rest

let suite =
  [ Alcotest.test_case "split_stack order preservation" `Quick test_split_stack ]
