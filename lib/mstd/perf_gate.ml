type check = { ok : bool; line : string }

type metric = { name : string; higher : bool; bound : float }

type run = { correct : bool; attempted : int; failed : int; values : (string * float) list }

let metric j =
  {
    name = Json.get_str "name" j;
    higher = Json.get_str "better" j = "higher";
    bound = Json.get_float "bound" j;
  }

let run_of_line line =
  let j = Json.parse line in
  let values =
    match Json.member_exn "metrics" j with
    | Json.Obj fields -> List.map (fun (n, v) -> (n, Json.get_float "value" v)) fields
    | _ -> raise (Json.Parse_error "metrics is not an object")
  in
  {
    correct = Json.to_bool (Json.member_exn "correct" j);
    attempted = Json.get_int "attempted" j;
    failed = Json.get_int "failed" j;
    values;
  }

let check ok fmt = Printf.ksprintf (fun line -> { ok; line }) fmt

let worse m ~base ~change =
  if m.higher then change < base *. (1. -. m.bound) else change > base *. (1. +. m.bound)

let failed_share runs =
  let attempted, failed =
    List.fold_left (fun (a, f) r -> (a + r.attempted, f + r.failed)) (0, 0) runs
  in
  float_of_int failed /. float_of_int (max 1 attempted)

let judge_metric w pairs m =
  let judged =
    List.filter_map
      (fun (b, c) ->
        match (List.assoc_opt m.name b.values, List.assoc_opt m.name c.values) with
        | Some vb, Some vc -> Some (vb, vc)
        | _ -> None)
      pairs
  in
  let n_worse = List.length (List.filter (fun (base, change) -> worse m ~base ~change) judged) in
  let cell f = String.concat " " (List.map (fun p -> Printf.sprintf "%.4g" (f p)) judged) in
  check
    (judged = [] || n_worse < List.length judged)
    "%s %s (%s is better, bound %.0f%%): base %s | change %s | worse beyond bound in %d/%d pairs"
    w m.name
    (if m.higher then "higher" else "lower")
    (100. *. m.bound) (cell fst) (cell snd) n_worse (List.length judged)

let judge_workload metrics w base change =
  match (List.map run_of_line base, List.map run_of_line change) with
  | exception Json.Parse_error msg -> [ check false "%s: bad result line: %s" w msg ]
  | b, c when b = [] || List.length b <> List.length c ->
    [ check false "%s: %d base runs against %d change runs" w (List.length b) (List.length c) ]
  | b, c ->
    let incorrect = List.length (List.filter (fun r -> not r.correct) (b @ c)) in
    let sb = failed_share b and sc = failed_share c in
    check (incorrect = 0) "%s: %d of %d runs incorrect" w incorrect (List.length (b @ c))
    :: check (sc <= sb) "%s: failed share base %.6f, change %.6f" w sb sc
    :: List.map (judge_metric w (List.combine b c)) metrics

let judge ~benchmark ~base ~change =
  let metrics = List.map metric (Json.get_list "end_to_end" benchmark) in
  List.concat_map
    (fun wj ->
      let w = Json.get_str "name" wj in
      let lines side = Option.value ~default:[] (List.assoc_opt w side) in
      judge_workload metrics w (lines base) (lines change))
    (Json.get_list "workloads" benchmark)
