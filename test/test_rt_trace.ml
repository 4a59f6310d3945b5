(* Flight-recorder correctness on the real multicore runtime.

   The stress scenarios from test_rt_stress run again here with tracing
   enabled, and the *trace* — not the runtime's own counters — must
   prove color mutual exclusion and per-color FIFO through the offline
   replay checkers. Plus: ring overflow semantics (oldest spans
   dropped, [dropped] exposed, checkers still sound), latency-histogram
   independence from ring drops, steal-visit accounting, and Chrome
   trace-event export validated with a real JSON parse. *)

let busywork iters =
  let acc = ref 0 in
  for j = 1 to iters do
    acc := !acc + j
  done;
  ignore !acc

let trace_of rt =
  match Rt.Runtime.trace rt with
  | Some tr -> tr
  | None -> Alcotest.fail "tracing was enabled but Runtime.trace is None"

let check_replay ~msg tr =
  (match Rt.Trace.check_mutual_exclusion tr with
  | None -> ()
  | Some v ->
    let (wa, a), (wb, b) = (v.va, v.vb) in
    Alcotest.failf "%s: mutual-exclusion violation color %d (%s on w%d vs %s on w%d)"
      msg a.Rt.Trace.x_color a.x_handler wa b.x_handler wb);
  match Rt.Trace.check_fifo_per_color tr with
  | None -> ()
  | Some v ->
    let (_, a), (_, b) = (v.va, v.vb) in
    Alcotest.failf "%s: FIFO violation color %d (seq %d ran before seq %d)" msg
      a.Rt.Trace.x_color b.x_seq a.x_seq

let exec_count tr =
  List.length (Rt.Trace.execs tr)

(* The steal/enqueue ownership scenario under tracing: colors all hash
   to worker 0, handlers hop colors in a ring so enqueues race steals.
   The replay checker must find no violation, and with a roomy ring
   every execution must be retained. *)
let test_traced_ownership_replay () =
  for run = 1 to 10 do
    let workers = 2 + (run mod 3) in
    let rt =
      Rt.Runtime.create ~workers
        ~trace:{ Rt.Trace.capacity = 16_384; histograms = true }
        ()
    in
    let h = Rt.Runtime.handler rt ~name:"own" ~declared_cycles:500_000 () in
    let n_colors = 6 and seeds = 4 and depth = 5 in
    let color_of s = workers * (s + 1) in
    for c = 0 to n_colors - 1 do
      let slot_at d = (c + depth - d) mod n_colors in
      let rec work d (ctx : Rt.Runtime.ctx) =
        busywork 10_000;
        if d > 0 then
          ctx.register ~color:(color_of (slot_at (d - 1))) ~handler:h (work (d - 1))
      in
      for _ = 1 to seeds do
        Rt.Runtime.register rt ~color:(color_of (slot_at depth)) ~handler:h (work depth)
      done
    done;
    Rt.Runtime.run_until_idle rt;
    let tr = trace_of rt in
    check_replay ~msg:(Printf.sprintf "run %d" run) tr;
    Alcotest.(check int)
      (Printf.sprintf "run %d: every execution retained" run)
      (Rt.Runtime.executed rt) (exec_count tr);
    Alcotest.(check int)
      (Printf.sprintf "run %d: nothing dropped" run)
      0
      (Rt.Trace.total_dropped tr)
  done

(* The drain/recycle scenario: queues retire and re-mint between
   consecutive same-color events; seq numbers must still replay FIFO
   across the recycle. *)
let test_traced_recycled_replay () =
  for run = 1 to 10 do
    let workers = 2 + (run mod 3) in
    let rt =
      Rt.Runtime.create ~workers
        ~trace:{ Rt.Trace.capacity = 16_384; histograms = false }
        ()
    in
    let h = Rt.Runtime.handler rt ~name:"recycle" ~declared_cycles:100_000 () in
    let n_colors = 3 and chains = 6 and depth = 40 in
    for j = 0 to chains - 1 do
      let slot_at d = (j + depth - d) mod n_colors in
      let rec hop d (ctx : Rt.Runtime.ctx) =
        busywork 5_000;
        if d > 0 then ctx.register ~color:(1 + slot_at (d - 1)) ~handler:h (hop (d - 1))
      in
      Rt.Runtime.register rt ~color:(1 + slot_at depth) ~handler:h (hop depth)
    done;
    Rt.Runtime.run_until_idle rt;
    let tr = trace_of rt in
    check_replay ~msg:(Printf.sprintf "run %d" run) tr;
    Alcotest.(check int)
      (Printf.sprintf "run %d: every execution retained" run)
      (chains * (depth + 1))
      (exec_count tr)
  done

(* Ring overflow: a tiny ring keeps only the newest spans, counts the
   overwritten ones, never crashes, and the replay checkers stay sound
   on the retained suffix. *)
let test_ring_overflow () =
  let cap = 32 and events = 500 in
  let rt =
    Rt.Runtime.create ~workers:1 ~trace:{ Rt.Trace.capacity = cap; histograms = true } ()
  in
  let h = Rt.Runtime.handler rt ~name:"overflow" () in
  let count = Atomic.make 0 in
  for i = 0 to events - 1 do
    Rt.Runtime.register rt ~color:(1 + (i mod 4)) ~handler:h (fun _ ->
        Atomic.incr count)
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "all events ran despite overflow" events (Atomic.get count);
  let tr = trace_of rt in
  Alcotest.(check int) "ring holds exactly its capacity" cap (Rt.Trace.span_count tr 0);
  Alcotest.(check int) "span list matches" cap (List.length (Rt.Trace.spans tr 0));
  Alcotest.(check bool) "oldest spans were dropped and counted" true
    (Rt.Trace.dropped tr 0 >= events - cap);
  check_replay ~msg:"overflowed ring" tr;
  (* Histograms are cumulative, independent of ring drops. *)
  (match Rt.Trace.latency_summary tr with
  | [ l ] ->
    Alcotest.(check string) "handler name" "overflow" l.l_handler;
    Alcotest.(check int) "histogram saw every event" events l.l_count
  | ls -> Alcotest.failf "expected one handler in summary, got %d" (List.length ls));
  (* Export must still be well-formed after wraparound. *)
  Alcotest.(check bool) "export non-empty" true
    (String.length (Rt.Trace.export_chrome tr) > 0)

let test_latency_histograms () =
  let rt =
    Rt.Runtime.create ~workers:2 ~trace:{ Rt.Trace.capacity = 4_096; histograms = true }
      ()
  in
  let fast = Rt.Runtime.handler rt ~name:"fast" () in
  let slow = Rt.Runtime.handler rt ~name:"slow" ~declared_cycles:500_000 () in
  for i = 0 to 199 do
    Rt.Runtime.register rt ~color:(1 + (i mod 8)) ~handler:fast (fun _ -> busywork 100);
    Rt.Runtime.register rt ~color:(1 + (i mod 8)) ~handler:slow (fun _ ->
        busywork 50_000)
  done;
  Rt.Runtime.run_until_idle rt;
  let summary = Rt.Trace.latency_summary (trace_of rt) in
  Alcotest.(check int) "two handlers" 2 (List.length summary);
  List.iter
    (fun (l : Rt.Trace.latency) ->
      Alcotest.(check int) (l.l_handler ^ ": count") 200 l.l_count;
      Alcotest.(check bool) (l.l_handler ^ ": service p50 positive") true
        (l.l_service_p50 > 0.0);
      Alcotest.(check bool) (l.l_handler ^ ": qwait p50 <= p99") true
        (l.l_qwait_p50 <= l.l_qwait_p99);
      Alcotest.(check bool) (l.l_handler ^ ": service p50 <= p99") true
        (l.l_service_p50 <= l.l_service_p99))
    summary;
  let p50 name =
    (List.find (fun (l : Rt.Trace.latency) -> l.l_handler = name) summary).l_service_p50
  in
  Alcotest.(check bool) "slow handler measures slower" true (p50 "slow" > p50 "fast")

(* Per-victim steal accounting: every steal round probes at least one
   victim, every successful steal is a Won visit, and the trace agrees
   with the telemetry counters. *)
let test_visit_accounting () =
  let rt =
    Rt.Runtime.create ~workers:3 ~trace:{ Rt.Trace.capacity = 65_536; histograms = false }
      ()
  in
  let heavy = Rt.Runtime.handler rt ~name:"heavy" ~declared_cycles:400_000 () in
  for i = 0 to 599 do
    (* All colors home on worker 0: the others can only steal. The
       first event holds its worker until a sibling has stolen (bounded
       wait): on a loaded host the other domains can start late enough
       to find the backlog already gone. *)
    Rt.Runtime.register rt ~color:(3 * (1 + (i mod 12))) ~handler:heavy (fun _ ->
        let budget = ref (if i = 0 then 20_000 else 0) in
        while !budget > 0 && Rt.Runtime.steals rt = 0 do
          decr budget;
          busywork 20_000
        done;
        busywork 20_000)
  done;
  Rt.Runtime.run_until_idle rt;
  let tr = trace_of rt in
  let visits =
    Array.fold_left
      (fun acc (w : Rt.Telemetry.worker_snap) -> acc + w.w_metrics.visits)
      0 (Rt.Runtime.telemetry_snapshot rt).s_workers
  in
  let traced_visits = ref 0 and traced_won = ref 0 in
  for w = 0 to 2 do
    List.iter
      (fun span ->
        match span with
        | Rt.Trace.Visit v ->
          incr traced_visits;
          if v.v_outcome = Rt.Trace.Won then incr traced_won
        | _ -> ())
      (Rt.Trace.spans tr w)
  done;
  Alcotest.(check bool) "work was stolen" true (Rt.Runtime.steals rt > 0);
  Alcotest.(check int) "trace and counters agree on visits" visits !traced_visits;
  Alcotest.(check int) "one Won visit per steal" (Rt.Runtime.steals rt) !traced_won;
  Alcotest.(check bool) "every round probes at least one victim" true
    (visits >= Rt.Runtime.steal_attempts rt)

(* The thief's victim order is the fixed cache-locality order: built
   here from [Hw.Topology] the way the runtime builds it (pairs share an
   L2, two pairs a package; distance ties broken by ring order from the
   thief), never re-ranked at run time. So on every worker each Visit
   either starts a round (the head of the order) or probes the victim
   right after the previous Visit's. *)
let locality_order n w =
  let packages = max 1 ((n + 3) / 4) in
  let topo = Hw.Topology.create ~packages ~groups_per_package:2 ~cores_per_group:2 in
  let key v = (Hw.Topology.(distance_rank (distance topo w v)), (v - w + n) mod n) in
  List.sort
    (fun a b -> compare (key a) (key b))
    (List.filter (fun v -> v <> w) (List.init n Fun.id))

let test_visits_follow_locality () =
  let workers = 4 in
  let rt =
    Rt.Runtime.create ~workers
      ~trace:{ Rt.Trace.capacity = 65_536; histograms = false }
      ()
  in
  let heavy = Rt.Runtime.handler rt ~name:"heavy" ~declared_cycles:400_000 () in
  (* Every color homes on worker 0; the others get work only by
     stealing, and probe near-empty siblings along the way. Several
     runs on one runtime give the thieves many rounds to drift in. *)
  for _ = 1 to 5 do
    for i = 0 to 1_999 do
      Rt.Runtime.register rt ~color:(workers * (1 + (i mod 16))) ~handler:heavy (fun _ ->
          busywork 5_000)
    done;
    Rt.Runtime.run_until_idle rt
  done;
  let tr = trace_of rt in
  let checked = ref 0 in
  for w = 0 to workers - 1 do
    let order = locality_order workers w in
    let head = List.hd order in
    let rec next_after p = function
      | a :: (b :: _ as rest) -> if a = p then Some b else next_after p rest
      | _ -> None
    in
    (* With ring drops the oldest retained Visit may sit mid-round. *)
    let prev = ref None and first = ref (Rt.Trace.dropped tr w > 0) in
    List.iter
      (function
        | Rt.Trace.Visit v ->
          let continues =
            match !prev with
            | Some p -> next_after p order = Some v.v_victim
            | None -> false
          in
          if not (v.v_victim = head || continues || !first) then
            Alcotest.failf "worker %d probed %d after %s; locality order is [%s]" w
              v.v_victim
              (match !prev with Some p -> string_of_int p | None -> "nothing")
              (String.concat "; " (List.map string_of_int order));
          first := false;
          prev := Some v.v_victim;
          incr checked
        | _ -> ())
      (Rt.Trace.spans tr w)
  done;
  Alcotest.(check bool) "work was stolen" true (Rt.Runtime.steals rt > 0);
  Alcotest.(check bool) "visits were recorded" true (!checked > 0)

let test_tracing_disabled () =
  let rt = Rt.Runtime.create ~workers:2 () in
  let h = Rt.Runtime.handler rt ~name:"plain" () in
  let count = Atomic.make 0 in
  for i = 0 to 99 do
    Rt.Runtime.register rt ~color:(1 + (i mod 8)) ~handler:h (fun _ -> Atomic.incr count)
  done;
  Rt.Runtime.run_until_idle rt;
  Alcotest.(check int) "all ran" 100 (Atomic.get count);
  Alcotest.(check bool) "no recorder attached" true (Rt.Runtime.trace rt = None)

(* ------------------------------------------------------------------ *)
(* Chrome export: parse the JSON for real (minimal recursive-descent
   parser — no JSON library in the dependency set) and verify the
   trace-event schema fields Perfetto requires. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "bad \\u escape";
          pos := !pos + 4;
          Buffer.add_char buf '?'
        | Some c ->
          advance ();
          Buffer.add_char buf
            (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c)
        | None -> fail "dangling backslash");
        go ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let test_chrome_export_schema () =
  let workers = 4 in
  let rt =
    Rt.Runtime.create ~workers
      ~trace:{ Rt.Trace.capacity = 8_192; histograms = true }
      ()
  in
  let h = Rt.Runtime.handler rt ~name:"span \"quoted\"\n" ~declared_cycles:300_000 () in
  for i = 0 to 299 do
    (* Home everything on worker 0 so the others record steal visits. *)
    Rt.Runtime.register rt ~color:(workers * (1 + (i mod 6))) ~handler:h (fun _ ->
        busywork 5_000)
  done;
  Rt.Runtime.run_until_idle rt;
  let out = Rt.Trace.export_chrome (trace_of rt) in
  let parsed =
    match parse_json out with
    | j -> j
    | exception Parse_error msg -> Alcotest.failf "export is not valid JSON: %s" msg
  in
  let events =
    match parsed with
    | Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Arr evs) -> evs
      | _ -> Alcotest.fail "missing traceEvents array")
    | _ -> Alcotest.fail "top level is not an object"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let tids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | Obj fields ->
        let field k =
          match List.assoc_opt k fields with
          | Some v -> v
          | None -> Alcotest.failf "event missing required key %s" k
        in
        (match field "ph" with
        | Str ("X" | "i" | "M") -> ()
        | Str other -> Alcotest.failf "unexpected phase %s" other
        | _ -> Alcotest.fail "ph is not a string");
        (match (field "ts", field "pid", field "tid") with
        | Num _, Num pid, Num tid ->
          Alcotest.(check bool) "pid constant" true (pid = 0.0);
          if (match field "ph" with Str "M" -> false | _ -> true) then
            Hashtbl.replace tids (int_of_float tid) ()
        | _ -> Alcotest.fail "ts/pid/tid not numeric")
      | _ -> Alcotest.fail "event is not an object")
    events;
  (* Every worker left at least one real (non-metadata) span: worker 0
     executes, the others execute stolen work or record steal visits. *)
  for w = 0 to workers - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "worker %d appears in the trace" w)
      true (Hashtbl.mem tids w)
  done

let suite =
  [
    Alcotest.test_case "traced ownership stress replays clean x10" `Slow
      test_traced_ownership_replay;
    Alcotest.test_case "traced recycled colors replay clean x10" `Slow
      test_traced_recycled_replay;
    Alcotest.test_case "ring overflow drops oldest, keeps counting" `Quick
      test_ring_overflow;
    Alcotest.test_case "latency histograms per handler" `Quick test_latency_histograms;
    Alcotest.test_case "steal-visit accounting ties out" `Quick test_visit_accounting;
    Alcotest.test_case "visits follow the locality order" `Quick
      test_visits_follow_locality;
    Alcotest.test_case "tracing disabled is inert" `Quick test_tracing_disabled;
    Alcotest.test_case "chrome export parses with required keys" `Quick
      test_chrome_export_schema;
  ]
