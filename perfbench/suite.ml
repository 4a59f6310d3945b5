(* The benchmark's command.

   suite.exe --workload W --seed N --seconds S --trace 0|1 [--trace-file F]
     One workload in this process. Prints a report, then as its last
     line one JSON object: {"correct", "attempted", "failed", "metrics"}.
     --trace 0 gives the end-to-end metrics of BENCHMARK.json, --trace 1
     the per-layer ones (and writes Chrome trace JSON).
   suite.exe suite [--seed N] [--workload W]... [--seconds S] [--repeat K]
                   [--out FILE] [--trace FILE]
     Every named workload (default: all), each run in a re-executed
     child process, K interleaved rounds with seeds N, N+1, ...; prints
     median/min/max per metric and flags a spread wider than the
     metric's bound. --trace adds one traced run per workload.
   suite.exe micro [--seconds S]
     Only the per-layer cost budget. *)

let spec_file = "BENCHMARK.json"

(* ------------------------------------------------------------------ *)
(* Host facts. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_revision () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> String.trim (read_file (Filename.concat ".git" r))
    | _ -> head
  with Sys_error _ -> "unknown"

let peak_rss_mb () =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> 0.0

let cores = Domain.recommended_domain_count ()

(* Aggregate CPU jiffies from /proc/stat as (steal, total). Steal is
   time the hypervisor ran something else on the VM's vCPUs: the
   usual cause of a run that is slower across the board. *)
let cpu_jiffies () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ -> (
    match List.filter (fun f -> f <> "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.map int_of_string fields in
      ((match List.nth_opt v 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 v)
    | _ -> (0, 0))
  | [] -> (0, 0)

let host_line ~domains =
  Printf.sprintf "host: nproc=%d ocaml=%s rev=%s domains=%d cores=%d oversubscribed=%b" cores
    Sys.ocaml_version (git_revision ()) domains cores (domains > cores)

(* ------------------------------------------------------------------ *)
(* The metric list lives in BENCHMARK.json; the command prints exactly
   the metrics named there, in that order. *)

type spec_metric = { m_name : string; m_unit : string; m_bound : float option }

let spec section =
  let j = Mstd.Json.parse (read_file spec_file) in
  List.map
    (fun m ->
      {
        m_name = Mstd.Json.get_str "name" m;
        m_unit = Mstd.Json.get_str "unit" m;
        m_bound = Option.map Mstd.Json.to_float (Mstd.Json.member "bound" m);
      })
    (Mstd.Json.get_list section j)

(* Per-layer metrics of a layer a workload does not exercise (the front
   end on an injection workload, the register call on a serving one)
   read 0. *)
let metrics_json section computed ~missing_ok =
  let fields, missing =
    List.fold_right
      (fun m (fields, missing) ->
        match List.find_opt (fun (n, _, _) -> n = m.m_name) computed with
        | Some (_, v, _) -> ((m.m_name, v, m.m_unit) :: fields, missing)
        | None -> ((m.m_name, 0.0, m.m_unit) :: fields, if missing_ok then missing else m.m_name :: missing))
      (spec section) ([], [])
  in
  ( Mstd.Json.Obj
      (List.map
         (fun (n, v, u) -> (n, Mstd.Json.Obj [ ("value", Mstd.Json.Num v); ("unit", Mstd.Json.Str u) ]))
         fields),
    missing )

let result_line ~correct ~attempted ~failed metrics =
  Mstd.Json.to_string
    (Mstd.Json.Obj
       [
         ("correct", Mstd.Json.Bool correct);
         ("attempted", Mstd.Json.int attempted);
         ("failed", Mstd.Json.int failed);
         ("metrics", metrics);
       ])

(* ------------------------------------------------------------------ *)
(* One workload. *)

let setup (w : Workload.t) =
  if Workload.serving w then Serve.setup w else Inject.setup w

(* Phase lengths are shares of --seconds, in 26ths. *)
let share seconds k = seconds *. k /. 26.0

(* Each phase draws its schedule from its own stream of the seed. *)
let phase_seed seed k = (seed * 1_000) + k

let phase_header () =
  Printf.printf "%-8s %9s %8s %8s %6s %9s %9s %9s %8s %6s %10s %7s %9s\n" "phase" "rate/s" "offered"
    "ok" "errors" "p50_ms" "p90_ms" "p99_ms" "samples" "tail%" "lag_p99ms" "drained" "cpu_us/op"

let cpu_us_per_op (p : Phase.t) = if p.ok = 0 then 0.0 else p.cpu_s /. float_of_int p.ok *. 1e6

let phase_row (p : Phase.t) =
  let n = Samples.count p.lat_ms in
  Printf.printf "%-8s %9.0f %8d %8d %6d %9.3f %9.3f %9.3f %8d %6.1f %10.3f %7b %9.2f\n%!" p.name p.rate
    p.offered p.ok p.errors (Phase.p50 p) (Phase.p90 p) (Phase.p99 p) n
    (Samples.supported_percentile n) (Samples.percentile p.lag_ms 99.0) p.drained (cpu_us_per_op p)

(* Every phase starts from a collected heap, so one phase's garbage is
   not another's GC work and the memory high-water mark does not depend
   on when a collection happened to run. *)
let measured f =
  Gc.full_major ();
  let p = f () in
  phase_row p;
  p

let attempted phases = List.fold_left (fun acc (p : Phase.t) -> acc + p.offered) 0 phases
let errors phases = List.fold_left (fun acc (p : Phase.t) -> acc + p.errors) 0 phases

let report_verdicts failures =
  match failures with
  | [] -> print_endline "verdicts: all pass"
  | fs -> List.iter (fun f -> Printf.printf "verdict FAILED: %s\n" f) fs

let median xs = Samples.median (Samples.of_list xs)

(* On a 2-vCPU host the latency and throughput of a 1-2 s phase move by
   10-20% from one phase to the next, and with them which worker holds
   which color. So the run is [rounds] short rounds, each on a freshly
   set-up runtime, and every metric is the median over rounds. *)
let rounds = 10

type round = { setup_s : float; lo : Phase.t; hi : Phase.t; peak : Phase.t; trial : Phase.t }

(* The knee search: the first trial runs halfway between hi and the
   first round's peak; after each trial the rate steps up on a pass and
   down on a fail, the step halving each time down to [floor_step] of
   the rate. That is a bisection that turns into a staircase settling
   where the limit holds in half the trials; the answer is the median
   rate of the trials from the fourth on. *)
let floor_step = 0.03
let staircase_from = 3

(* The end-to-end run: a warm-up, then [rounds] rounds of set-up (timed
   from runtime creation to the first correct response or event), the
   fixed lo and hi rates, a closed-loop peak, one knee trial, teardown
   (with its correctness verdicts). A trial passes when p90 meets the
   workload's limit, the backlog drained within 1 s of the last send and
   no op failed. *)
let end_to_end (w : Workload.t) ~seed ~seconds =
  let failures = ref [] in
  let first, first_setup = setup w ~seed ~traced:false in
  print_endline (host_line ~domains:first.domains);
  phase_header ();
  let run (inst : Phase.instance) name rate k dur =
    measured (fun () ->
        inst.open_loop ~name ~rate ~seconds:(share seconds dur) ~seed:(phase_seed seed k))
  in
  (* The warm-up ends with a saturating burst, so the first round's peak
     (which sets where the knee search starts) is as warm as the rest. *)
  let warm = run first "warmup" w.hi 1 1.5 in
  let burst = measured (fun () -> first.closed_loop ~seconds:(share seconds 0.5)) in
  let meets p = Phase.meets p ~limit_ms:w.p90_limit_ms in
  let rate = ref 0.0 and step = ref 0.0 and tried = ref [] in
  let rss = ref 0.0 in
  let per_round =
    List.init rounds (fun r ->
        let inst, setup_s = if r = 0 then (first, first_setup) else setup w ~seed ~traced:false in
        let k = 10 * (r + 1) in
        let lo = run inst "lo" w.lo (k + 1) 0.8 in
        let hi = run inst "hi" w.hi (k + 2) 0.8 in
        (* The memory mark of serving at the fixed rates, before any
           saturating phase has grown the heap. *)
        if r = 0 then rss := peak_rss_mb ();
        let peak = measured (fun () -> inst.closed_loop ~seconds:(share seconds 0.4)) in
        if r = 0 then begin
          step := Float.max 0.0 (peak.rate -. w.hi) /. 2.0;
          rate := w.hi +. !step
        end;
        let trial = run inst "trial" !rate (k + 3) 0.4 in
        if r >= staircase_from then tried := !rate :: !tried;
        step := Float.max (!step /. 2.0) (floor_step *. !rate);
        rate := Float.max w.lo (if meets trial then !rate +. !step else !rate -. !step);
        failures := !failures @ inst.teardown ();
        { setup_s; lo; hi; peak; trial })
  in
  let max_ok = median !tried in
  let over f = median (List.map f per_round) in
  let pooled_p99 pick =
    let all = Samples.create 1024 in
    List.iter (fun r -> Array.iter (Samples.add all) (Samples.values (pick r).Phase.lat_ms)) per_round;
    (Samples.percentile all 99.0, Samples.count all)
  in
  let p99_lo, n_lo = pooled_p99 (fun r -> r.lo) and p99_hi, n_hi = pooled_p99 (fun r -> r.hi) in
  let setups = List.map (fun r -> r.setup_s) per_round in
  Printf.printf "setup_s: %s\n" (String.concat " " (List.map (Printf.sprintf "%.6f") setups));
  Printf.printf "max_ok_rate: %.0f ops/s (p90 limit %.0f ms, drain within 1 s, no errors)\n" max_ok
    w.p90_limit_ms;
  (* The tail is reported, not gated: on a 2-vCPU host the same commit's
     p90 moves 20-40% between runs and its p99 2-5x between phases. *)
  Printf.printf "p90 (median over rounds): lo %.3f ms, hi %.3f ms\n"
    (over (fun r -> Phase.p90 r.lo)) (over (fun r -> Phase.p90 r.hi));
  Printf.printf "p99 over all rounds: lo %.3f ms of %d samples, hi %.3f ms of %d samples\n" p99_lo n_lo
    p99_hi n_hi;
  Printf.printf "peak RSS: %.1f MB at the fixed rates, %.1f MB for the whole run\n" !rss (peak_rss_mb ());
  let computed =
    [
      ("setup_s", median setups, "s");
      ("peak_ops_s", over (fun r -> r.peak.rate), "1/s");
      ("p50_lo_ms", over (fun r -> Phase.p50 r.lo), "ms");
      ("p50_hi_ms", over (fun r -> Phase.p50 r.hi), "ms");
      ("cpu_us_per_op", over (fun r -> cpu_us_per_op r.hi), "us");
      ("peak_rss_mb", !rss, "MB");
    ]
  in
  let phases = warm :: burst :: List.concat_map (fun r -> [ r.lo; r.hi; r.peak; r.trial ]) per_round in
  let attempted = attempted phases + rounds and errs = errors phases in
  Printf.printf "error_rate: %.6f (%d of %d ops)\n" (Layers.ratio (float_of_int errs) (float_of_int attempted)) errs attempted;
  (computed, attempted, errs, !failures)

let layer_percentiles (p : Phase.t) layer ~p50 ~p99 =
  match List.assoc_opt layer p.layers with
  | None -> []
  | Some s -> [ (p50, Samples.percentile s 50.0, "us"); (p99, Samples.percentile s 99.0, "us") ]

let write_chrome file (w : Workload.t) ~seed (p : Phase.t) ~extra =
  (match Filename.dirname file with "." -> () | d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755);
  Out_channel.with_open_bin file (fun oc ->
      Printf.fprintf oc "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\"traceEvents\":[\n%s\n]}\n"
        (Mstd.Json.to_string
           (Mstd.Json.Obj
              ([ ("workload", Mstd.Json.Str w.name); ("seed", Mstd.Json.int seed) ]
              @ List.map (fun (n, v, _) -> (n, Mstd.Json.Num v)) extra)))
        (String.concat ",\n" p.chrome));
  Printf.printf "wrote %s (%d trace events)\n" file (List.length p.chrome)

(* The per-layer run: an untraced hi phase as the reference, then the
   same hi phase on a runtime created with the flight recorder on and
   with bench stamps at every layer boundary; then the micro budget. *)
let traced (w : Workload.t) ~seed ~seconds ~trace_file =
  let failures = ref [] in
  let inst, _ = setup w ~seed ~traced:false in
  print_endline (host_line ~domains:inst.domains);
  phase_header ();
  let run (inst : Phase.instance) name k dur =
    measured (fun () -> inst.open_loop ~name ~rate:w.hi ~seconds:(share seconds dur) ~seed:(phase_seed seed k))
  in
  let warm0 = run inst "warmup" 1 2.0 in
  let reference = run inst "hi" 3 6.0 in
  failures := !failures @ inst.teardown ();
  let inst, _ = setup w ~seed ~traced:true in
  let warm1 = run inst "warmup" 1 1.0 in
  let rt0 = Layers.rt_snap inst.rt and net0 = Option.map Layers.net_snap inst.server in
  let hi = run inst "hi.trace" 3 6.0 in
  let rt1 = Layers.rt_snap inst.rt and net1 = Option.map Layers.net_snap inst.server in
  failures := !failures @ inst.teardown ();
  let tr = Option.get (Rt.Runtime.trace inst.rt) in
  let table1, probes, steals = Layers.table1 tr in
  let app_layer = if Workload.serving w then "app" else "handler" in
  let app_ns = Option.fold ~none:0.0 ~some:(fun s -> Samples.sum s *. 1e3) (List.assoc_opt app_layer hi.layers) in
  let overhead = Layers.ratio (Phase.p50 hi -. Phase.p50 reference) (Phase.p50 reference) *. 100.0 in
  let self = List.map (fun (l, s) -> ("self." ^ l ^ "_us", Samples.mean s, "us")) hi.layers in
  let quota = Float.max 0.05 (share seconds 4.0 /. 11.0) in
  let micro = List.map (fun (n, ns) -> ("micro." ^ n ^ "_ns", ns, "ns")) (Micro.run ~quota) in
  let computed =
    List.concat
      [
        [
          ("loadgen.lag_p99_ms", Samples.percentile hi.lag_ms 99.0, "ms");
          ("loadgen.offered_ops", float_of_int hi.offered, "count");
        ];
        layer_percentiles hi "rtnet.in" ~p50:"rtnet.in_us_p50" ~p99:"rtnet.in_us_p99";
        layer_percentiles hi "rtnet.out" ~p50:"rtnet.out_us_p50" ~p99:"rtnet.out_us_p99";
        (match (net0, net1) with Some a, Some b -> Layers.net_metrics a b | _ -> []);
        layer_percentiles hi app_layer ~p50:"app.service_us_p50" ~p99:"app.service_us_p99";
        [ ("app.busy_share", Layers.ratio app_ns (Layers.service_ns rt0 rt1), "ratio") ];
        (if Samples.count hi.calls = 0 then []
         else
           [
             ("rt.inject_us_p50", Samples.percentile hi.calls 50.0, "us");
             ("rt.inject_us_p99", Samples.percentile hi.calls 99.0, "us");
           ]);
        layer_percentiles hi "rt.qwait" ~p50:"rt.qwait_us_p50" ~p99:"rt.qwait_us_p99";
        Layers.rt_metrics rt0 rt1 ~ops:hi.ok ~wall_s:hi.wall_s ~pending_peak:hi.pending_peak;
        table1;
        [ ("trace.overhead_pct", overhead, "%") ];
        self;
        micro;
      ]
  in
  Printf.printf "trace overhead: p50_hi %.4f ms traced vs %.4f ms untraced (%+.1f%%)\n"
    (Phase.p50 hi) (Phase.p50 reference) overhead;
  Printf.printf "self time per op (us): %s\n"
    (String.concat ", " (List.map (fun (n, v, _) -> Printf.sprintf "%s %.2f" n v) self));
  Printf.printf "Table I on real domains (%d probes, %d steals): %s\n" probes steals
    (String.concat ", " (List.map (fun (n, v, u) -> Printf.sprintf "%s %.1f %s" n v u) table1));
  (match Harness.Experiments.find "table1" with
  | Some e -> print_string (Mstd.Table.render (e.run ~quick:true))
  | None -> ());
  if w.shape = Workload.Fine then begin
    (* The owner-path budget: the per-event pieces the runtime pays on
       every event against the CPU the whole process spends per event. *)
    let ns n = Option.value (List.assoc_opt n (List.map (fun (n, v, _) -> (n, v)) micro)) ~default:0.0 in
    let parts = (5.0 *. ns "micro.clock_now_ns") +. ns "micro.spmc_push_pop_ns" +. ns "micro.telemetry_on_exec_ns" in
    let cpu_ns = Layers.ratio (reference.cpu_s *. 1e9) (float_of_int reference.ok) in
    let margin = 0.5 in
    Printf.printf
      "owner-path budget: 5 clock reads + spmc push/pop + telemetry = %.0f ns; register_run %.0f ns/event; \
       CPU per event at hi %.0f ns; parts within %.0f%% of CPU per event: %b\n"
      parts (ns "micro.register_run_ns") cpu_ns (margin *. 100.0)
      (Float.abs (parts -. cpu_ns) <= margin *. cpu_ns)
  end;
  write_chrome trace_file w ~seed hi ~extra:(self @ [ ("trace.overhead_pct", overhead, "%") ]);
  let phases = [ warm0; reference; warm1; hi ] in
  (computed, attempted phases + 2, errors phases, !failures)

let run_one ~workload ~seed ~seconds ~trace ~trace_file =
  let w =
    match Workload.find workload with
    | Some w -> w
    | None -> failwith (Printf.sprintf "unknown workload %S" workload)
  in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n%!" w.name seed seconds trace;
  let steal0, total0 = cpu_jiffies () in
  let section = if trace then "per_layer" else "end_to_end" in
  let computed, attempted, errs, failures =
    if trace then
      let file = Option.value trace_file ~default:(Printf.sprintf ".perfbench-out/%s-seed%d.trace.json" w.name seed) in
      traced w ~seed ~seconds ~trace_file:file
    else end_to_end w ~seed ~seconds
  in
  let steal1, total1 = cpu_jiffies () in
  Printf.printf "host steal: %.1f%% of CPU time during the run\n"
    (100.0 *. Layers.ratio (float_of_int (steal1 - steal0)) (float_of_int (total1 - total0)));
  let metrics, missing = metrics_json section computed ~missing_ok:trace in
  let failures = failures @ List.map (fun m -> "metric not measured: " ^ m) missing in
  report_verdicts failures;
  let correct = failures = [] && errs = 0 in
  print_endline
    (result_line ~correct ~attempted ~failed:(errs + List.length failures) metrics);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* The suite: each workload in a re-executed child. *)

let child_result args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let text = In_channel.input_all (Unix.in_channel_of_descr out_r) in
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  print_string text;
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  match (status, List.rev lines) with
  | _, last :: _ -> ( try Some (Mstd.Json.parse last) with Mstd.Json.Parse_error _ -> None)
  | _, [] -> None

let metric_value j name =
  Mstd.Json.(get_float "value" (member_exn name (member_exn "metrics" j)))

let suite ~seed ~workloads ~seconds ~repeat ~out ~trace =
  let workloads = if workloads = [] then List.map (fun (w : Workload.t) -> w.name) Workload.all else workloads in
  let args w s t = [ "--workload"; w; "--seed"; string_of_int s; "--seconds"; Printf.sprintf "%g" seconds; "--trace"; t ] in
  (* Rounds are interleaved across workloads so drift in the host's
     load hits every workload alike. *)
  let runs = Hashtbl.create 16 in
  for k = 0 to repeat - 1 do
    List.iter
      (fun w ->
        let r = child_result (args w (seed + k) "0") in
        Hashtbl.replace runs w (r :: (try Hashtbl.find runs w with Not_found -> [])))
      workloads
  done;
  let traces =
    match trace with
    | None -> []
    | Some file ->
      List.map
        (fun w ->
          let f = Filename.remove_extension file ^ "-" ^ w ^ ".json" in
          (w, child_result (args w seed "1" @ [ "--trace-file"; f ])))
        workloads
  in
  let all_ok = ref true in
  let summary =
    List.map
      (fun w ->
        let results = Hashtbl.find runs w in
        let good = List.filter_map Fun.id results in
        if List.length good < List.length results then all_ok := false;
        List.iter (fun j -> if not (Mstd.Json.(to_bool (member_exn "correct" j))) then all_ok := false) good;
        Printf.printf "\n== %s: %d runs, median / min / max, spread = IQR / median ==\n" w (List.length good);
        let rows =
          List.map
            (fun m ->
              let vs = Array.of_list (List.map (fun j -> metric_value j m.m_name) good) in
              let pct p = if vs = [||] then 0.0 else Mstd.Stats.percentile vs p in
              let med = pct 50.0 in
              let spread = Layers.ratio (pct 75.0 -. pct 25.0) med in
              let flag =
                match m.m_bound with
                | Some b when spread > b && m.m_name <> "setup_s" -> "  SPREAD > BOUND"
                | _ -> ""
              in
              Printf.printf "%-20s %14.6g %14.6g %14.6g %s  spread %.3f%s\n" m.m_name med (pct 0.0)
                (pct 100.0) m.m_unit spread flag;
              ( m.m_name,
                Mstd.Json.Obj
                  [
                    ("median", Mstd.Json.Num med);
                    ("min", Mstd.Json.Num (pct 0.0));
                    ("max", Mstd.Json.Num (pct 100.0));
                    ("spread", Mstd.Json.Num spread);
                  ] ))
            (spec "end_to_end")
        in
        (w, Mstd.Json.Obj rows))
      workloads
  in
  List.iter (fun (_, r) -> if r = None then all_ok := false) traces;
  Option.iter
    (fun file ->
      let json =
        Mstd.Json.Obj
          [
            ( "host",
              Mstd.Json.Obj
                [
                  ("nproc", Mstd.Json.int cores);
                  ("ocaml", Mstd.Json.Str Sys.ocaml_version);
                  ("rev", Mstd.Json.Str (git_revision ()));
                  ("seed", Mstd.Json.int seed);
                  ("repeat", Mstd.Json.int repeat);
                  ("seconds", Mstd.Json.Num seconds);
                ] );
            ("summary", Mstd.Json.Obj summary);
            ( "traced",
              Mstd.Json.Obj (List.map (fun (w, r) -> (w, Option.value r ~default:Mstd.Json.Null)) traces) );
          ]
      in
      Out_channel.with_open_bin file (fun oc -> output_string oc (Mstd.Json.to_string json ^ "\n"));
      Printf.printf "wrote %s\n" file)
    out;
  exit (if !all_ok then 0 else 1)

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, args =
    match args with
    | ("suite" | "micro") as m :: rest -> (m, rest)
    | rest -> ("run", rest)
  in
  let seed = ref 1 and seconds = ref 26.0 and trace = ref "0" and trace_file = ref None in
  let workloads = ref [] and repeat = ref 1 and out = ref None in
  let rec parse = function
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v; parse rest
    | "--trace-file" :: v :: rest -> trace_file := Some v; parse rest
    | "--workload" :: v :: rest -> workloads := !workloads @ [ v ]; parse rest
    | "--repeat" :: v :: rest -> repeat := int_of_string v; parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | [] -> ()
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  parse args;
  match mode with
  | "micro" ->
    List.iter (fun (n, ns) -> Printf.printf "micro.%s_ns %.1f\n" n ns) (Micro.run ~quota:(share !seconds 4.0 /. 11.0))
  | "suite" ->
    suite ~seed:!seed ~workloads:!workloads ~seconds:!seconds ~repeat:!repeat ~out:!out
      ~trace:(if !trace = "0" then None else Some !trace)
  | _ -> (
    match !workloads with
    | [ workload ] ->
      run_one ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = "1") ~trace_file:!trace_file
    | _ -> failwith "run: exactly one --workload")
