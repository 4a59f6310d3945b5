(* The benchmark harness.

   Two parts:

   1. The paper reproduction: every table and figure of the evaluation
      (Section V), regenerated on the simulated testbed and printed with
      the paper's numbers alongside. `bench/main.exe` runs all of them;
      `bench/main.exe table3 fig7 ...` selects; `--quick` shrinks
      durations.

   2. Bechamel microbenchmarks of the simulator's primitives and of
      the crypto_16k handler (ChaCha20, HMAC-SHA256, and the whole
      sealed response), run with `bench/main.exe micro`; perfbench/
      measures the real runtime, the front end and ChaCha20. *)

let run_experiment ~quick id =
  match Harness.Experiments.find id with
  | None ->
    Printf.eprintf "unknown experiment %S\n" id;
    exit 1
  | Some e ->
    Printf.printf "== %s ==\n%s\n%!" e.Harness.Experiments.title e.description;
    print_string (Mstd.Table.render (e.run ~quick));
    print_newline ()

let run_all ~quick =
  List.iter (fun e -> run_experiment ~quick e.Harness.Experiments.id) Harness.Experiments.all

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: real wall-clock cost of the primitives.  *)

let bench_laqueue =
  let handler = Engine.Handler.make ~declared_cycles:100 "bench" in
  Bechamel.Test.make ~name:"laqueue push+pop x100"
    (Bechamel.Staged.stage (fun () ->
         let q = Engine.Laqueue.create () in
         for i = 0 to 99 do
           Engine.Laqueue.push q (Engine.Event.make ~handler ~color:i ~cost:1 ())
         done;
         for _ = 0 to 99 do
           ignore (Engine.Laqueue.pop q)
         done))

let bench_laqueue_extract =
  let handler = Engine.Handler.make ~declared_cycles:100 "bench" in
  Bechamel.Test.make ~name:"laqueue extract_color (deep scan)"
    (Bechamel.Staged.stage (fun () ->
         let q = Engine.Laqueue.create () in
         for i = 0 to 199 do
           Engine.Laqueue.push q (Engine.Event.make ~handler ~color:(i mod 50) ~cost:1 ())
         done;
         ignore (Engine.Laqueue.extract_color q 49)))

let bench_melyq_splice =
  let handler = Engine.Handler.make ~declared_cycles:100 "bench" in
  Bechamel.Test.make ~name:"melyq steal splice x50 (O(1) each)"
    (Bechamel.Staged.stage (fun () ->
         let coreq = Engine.Melyq.create_core_queue ~core:0 in
         let thief = Engine.Melyq.create_core_queue ~core:1 in
         for c = 0 to 49 do
           let cq = Engine.Melyq.make_color_queue ~color:c ~owner:0 in
           for _ = 0 to 3 do
             Engine.Melyq.push_event cq None (Engine.Event.make ~handler ~color:c ~cost:1 ())
               ~weighted:100
           done;
           Engine.Melyq.append coreq cq
         done;
         let rec drain () =
           match Engine.Melyq.head coreq with
           | None -> ()
           | Some cq ->
             Engine.Melyq.detach coreq cq;
             Engine.Melyq.append thief cq;
             drain ()
         in
         drain ()))

let bench_cache_model =
  Bechamel.Test.make ~name:"cache model access x100"
    (Bechamel.Staged.stage (fun () ->
         let cache = Hw.Cache.create Hw.Topology.xeon_e5410 Hw.Cost_model.default in
         for i = 0 to 99 do
           ignore
             (Hw.Cache.access cache ~core:(i mod 8) ~data:(i mod 16) ~bytes:4096 ~write:false)
         done))

(* The two kernels of one perfbench crypto_16k request: encrypt the
   16 KB body, then tag the ciphertext. *)
let crypto_key = Crypto.Sha256.digest "key"
let crypto_nonce = String.sub (Crypto.Sha256.digest "nonce") 0 12
let crypto_payload = String.make 16_384 'x'

let bench_chacha20 =
  Bechamel.Test.make ~name:"chacha20 16KB"
    (Bechamel.Staged.stage (fun () ->
         ignore (Crypto.Chacha20.encrypt ~key:crypto_key ~nonce:crypto_nonce crypto_payload)))

let bench_hmac =
  Bechamel.Test.make ~name:"hmac-sha256 16KB"
    (Bechamel.Staged.stage (fun () ->
         ignore (Crypto.Hmac.sha256_hex ~key:crypto_key crypto_payload)))

(* The whole crypto_16k handler: encrypt, tag, then build the response. *)
let bench_seal =
  Bechamel.Test.make ~name:"seal 16KB response"
    (Bechamel.Staged.stage (fun () ->
         let body = Crypto.Chacha20.encrypt ~key:crypto_key ~nonce:crypto_nonce crypto_payload in
         ignore
           (Httpkit.Response.build ~content_type:"application/octet-stream"
              ~extra_headers:[ ("X-Tag", Crypto.Hmac.sha256_hex ~key:crypto_key body) ]
              ~body ())))

let bench_sim_unbalanced =
  Bechamel.Test.make ~name:"simulator: unbalanced 2ms slice (mely-ws)"
    (Bechamel.Staged.stage (fun () ->
         let params =
           { Workloads.Unbalanced.default_params with duration_seconds = 0.002 }
         in
         ignore (Workloads.Unbalanced.run ~params Workloads.Setup.Mely Engine.Config.mely_ws)))

let run_micro () =
  let open Bechamel in
  let benchmarks =
    [
      bench_laqueue;
      bench_laqueue_extract;
      bench_melyq_splice;
      bench_cache_model;
      bench_chacha20;
      bench_hmac;
      bench_seal;
      bench_sim_unbalanced;
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg [ instance ] test
        |> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Bechamel.Measure.[| run |])
             instance
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ per_run ] -> Printf.printf "%-44s %14.0f ns/run\n%!" name per_run
          | _ -> Printf.printf "%-44s (no estimate)\n%!" name)
        results)
    benchmarks

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let targets = List.filter (fun a -> a <> "--quick") args in
  match targets with
  | [] -> run_all ~quick
  | [ "micro" ] -> run_micro ()
  | ids -> List.iter (run_experiment ~quick) ids
