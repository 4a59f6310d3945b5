(* Per-layer cost budget: ns per call of the hot-path pieces, timed
   with Bechamel. Anything that spawns domains (the runtime) is created
   outside the staged function, so the timing is of the call, not of
   Domain.spawn. *)

open Bechamel

let request = "GET /f3.html?r=123456 HTTP/1.1\r\nHost: bench\r\n\r\n"

let tests () =
  let q = Rt.Spmc_queue.create () in
  let tele = Rt.Telemetry.create ~workers:1 in
  let tr = Rt.Trace.create ~workers:1 { Rt.Trace.capacity = 4_096; histograms = false } in
  let body_1k = String.make 1024 'x' in
  let pool = Rtnet.Bufpool.create ~buf_len:16_384 () in
  let wheel = Rtnet.Wheel.create ~granularity_ns:50_000_000L ~now:0L () in
  let tick = ref 0L in
  let key = Crypto.Sha256.digest "key" in
  let nonce = String.sub (Crypto.Sha256.digest "nonce") 0 12 in
  let plain = String.make 16_384 'x' in
  [
    ("clock_now", fun () -> ignore (Sys.opaque_identity (Rt.Clock.now_ns ())));
    ("spmc_push_pop", fun () ->
        Rt.Spmc_queue.push q 1;
        ignore (Sys.opaque_identity (Rt.Spmc_queue.pop q)));
    (* Four queued, a thief takes them in one contiguous claim. *)
    ("spmc_steal_many", fun () ->
        for i = 1 to 4 do
          Rt.Spmc_queue.push q i
        done;
        ignore (Sys.opaque_identity (Rt.Spmc_queue.steal_many q ~max_take:4 (fun _ -> true))));
    ("telemetry_on_exec", fun () ->
        Rt.Telemetry.on_exec tele ~worker:0 ~qwait_ns:1_000 ~service_ns:500);
    ("trace_record_exec", fun () ->
        Rt.Trace.record_exec tr ~worker:0 ~handler:"bench" ~color:1 ~seq:1 ~enq_ns:1L
          ~start_ns:2L ~end_ns:3L);
    ("parse", fun () -> ignore (Sys.opaque_identity (Httpkit.Request.parse request)));
    ("response_build", fun () ->
        ignore (Sys.opaque_identity (Httpkit.Response.build ~body:body_1k ())));
    ("bufpool", fun () -> Rtnet.Bufpool.recycle pool (Rtnet.Bufpool.checkout pool));
    ("wheel", fun () ->
        tick := Int64.add !tick 50_000_000L;
        Rtnet.Wheel.schedule wheel 7 ~at:!tick;
        Rtnet.Wheel.advance wheel ~now:!tick ~fire:ignore);
    ("chacha20_16k", fun () ->
        ignore (Sys.opaque_identity (Crypto.Chacha20.encrypt ~key ~nonce plain)));
  ]

(* A live 2-worker runtime: register a 64-event batch of empty
   handlers and wait for it to drain; reported per event. *)
let register_run () =
  let rt = Rt.Runtime.create ~workers:2 () in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"micro" () in
  let items = List.init 64 (fun i -> (1 + (i mod 8), h, fun _ -> ())) in
  let f () =
    ignore (Rt.Runtime.try_register_batch rt items);
    Rt.Runtime.quiesce rt
  in
  (rt, f)

let estimate ~quota (name, f) =
  let test = Test.make ~name (Staged.stage f) in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~stabilize:false ~quota:(Time.second quota) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let results = Analyze.all ols instance (Benchmark.all cfg [ instance ] test) in
  Hashtbl.fold
    (fun _ r acc -> match Analyze.OLS.estimates r with Some [ ns ] -> ns | _ -> acc)
    results 0.0

(* Returns [(name, ns per call)]; [quota] is Bechamel's time per test. *)
let run ~quota =
  let plain = List.map (fun ((name, _) as t) -> (name, estimate ~quota t)) (tests ()) in
  let rt, f = register_run () in
  let per_event = estimate ~quota ("register_run", f) /. 64.0 in
  Rt.Runtime.stop rt;
  plain @ [ ("register_run", per_event) ]
