(* The injection workloads: the runtime alone, fed by one injector
   thread through [try_register_batch] in 64-event batches.

   inject_skewed is the paper's unbalanced microbenchmark: 256 colors,
   every batch hinted [~home:0], ~5 us handlers. A color queue that
   drained is retired and re-created on worker 0 by its next event, so
   worker 1 gets work only by stealing and throughput is set by the
   steal path ([Spmc_queue.steal_many], the inbox split, [Policy]).

   inject_fine spreads 64 colors over the workers by hash, with ~100 ns
   handlers: the owner hot path (publish, chained CAS, pop, bookkeeping,
   telemetry) with next to no stealing. A steal-path change should not
   move it.

   Handlers check per-color FIFO against bench-owned sequence numbers:
   the injector numbers each color's events, each handler checks it
   follows its color's previous one. *)

let workers = 2
let batch = 64
let window = 4_096 (* events outstanding in the closed loop *)

(* Handler work: a dependent multiply-add chain the compiler cannot
   drop. Iteration counts are fixed, so the work per event is the same
   on every host. *)
let spin k =
  let acc = ref 0 in
  for j = 1 to k do
    acc := (!acc * 31) + j
  done;
  ignore (Sys.opaque_identity !acc)

type params = {
  colors : int;
  home : int option;
  work : int;  (** [spin] iterations per event *)
  declared_cycles : int;  (** what the time-left heuristic is told *)
}

let params = function
  | Workload.Skewed -> { colors = 256; home = Some 0; work = 3_400; declared_cycles = 10_000 }
  | Workload.Fine -> { colors = 64; home = None; work = 100; declared_cycles = 200 }
  | Workload.Static | Workload.Crypto -> invalid_arg "Inject.params: a serving workload"

type state = {
  rt : Rt.Runtime.t;
  h : Rt.Runtime.handler;
  p : params;
  last_seq : int array;  (** per color, written by its handlers *)
  next_seq : int array;  (** per color, injector side *)
  fifo_bad : int Atomic.t;
  mutable attempts : int;  (** events passed to the runtime *)
}

(* [start]/[fin] are per-op stamp arrays; empty ones switch stamping
   off. *)
let event st ~start ~fin id color seq (_ : Rt.Runtime.ctx) =
  if Array.length start > 0 then start.(id) <- Phase.now ();
  if seq <> st.last_seq.(color) + 1 then Atomic.incr st.fifo_bad;
  st.last_seq.(color) <- seq;
  spin st.p.work;
  if Array.length fin > 0 then fin.(id) <- Phase.now ()

(* One batch of ops [base, base + batch): colors drawn from [rng] in op
   order, so a color's events keep their sequence order in the list. *)
let items st rng ~start ~fin ~base =
  List.init batch (fun k ->
      let c = 1 + Mstd.Rng.int rng st.p.colors in
      let seq = st.next_seq.(c) + 1 in
      st.next_seq.(c) <- seq;
      (c, st.h, event st ~start ~fin (base + k) c seq))

let inject st its =
  st.attempts <- st.attempts + batch;
  Rt.Runtime.try_register_batch st.rt ?home:st.p.home its

let drain_cap_ns = 3e9

(* Wait (bounded) for the backlog to empty; quiesce once it has. *)
let drain st ~since =
  while Rt.Runtime.pending st.rt > 0 && Phase.now () -. since < drain_cap_ns do
    Unix.sleepf 1e-4
  done;
  if Rt.Runtime.pending st.rt = 0 then Rt.Runtime.quiesce st.rt

let layer_names = [ "loadgen.send"; "rt.inject"; "rt.qwait"; "handler" ]

let open_loop st ~traced ~name ~rate ~seconds ~seed =
  let rng = Mstd.Rng.create (Int64.of_int seed) in
  let offs = Phase.poisson rng ~rate:(rate /. float_of_int batch) ~seconds in
  let nb = Array.length offs in
  let n = nb * batch in
  let fin = Array.make n 0.0 in
  let start = if traced then Array.make n 0.0 else [||] in
  let call0 = Array.make nb 0.0 and call1 = Array.make nb 0.0 in
  let pending_peak = ref 0 in
  let cpu0 = Phase.cpu_seconds () in
  let t0 = Phase.now () +. 1e6 in
  let due = Array.map (fun o -> t0 +. o) offs in
  let sample_at = ref t0 in
  for b = 0 to nb - 1 do
    let rec wait () =
      let now = Phase.now () in
      if now >= !sample_at then begin
        pending_peak := max !pending_peak (Rt.Runtime.pending st.rt);
        sample_at := now +. Int64.to_float Phase.sample_every_ns
      end;
      if due.(b) > now then begin
        Unix.sleepf (Float.min 0.01 ((due.(b) -. now) /. 1e9));
        wait ()
      end
    in
    wait ();
    let its = items st rng ~start ~fin ~base:(b * batch) in
    call0.(b) <- Phase.now ();
    (* A refused batch never runs: its ops count as errors below. *)
    ignore (inject st its);
    call1.(b) <- Phase.now ()
  done;
  let last_send = if nb = 0 then t0 else call1.(nb - 1) in
  drain st ~since:last_send;
  let cpu_s = Phase.cpu_seconds () -. cpu0 in
  let lat = Samples.create n and lag = Samples.create nb in
  let ok = ref 0 and last_fin = ref t0 in
  for b = 0 to nb - 1 do
    Samples.add lag ((call0.(b) -. due.(b)) /. 1e6)
  done;
  for id = 0 to n - 1 do
    if fin.(id) > 0.0 then begin
      incr ok;
      Samples.add lat ((fin.(id) -. due.(id / batch)) /. 1e6);
      last_fin := Float.max !last_fin fin.(id)
    end
  done;
  (* An event may start before its batch's register call returns; its
     queue wait is then zero and its inject span ends at its start, so
     the four spans still partition the op. *)
  let stamps id =
    let b = id / batch in
    let ret = Float.min call1.(b) start.(id) in
    [| due.(b); call0.(b); ret; start.(id); fin.(id) |]
  in
  let complete id = fin.(id) > 0.0 && start.(id) > 0.0 in
  let layers, chrome =
    if traced then Phase.spans ~n ~names:layer_names ~complete ~stamps else ([], [])
  in
  let calls = Samples.create nb in
  if traced then
    for b = 0 to nb - 1 do
      Samples.add calls ((call1.(b) -. call0.(b)) /. 1e3)
    done;
  {
    Phase.name;
    rate;
    offered = n;
    ok = !ok;
    errors = n - !ok;
    lat_ms = lat;
    lag_ms = lag;
    drained = !last_fin -. last_send <= 1e9;
    cpu_s;
    wall_s = (!last_fin -. t0) /. 1e9;
    pending_peak = !pending_peak;
    layers;
    calls;
    chrome;
  }

(* Saturation: keep about [window] events outstanding. *)
let closed_loop st ~seconds ~seed =
  let rng = Mstd.Rng.create (Int64.of_int seed) in
  let attempts0 = st.attempts and refused = ref 0 in
  let cpu0 = Phase.cpu_seconds () in
  let exec0 = Rt.Runtime.executed st.rt in
  let t0 = Phase.now () in
  let deadline = t0 +. (seconds *. 1e9) in
  while Phase.now () < deadline do
    if Rt.Runtime.pending st.rt < window then begin
      if not (inject st (items st rng ~start:[||] ~fin:[||] ~base:0)) then
        refused := !refused + batch
    end
    else Unix.sleepf 5e-5
  done;
  let ok = Rt.Runtime.executed st.rt - exec0 in
  let elapsed = (Phase.now () -. t0) /. 1e9 in
  drain st ~since:(Phase.now ());
  {
    Phase.name = "peak";
    rate = float_of_int ok /. elapsed;
    offered = st.attempts - attempts0;
    ok;
    errors = !refused;
    lat_ms = Samples.create 0;
    lag_ms = Samples.create 0;
    drained = Rt.Runtime.pending st.rt = 0;
    cpu_s = Phase.cpu_seconds () -. cpu0;
    wall_s = elapsed;
    pending_peak = 0;
    layers = [];
    calls = Samples.create 0;
    chrome = [];
  }

let setup (w : Workload.t) ~seed ~traced =
  let p = params w.shape in
  let t0 = Phase.now () in
  let trace =
    if traced then Some { Rt.Trace.capacity = 65_536; histograms = false } else None
  in
  let rt = Rt.Runtime.create ~workers ?trace () in
  Rt.Runtime.start rt;
  let h = Rt.Runtime.handler rt ~name:"bench" ~declared_cycles:p.declared_cycles () in
  let st =
    {
      rt;
      h;
      p;
      last_seq = Array.make (p.colors + 1) 0;
      next_seq = Array.make (p.colors + 1) 0;
      fifo_bad = Atomic.make 0;
      attempts = 1;
    }
  in
  (* Set-up ends when the first event has run. *)
  let first = Atomic.make false in
  ignore (Rt.Runtime.try_register_batch rt ?home:p.home [ (0, h, fun _ -> Atomic.set first true) ]);
  while (not (Atomic.get first)) && Phase.now () -. t0 < 5e9 do
    Unix.sleepf 2e-5
  done;
  let setup_s = (Phase.now () -. t0) /. 1e9 in
  let teardown () =
    if Rt.Runtime.pending rt = 0 then Rt.Runtime.quiesce rt;
    let conservation = Rt.Runtime.debug_check_conservation rt in
    let accounted =
      Rt.Runtime.executed rt + Rt.Runtime.pending rt + Rt.Runtime.refused rt
      + Rt.Runtime.abandoned rt
    in
    let same_color = Rt.Runtime.max_concurrent_same_color rt in
    Rt.Runtime.stop rt;
    List.concat
      [
        Phase.check "first event ran" (Atomic.get first);
        Phase.check "attempts = executed + pending + refused + abandoned" (accounted = st.attempts);
        Phase.check "no refused or abandoned event" (Rt.Runtime.refused rt + Rt.Runtime.abandoned rt = 0);
        Phase.check "max_concurrent_same_color = 1" (same_color = 1);
        Phase.check "debug_check_conservation" (conservation = None);
        Phase.check "per-color FIFO (bench sequence numbers)" (Atomic.get st.fifo_bad = 0);
        Phase.check "no handler errors" (Rt.Runtime.errors rt = 0);
        Phase.replay_check rt;
      ]
  in
  let instance =
    {
      Phase.rt;
      server = None;
      domains = workers + 2 (* supervisor, injector *);
      open_loop = open_loop st ~traced;
      closed_loop = (fun ~seconds -> closed_loop st ~seconds ~seed);
      teardown;
    }
  in
  (instance, setup_s)
