(* What one measured phase offered and what came back, plus the
   interface every workload family implements. *)

type t = {
  name : string;
  rate : float;  (** offered ops/s; for the closed loop, the rate achieved *)
  offered : int;
  ok : int;  (** byte-exact responses / executed events *)
  errors : int;  (** mismatched, failed, refused or never completed *)
  lat_ms : Samples.t;  (** due -> done, per ok op *)
  lag_ms : Samples.t;  (** due -> handed to the system: how late the generator ran *)
  drained : bool;  (** the backlog emptied within 1 s of the last send *)
  cpu_s : float;  (** process user+sys time over the phase, client included *)
  wall_s : float;  (** first due to last completion *)
  pending_peak : int;  (** highest runtime backlog, sampled every 10 ms *)
  layers : (string * Samples.t) list;
      (** traced phases only: per-op child spans in op order (us); they
          partition the op, so each one's duration is its self time *)
  calls : Samples.t;  (** traced injection phases: each register call, us *)
  chrome : string list;  (** traced phases only: trace events of sampled ops *)
}

let p50 t = Samples.percentile t.lat_ms 50.0
let p90 t = Samples.percentile t.lat_ms 90.0
let p99 t = Samples.percentile t.lat_ms 99.0
let meets t ~limit_ms = t.errors = 0 && t.drained && t.ok > 0 && p90 t <= limit_ms

(* A running system under test. [open_loop] offers Poisson arrivals at
   [rate] for [seconds]; [closed_loop] keeps a fixed number of ops
   outstanding. [teardown] stops everything and returns the failed
   correctness verdicts. *)
type instance = {
  rt : Rt.Runtime.t;
  server : Rtnet.Server.t option;
  domains : int;  (** domains this instance runs, client included *)
  open_loop : name:string -> rate:float -> seconds:float -> seed:int -> t;
  closed_loop : seconds:float -> t;
  teardown : unit -> string list;
}

(* A failed correctness verdict, by name. *)
let check name ok = if ok then [] else [ name ]

(* The flight recorder's replay checks, on a traced runtime. *)
let replay_check rt =
  check "trace replay: mutual exclusion and per-color FIFO"
    (match Rt.Runtime.trace rt with
    | None -> true
    | Some tr -> Rt.Trace.check_mutual_exclusion tr = None && Rt.Trace.check_fifo_per_color tr = None)

let sample_every_ns = 10_000_000L

(* Poisson arrival offsets (ns from the phase start) for [rate] events
   per second over [seconds]. *)
let poisson rng ~rate ~seconds =
  let mean_ns = 1e9 /. rate in
  let horizon = seconds *. 1e9 in
  let out = Samples.create (int_of_float (rate *. seconds *. 1.2) + 16) in
  let t = ref (Mstd.Rng.exponential rng mean_ns) in
  while !t < horizon do
    Samples.add out !t;
    t := !t +. Mstd.Rng.exponential rng mean_ns
  done;
  Samples.values out

let now () = Int64.to_float (Rt.Clock.now_ns ())

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Chrome trace events (nestable async, keyed by op id, so the spans of
   one op nest on a track of their own). *)
let chrome_event ~name ~ph ~id ~ns =
  Printf.sprintf "{\"name\":%S,\"cat\":\"op\",\"ph\":%S,\"id\":%d,\"ts\":%.3f,\"pid\":0,\"tid\":0}"
    name ph id (ns /. 1e3)

(* Op [id] cut at its consecutive [stamps] (ns): the op span from the
   first stamp to the last, with one child span [names.(i)] per gap,
   emitted inside the op's begin and end. *)
let chrome_op ~id ~names ~stamps =
  let child i name =
    [ chrome_event ~name ~ph:"b" ~id ~ns:stamps.(i); chrome_event ~name ~ph:"e" ~id ~ns:stamps.(i + 1) ]
  in
  (chrome_event ~name:"op" ~ph:"b" ~id ~ns:stamps.(0) :: List.concat (List.mapi child names))
  @ [ chrome_event ~name:"op" ~ph:"e" ~id ~ns:stamps.(Array.length stamps - 1) ]

(* A traced phase's spans, from the consecutive [stamps] (ns) of every
   complete op among [n]: per child span, its duration per op (us), and
   the Chrome events of 1000 ops from the middle of the phase, away from
   start-up and drain. *)
let spans ~n ~names ~complete ~stamps =
  let layers = List.map (fun l -> (l, Samples.create n)) names in
  for id = 0 to n - 1 do
    if complete id then begin
      let s = stamps id in
      List.iteri (fun i (_, smp) -> Samples.add smp ((s.(i + 1) -. s.(i)) /. 1e3)) layers
    end
  done;
  let first = n / 2 in
  let sampled = List.init (min n (first + 1_000) - first) (fun i -> first + i) in
  let chrome =
    List.concat_map
      (fun id -> if complete id then chrome_op ~id ~names ~stamps:(stamps id) else [])
      sampled
  in
  (layers, chrome)
