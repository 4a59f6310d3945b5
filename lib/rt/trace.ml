(* Flight recorder for the real multicore runtime.

   Each worker owns one fixed-capacity ring of spans, written only by
   that worker's domain — recording is a plain array store plus two
   index bumps, no synchronization, so it is cheap enough to leave on
   in production. The rings are read offline, after the worker domains
   have been joined (or at a quiescent moment): joining provides the
   happens-before edge that makes the unsynchronized writes visible.

   Sequence numbers are assigned under the color's shard lock at the
   moment an event is linked into its color-queue (see
   [Runtime.publish]) — publishers to one color serialize there even
   though the execution hot path is lock-free — so per-color seq order
   equals per-color queue order even when registrations race. This is
   what makes the FIFO replay check sound on real-domain traces. *)

type exec = {
  x_handler : string;
  x_color : int;
  x_seq : int;  (** global push order; FIFO within a color *)
  x_enq : int64;  (** enqueue timestamp, ns *)
  x_start : int64;  (** handler start, ns *)
  x_end : int64;  (** handler end, ns *)
}

type visit_outcome =
  | Won
  | Empty
  | Unworthy
  | Executing
  | Quiet

let visit_outcome_name = function
  | Won -> "won"
  | Empty -> "empty"
  | Unworthy -> "unworthy"
  | Executing -> "executing"
  | Quiet -> "quiet"

type span =
  | Exec of exec
  | Visit of {
      v_victim : int;
      v_outcome : visit_outcome;
      v_ns : int64;
    }
  | Park of { p_start : int64; p_end : int64 }
  | Start of { s_ns : int64 }
      (** the worker's loop began; on oversubscribed hosts this lands
          visibly late, and it guarantees every worker leaves at least
          one span in any trace of a run *)
  | Shed of { sh_color : int; sh_ns : int64 }
      (** overload armor refused work for this color (503 load shed) *)
  | Evict of { ev_color : int; ev_ns : int64 }
      (** a deadline evicted this color's connection (408 slow-loris) *)
  | Death of { d_reason : string; d_ns : int64 }
      (** this worker's domain died (escape past the execute boundary,
          a deliberate kill, or a quarantine ack); recorded by the
          dying domain itself in its death wrapper, so the ring stays
          single-writer *)

type ring = {
  spans : span array;
  mutable next : int;  (** write index *)
  mutable filled : int;  (** valid spans, <= capacity *)
  mutable dropped : int;  (** oldest spans overwritten *)
}

type lat = { queue_wait : Mstd.Histogram.t; service : Mstd.Histogram.t }

(* Worker-local recorder: the ring plus per-handler latency histograms.
   The hashtable is touched only by the owning worker, never cross-domain. *)
type recorder = { ring : ring; lat : (string, lat) Hashtbl.t }

type config = { capacity : int; histograms : bool }

let default_config = { capacity = 65_536; histograms = true }

type t = { cfg : config; recorders : recorder array; seq : int Atomic.t }

let create ~workers cfg =
  if workers < 1 then invalid_arg "Rt.Trace.create: workers must be >= 1";
  if cfg.capacity < 1 then invalid_arg "Rt.Trace.create: capacity must be >= 1";
  {
    cfg;
    recorders =
      Array.init workers (fun _ ->
          {
            ring =
              {
                spans = Array.make cfg.capacity (Park { p_start = 0L; p_end = 0L });
                next = 0;
                filled = 0;
                dropped = 0;
              };
            lat = Hashtbl.create 16;
          });
    seq = Atomic.make 0;
  }

let workers t = Array.length t.recorders
let capacity t = t.cfg.capacity
let histograms_enabled t = t.cfg.histograms

let next_seq t = Atomic.fetch_and_add t.seq 1

(* ------------------------------------------------------------------ *)
(* Recording (called by the owning worker only).                       *)

let push r span =
  let cap = Array.length r.spans in
  r.spans.(r.next) <- span;
  r.next <- (r.next + 1) mod cap;
  if r.filled < cap then r.filled <- r.filled + 1 else r.dropped <- r.dropped + 1

let lat_for rec_ handler =
  match Hashtbl.find_opt rec_.lat handler with
  | Some l -> l
  | None ->
    let l =
      { queue_wait = Mstd.Histogram.create (); service = Mstd.Histogram.create () }
    in
    Hashtbl.replace rec_.lat handler l;
    l

let record_exec t ~worker ~handler ~color ~seq ~enq_ns ~start_ns ~end_ns =
  let rec_ = t.recorders.(worker) in
  push rec_.ring
    (Exec
       {
         x_handler = handler;
         x_color = color;
         x_seq = seq;
         x_enq = enq_ns;
         x_start = start_ns;
         x_end = end_ns;
       });
  if t.cfg.histograms then begin
    let l = lat_for rec_ handler in
    Mstd.Histogram.add_int l.queue_wait (Int64.to_int (Int64.sub start_ns enq_ns));
    Mstd.Histogram.add_int l.service (Int64.to_int (Int64.sub end_ns start_ns))
  end

let record_visit t ~worker ~victim ~outcome ~ns =
  push t.recorders.(worker).ring
    (Visit { v_victim = victim; v_outcome = outcome; v_ns = ns })

let record_park t ~worker ~start_ns ~end_ns =
  push t.recorders.(worker).ring (Park { p_start = start_ns; p_end = end_ns })

let record_start t ~worker ~ns = push t.recorders.(worker).ring (Start { s_ns = ns })

let record_shed t ~worker ~color ~ns =
  push t.recorders.(worker).ring (Shed { sh_color = color; sh_ns = ns })

let record_evict t ~worker ~color ~ns =
  push t.recorders.(worker).ring (Evict { ev_color = color; ev_ns = ns })

let record_death t ~worker ~reason ~ns =
  push t.recorders.(worker).ring (Death { d_reason = reason; d_ns = ns })

(* ------------------------------------------------------------------ *)
(* Offline access.                                                     *)

let spans t w =
  let r = t.recorders.(w).ring in
  let cap = Array.length r.spans in
  List.init r.filled (fun i -> r.spans.((r.next - r.filled + i + cap) mod cap))

let dropped t w = t.recorders.(w).ring.dropped
let total_dropped t = Array.fold_left (fun acc r -> acc + r.ring.dropped) 0 t.recorders

let span_count t w = t.recorders.(w).ring.filled

(* All retained execution spans, tagged with their worker, oldest first
   per worker. *)
let execs t =
  let out = ref [] in
  for w = Array.length t.recorders - 1 downto 0 do
    List.iter
      (fun s -> match s with Exec e -> out := (w, e) :: !out | _ -> ())
      (List.rev (spans t w))
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Replay checkers: the shared {!Mely} pair over the retained exec
   spans. Dropping the *oldest* spans on overflow cannot manufacture a
   violation in the remainder. Spans are stamped around the handler run
   inside the color's exclusion window (after the pop, before
   [running] is released), so a genuine overlap is always a runtime
   bug, not instrumentation skew. *)

type violation = { va : int * exec; vb : int * exec }

let span (_, e) =
  { Mely.color = e.x_color; seq = e.x_seq; start = Int64.to_int e.x_start;
    stop = Int64.to_int e.x_end }

let violation = Option.map (fun (va, vb) -> { va; vb })
let check_mutual_exclusion t = violation (Mely.check_mutual_exclusion span (execs t))
let check_fifo_per_color t = violation (Mely.check_fifo_per_color span (execs t))

(* ------------------------------------------------------------------ *)
(* Latency histograms: per-handler, merged across workers on demand.   *)

type latency = {
  l_handler : string;
  l_count : int;
  l_qwait_p50 : float;  (** ns *)
  l_qwait_p99 : float;
  l_service_p50 : float;
  l_service_p99 : float;
}

let latency_summary t =
  let merged = Hashtbl.create 16 in
  Array.iter
    (fun rec_ ->
      Hashtbl.iter
        (fun handler (l : lat) ->
          let into =
            match Hashtbl.find_opt merged handler with
            | Some m -> m
            | None ->
              let m =
                {
                  queue_wait = Mstd.Histogram.create ();
                  service = Mstd.Histogram.create ();
                }
              in
              Hashtbl.replace merged handler m;
              m
          in
          Mstd.Histogram.merge ~into:into.queue_wait l.queue_wait;
          Mstd.Histogram.merge ~into:into.service l.service)
        rec_.lat)
    t.recorders;
  Hashtbl.fold
    (fun handler (l : lat) acc ->
      {
        l_handler = handler;
        l_count = Mstd.Histogram.count l.service;
        l_qwait_p50 = Mstd.Histogram.quantile l.queue_wait 0.5;
        l_qwait_p99 = Mstd.Histogram.quantile l.queue_wait 0.99;
        l_service_p50 = Mstd.Histogram.quantile l.service 0.5;
        l_service_p99 = Mstd.Histogram.quantile l.service 0.99;
      }
      :: acc)
    merged []
  |> List.sort (fun a b -> compare a.l_handler b.l_handler)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (the JSON Object Format): one pid per
   runtime, one tid per worker; executions and parks are complete
   ("X") duration events, steal visits are instants ("i"). Viewable at
   ui.perfetto.dev or chrome://tracing. Timestamps are microseconds. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let us ns = Int64.to_float ns /. 1_000.0

let export_chrome ?(pid = 0) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf line
  in
  Array.iteri
    (fun w _ ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\"tid\":%d,\
            \"args\":{\"name\":\"worker %d\"}}"
           pid w w))
    t.recorders;
  Array.iteri
    (fun w _ ->
      List.iter
        (fun span ->
          match span with
          | Exec e ->
            emit
              (Printf.sprintf
                 "{\"name\":\"%s\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":%.3f,\
                  \"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"color\":%d,\
                  \"seq\":%d,\"queue_wait_us\":%.3f}}"
                 (json_escape e.x_handler) (us e.x_start)
                 (us (Int64.sub e.x_end e.x_start))
                 pid w e.x_color e.x_seq
                 (us (Int64.sub e.x_start e.x_enq)))
          | Visit v ->
            emit
              (Printf.sprintf
                 "{\"name\":\"steal:%s\",\"cat\":\"steal\",\"ph\":\"i\",\"s\":\"t\",\
                  \"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"victim\":%d}}"
                 (visit_outcome_name v.v_outcome) (us v.v_ns) pid w v.v_victim)
          | Park p ->
            emit
              (Printf.sprintf
                 "{\"name\":\"park\",\"cat\":\"park\",\"ph\":\"X\",\"ts\":%.3f,\
                  \"dur\":%.3f,\"pid\":%d,\"tid\":%d}"
                 (us p.p_start)
                 (us (Int64.sub p.p_end p.p_start))
                 pid w)
          | Start s ->
            emit
              (Printf.sprintf
                 "{\"name\":\"worker-start\",\"cat\":\"lifecycle\",\"ph\":\"i\",\
                  \"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d}"
                 (us s.s_ns) pid w)
          | Shed s ->
            emit
              (Printf.sprintf
                 "{\"name\":\"shed\",\"cat\":\"overload\",\"ph\":\"i\",\"s\":\"t\",\
                  \"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"color\":%d}}"
                 (us s.sh_ns) pid w s.sh_color)
          | Evict e ->
            emit
              (Printf.sprintf
                 "{\"name\":\"evict\",\"cat\":\"overload\",\"ph\":\"i\",\"s\":\"t\",\
                  \"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"color\":%d}}"
                 (us e.ev_ns) pid w e.ev_color)
          | Death d ->
            emit
              (Printf.sprintf
                 "{\"name\":\"worker-death\",\"cat\":\"lifecycle\",\"ph\":\"i\",\
                  \"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\
                  \"args\":{\"reason\":\"%s\"}}"
                 (us d.d_ns) pid w (json_escape d.d_reason)))
        (spans t w))
    t.recorders;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
