(* Real TCP serving on the domain runtime — N poller shards over epoll.

   Division of labour (DESIGN.md §5e/§5g):

   - N poller shard domains split the fd space: each shard owns a
     disjoint slice of connections (its own epoll instance, timer
     wheel, read-buffer pool, wake eventfd). Shard 0 additionally owns
     the listeners: it accepts and hands fresh fds round-robin to the
     shards through lock-free hand-off stacks + wakes. A shard
     does everything the old single poller did for its slice: waits,
     reads, injects colored events, enforces deadlines, closes.
   - Worker domains own a connection's mutable record, but only inside
     events colored with the connection's fd — the runtime's per-color
     mutual exclusion is the lock.
   - The two sides communicate through atomics ([inflight],
     [want_write], [flush_pending], [wants_close], [failed],
     [shard_waits]) plus a per-shard attention stack. Only the shard
     raises [inflight], once per event it injects; every event ends by
     dropping it. The protocol is one-way: an event pushes the fd and
     wakes the owning shard only when the shard may now close the
     connection (close wanted, server draining, or the shard saw EOF or
     an error and waits for the event to end). A keep-alive request
     whose response went out whole crosses no domain on its way back.
   - One read event parses every request its bytes complete and
     answers each inline, in wire order: the fd color serializes a
     connection's events anyway, so a per-request event would buy no
     parallelism. Rejects (400/431/503), the app-failure 500 and the
     408 eviction share one answer-and-close path.

   Connection readiness is edge-triggered and registered once, read
   and write, at install: reads drain to EAGAIN (or re-arm with a MOD
   when the budget runs out), and an event that leaves output stalled
   re-arms the write edge itself with one MOD. Injection is batched:
   one [Rt.Runtime.try_register_batch] per wait return, with the shard
   id as the placement hint.

   Overload armor (DESIGN.md §5f): every network syscall goes through
   the [Rt.Faults] shim; per-shard timer wheels enforce per-connection
   deadlines (header-read 408, keep-alive idle, write-progress);
   header blocks over [max_request_bytes] get a 431; a request parsed
   once the runtime backlog plus the requests its read event already
   answered reaches [overload.shed_pending_hwm] is shed with a 503 +
   close; EMFILE/ENFILE on accept backs the acceptor off
   exponentially.

   Conservation identities hold per shard and in aggregate: a
   connection is accepted, served and closed by the same shard, and
   request verdict counters are bumped on the connection's owning
   shard. *)

(* On Unix a [file_descr] is the raw int; the runtime wants the fd as
   the event color (the paper's scheme: connection = color). *)
external int_of_fd : Unix.file_descr -> int = "%identity"

(* One unwritten span of an immutable response string: the output path
   is a queue of these, so a short write bumps [off] — no re-copy of
   the remaining bytes, ever (the old Buffer.contents-per-attempt was
   quadratic on a stalled peer). *)
type slice = { str : string; mutable off : int }

type counters = {
  c_accepted : int Atomic.t;
  c_refused : int Atomic.t;
  c_closed : int Atomic.t;
  c_failed : int Atomic.t;
  c_evicted : int Atomic.t;
  r_parsed : int Atomic.t;
  r_served : int Atomic.t;
  r_failed : int Atomic.t;
  r_malformed : int Atomic.t;
  r_too_large : int Atomic.t;
  r_shed : int Atomic.t;
  r_inj_refused : int Atomic.t;
  a_errors : int Atomic.t;
  a_backoffs : int Atomic.t;
}

let make_counters () =
  {
    c_accepted = Atomic.make 0;
    c_refused = Atomic.make 0;
    c_closed = Atomic.make 0;
    c_failed = Atomic.make 0;
    c_evicted = Atomic.make 0;
    r_parsed = Atomic.make 0;
    r_served = Atomic.make 0;
    r_failed = Atomic.make 0;
    r_malformed = Atomic.make 0;
    r_too_large = Atomic.make 0;
    r_shed = Atomic.make 0;
    r_inj_refused = Atomic.make 0;
    a_errors = Atomic.make 0;
    a_backoffs = Atomic.make 0;
  }

(* Slices the handlers gather per writev call. *)
let writev_slices = 16

type conn = {
  fd : Unix.file_descr;
  color : int;
  shard : shard;  (** owning poller shard, fixed at accept *)
  admin : bool;
      (** accepted on the admin listener: served by [admin_respond]
          instead of the app, exempt from load shedding, and readable
          during a drain (so /healthz can report 503 mid-drain) *)
  (* Handler-owned: touched only inside events of [color]. *)
  mutable pending : string;  (** unparsed request bytes *)
  mutable scan_hint : int;  (** parse resume hint: bytes already scanned *)
  mutable stop_parsing : bool;  (** close decided; ignore further bytes *)
  outq : slice Queue.t;  (** unwritten response slices, in wire order *)
  wv_strs : string array;  (** writev gather scratch (parallel arrays) *)
  wv_offs : int array;
  wv_lens : int array;
  (* Shared: written by handlers, read by the poller (or both). *)
  inflight : int Atomic.t;
  want_write : bool Atomic.t;
  flush_pending : bool Atomic.t;
  wants_close : bool Atomic.t;
  failed : bool Atomic.t;
  shard_waits : bool Atomic.t;
      (** the shard saw EOF or an error and waits for the running events
          to end before it closes: set by the shard, read by handlers *)
  (* Armor state shared across the boundary: the shard's deadline
     checks read these, handlers refresh them. *)
  last_progress : int64 Atomic.t;
      (** last parse/write progress or response queued (ns) *)
  partial : bool Atomic.t;  (** unparsed bytes pending a terminator *)
  completed : bool Atomic.t;  (** >= 1 request parsed on this conn *)
  (* Poller-shard-owned. *)
  mutable last_read_ns : int64;  (** last bytes off the wire (or accept) *)
  mutable evicting : bool;  (** a deadline fired; stop reading/checking *)
  mutable eof : bool;
  mutable kill : bool;  (** I/O error or refused injection: drop it *)
}

and shard = {
  id : int;
  ep : Epoll.t;
  conns : (int, conn) Hashtbl.t;  (** shard-owned, keyed by fd int *)
  wheel : Wheel.t;  (** shard-owned deadline wheel, keyed by fd int *)
  wake : Unix.file_descr;  (** eventfd; readable while a wake is pending *)
  attn : int list Atomic.t;
      (** fds an ending event says may now be closed; drained each lap *)
  handoff : Unix.file_descr list Atomic.t;
      (** accepted fds parked here by the acceptor shard *)
  pool : Bufpool.t;
  ctr : counters;
  (* Below: touched only by this shard's domain. *)
  mutable backoff_until : int64;
  mutable backoff_ns : int64;  (** current step; 0 = not backing off *)
  mutable rr : int;  (** acceptor only: next hand-off target *)
  mutable batch : (conn * Rt.Runtime.handler * (Rt.Runtime.ctx -> unit)) list;
      (** injection batch for this wait return, newest first *)
  mutable batch_n : int;
}

include Net_stats

type overload = {
  header_deadline : float;
  idle_deadline : float;
  write_deadline : float;
  shed_pending_hwm : int;
}

let default_overload =
  {
    header_deadline = 10.0;
    idle_deadline = 30.0;
    write_deadline = 10.0;
    shed_pending_hwm = 4096;
  }

type state = Created | Started | Stopped

type t = {
  rt : Rt.Runtime.t;
  app : Httpkit.Request.t -> string;
  max_clients : int;
  max_request_bytes : int;
  drain_deadline : float;
  overload : overload;
  faults : Rt.Faults.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  admin_fd : Unix.file_descr option;
      (** second listener for the telemetry plane; owned (accepted and
          polled) by the acceptor shard, its connections are ordinary
          fd-colored events *)
  admin_bound_port : int;  (** 0 when [admin_fd = None] *)
  shards : shard array;
  live : int Atomic.t;  (** connections accepted and not yet closed *)
  listener_paused : bool Atomic.t;
      (** acceptor took the listener out of its set (cap reached) *)
  (* fd-slice disjointness audit: every install/close records fd
     ownership; two shards ever claiming one fd is a violation. *)
  own_lock : Mutex.t;
  own_tbl : (int, int) Hashtbl.t;  (** fd -> owning shard id *)
  own_violations : int Atomic.t;
  h_read : Rt.Runtime.handler;
  h_flush : Rt.Runtime.handler;
  h_evict : Rt.Runtime.handler;
  resp_400 : string;
  resp_500 : string;
  resp_404 : string;
  resp_408 : string;
  resp_431 : string;
  resp_503 : string;
  draining : bool Atomic.t;
  lifecycle : Mutex.t;
  mutable state : state;
  mutable pollers : unit Domain.t list;
}

let ns_of_seconds s = Int64.of_float (s *. 1e9)
let i64max a b = if Int64.compare a b >= 0 then a else b
let i64min a b = if Int64.compare a b <= 0 then a else b

(* ------------------------------------------------------------------ *)
(* Syscall shim: every Unix call on the serving path consults the fault
   plane first. Passthrough costs one constructor check. An injected
   errno raises *instead of* performing the call; [Torn] caps the byte
   count (partial reads/writes); [Delay] sleeps, then performs. The
   readiness wait reuses the [Select] site — same budget of poller
   faults, new poller. *)

let injected_error site e =
  raise (Unix.Unix_error (e, Rt.Faults.site_name site, "injected"))

let sys_read t fd buf off len =
  match Rt.Faults.decide t.faults Rt.Faults.Read with
  | Rt.Faults.Pass -> Unix.read fd buf off len
  | Rt.Faults.Errno e -> injected_error Rt.Faults.Read e
  | Rt.Faults.Torn n -> Unix.read fd buf off (max 1 (min len n))
  | Rt.Faults.Delay s ->
    Unix.sleepf s;
    Unix.read fd buf off len

(* Gather write from the connection's scratch slice arrays. A [Torn]
   fault degrades to a capped single-slice write — exactly the partial
   write a torn writev would produce. *)
let sys_writev t conn count =
  match Rt.Faults.decide t.faults Rt.Faults.Write with
  | Rt.Faults.Pass ->
    Epoll.writev conn.fd ~strs:conn.wv_strs ~offs:conn.wv_offs
      ~lens:conn.wv_lens ~count
  | Rt.Faults.Errno e -> injected_error Rt.Faults.Write e
  | Rt.Faults.Torn n ->
    Unix.write_substring conn.fd conn.wv_strs.(0) conn.wv_offs.(0)
      (max 1 (min conn.wv_lens.(0) n))
  | Rt.Faults.Delay d ->
    Unix.sleepf d;
    Epoll.writev conn.fd ~strs:conn.wv_strs ~offs:conn.wv_offs
      ~lens:conn.wv_lens ~count

let sys_accept t lfd =
  match Rt.Faults.decide t.faults Rt.Faults.Accept with
  | Rt.Faults.Pass | Rt.Faults.Torn _ -> Unix.accept ~cloexec:true lfd
  | Rt.Faults.Errno e -> injected_error Rt.Faults.Accept e
  | Rt.Faults.Delay s ->
    Unix.sleepf s;
    Unix.accept ~cloexec:true lfd

let sys_wait t sh ~timeout_ms =
  match Rt.Faults.decide t.faults Rt.Faults.Select with
  | Rt.Faults.Pass | Rt.Faults.Torn _ -> Epoll.wait sh.ep ~timeout_ms
  | Rt.Faults.Errno e -> injected_error Rt.Faults.Select e
  | Rt.Faults.Delay s ->
    Unix.sleepf s;
    Epoll.wait sh.ep ~timeout_ms

(* An injected close error still closes for real first: on Linux the fd
   is gone even when close reports a fault, and fd conservation must
   survive the chaos schedule. *)
let sys_close t fd =
  match Rt.Faults.decide t.faults Rt.Faults.Close with
  | Rt.Faults.Pass | Rt.Faults.Torn _ | Rt.Faults.Delay _ -> Unix.close fd
  | Rt.Faults.Errno e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    injected_error Rt.Faults.Close e

(* Wake a shard out of its wait nap. The eventfd is internal plumbing,
   not network I/O: it stays unshimmed. *)
let wake_shard sh = Epoll.signal sh.wake

let wake_all t = Array.iter wake_shard t.shards

(* Re-arm a connection's edges with a MOD: the kernel re-reports every
   condition that holds now. Write interest is always kept; read
   interest goes back unless the shard no longer reads the connection.
   Shard and handlers both call it; the kernel serializes concurrent
   epoll_ctl calls on one fd. *)
let rearm sh conn ~read =
  try Epoll.modify sh.ep conn.fd ~read ~write:true ~edge:true
  with Unix.Unix_error _ -> ()

let rec attn_push sh fd =
  let old = Atomic.get sh.attn in
  if not (Atomic.compare_and_set sh.attn old (fd :: old)) then attn_push sh fd

(* Every connection event ends here, from its finally, after its last
   change to [flush_pending]. Output left stalled re-arms its own write
   edge: MOD re-reports a writable level, so an edge the shard passed
   over while this event ran is not lost, and extra read interest is
   dropped again on the next report. The MOD comes before [inflight]
   drops, so the fd is still open. Then the shard hears of the event
   only if it may now close the connection: close wanted, draining, or
   [shard_waits]. The decrement comes before the [shard_waits] read
   and the shard sets [shard_waits] before it reads [inflight], so with
   SC atomics at least one side sees the other. A stale attention for
   a recycled fd is harmless: the shard re-checks whatever connection
   now holds that number. *)
let end_event t conn =
  if Atomic.get conn.want_write then rearm conn.shard conn ~read:true;
  Atomic.decr conn.inflight;
  if
    Atomic.get conn.wants_close || Atomic.get t.draining
    || Atomic.get conn.shard_waits
  then begin
    attn_push conn.shard conn.color;
    wake_shard conn.shard
  end

let rec handoff_push sh fd =
  let old = Atomic.get sh.handoff in
  if not (Atomic.compare_and_set sh.handoff old (fd :: old)) then
    handoff_push sh fd

(* fd-slice disjointness bookkeeping. [own_remove] runs before the real
   close so a recycled fd number can never race its own removal. *)
let own_add t fd shard_id =
  Mutex.lock t.own_lock;
  if Hashtbl.mem t.own_tbl fd then Atomic.incr t.own_violations;
  Hashtbl.replace t.own_tbl fd shard_id;
  Mutex.unlock t.own_lock

let own_remove t fd shard_id =
  Mutex.lock t.own_lock;
  (match Hashtbl.find_opt t.own_tbl fd with
  | Some s when s = shard_id -> Hashtbl.remove t.own_tbl fd
  | Some _ | None -> Atomic.incr t.own_violations);
  Mutex.unlock t.own_lock

(* ------------------------------------------------------------------ *)
(* Handler side: everything below runs inside events of [conn.color]. *)

let queue_out conn s =
  if String.length s > 0 then Queue.add { str = s; off = 0 } conn.outq

(* Drop [w] written bytes off the front of the slice queue. *)
let rec advance_outq conn w =
  if w > 0 then begin
    let sl = Queue.peek conn.outq in
    let rem = String.length sl.str - sl.off in
    if w >= rem then begin
      ignore (Queue.pop conn.outq);
      advance_outq conn (w - rem)
    end
    else sl.off <- sl.off + w
  end

(* Stop parsing and ask the shard to close once the output is written.
   The shard sees the request when the running event ends. *)
let finish_conn conn =
  conn.stop_parsing <- true;
  Atomic.set conn.wants_close true

(* Flush as much of [conn.outq] as the socket takes, gathering up to
   [writev_slices] slices per writev; a short write bumps the front
   slice's offset (no re-copy) and sets [want_write], which makes
   [end_event] re-arm the write edge. *)
let try_write t conn =
  let rec go () =
    if Queue.is_empty conn.outq then Atomic.set conn.want_write false
    else begin
      let n = ref 0 in
      (try
         Queue.iter
           (fun sl ->
             if !n >= writev_slices then raise Exit;
             conn.wv_strs.(!n) <- sl.str;
             conn.wv_offs.(!n) <- sl.off;
             conn.wv_lens.(!n) <- String.length sl.str - sl.off;
             incr n)
           conn.outq
       with Exit -> ());
      match sys_writev t conn !n with
      | w ->
        advance_outq conn w;
        if w > 0 then Atomic.set conn.last_progress (Rt.Clock.now_ns ());
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        Atomic.set conn.want_write true
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) ->
        (* Peer gone (EPIPE/ECONNRESET/...): drop the buffered output,
           parse nothing more and let the shard reap the connection. *)
        Queue.clear conn.outq;
        Atomic.set conn.want_write false;
        Atomic.set conn.failed true;
        finish_conn conn
    end
  in
  go ()

(* Headers-only variant of a prebuilt response, for HEAD: everything up
   to and including the blank line (Content-Length intact, as HEAD
   requires). *)
let head_of_response resp =
  let n = String.length resp in
  let rec find i =
    if i + 3 >= n then resp
    else if resp.[i] = '\r' && resp.[i + 1] = '\n' && resp.[i + 2] = '\r'
            && resp.[i + 3] = '\n'
    then String.sub resp 0 (i + 4)
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Admin endpoint: the telemetry plane served by the stack it monitors.
   Admin connections are ordinary fd-colored events; only the response
   function differs. *)

let stats_of_counters ~faults_injected c =
  {
    conns_accepted = Atomic.get c.c_accepted;
    conns_refused = Atomic.get c.c_refused;
    conns_closed = Atomic.get c.c_closed;
    conns_failed = Atomic.get c.c_failed;
    conns_evicted = Atomic.get c.c_evicted;
    reqs_parsed = Atomic.get c.r_parsed;
    reqs_served = Atomic.get c.r_served;
    reqs_failed = Atomic.get c.r_failed;
    reqs_malformed = Atomic.get c.r_malformed;
    reqs_too_large = Atomic.get c.r_too_large;
    reqs_shed = Atomic.get c.r_shed;
    injections_refused = Atomic.get c.r_inj_refused;
    accept_errors = Atomic.get c.a_errors;
    accept_backoffs = Atomic.get c.a_backoffs;
    faults_injected;
  }

let shard_stats t =
  Array.map (fun sh -> stats_of_counters ~faults_injected:0 sh.ctr) t.shards

let net_view t =
  {
    Admin.n_port = t.bound_port;
    n_admin_port = t.admin_bound_port;
    n_live = Atomic.get t.live;
    n_draining = Atomic.get t.draining;
    n_faults_injected = Rt.Faults.injected t.faults;
    n_shards = shard_stats t;
  }

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, "")
  | Some i ->
    ( String.sub target 0 i,
      String.sub target (i + 1) (String.length target - i - 1) )

let query_has query key =
  List.exists
    (fun kv -> kv = key || kv = key ^ "=1")
    (String.split_on_char '&' query)

let admin_respond t (req : Httpkit.Request.t) =
  let path, query = split_target req.Httpkit.Request.target in
  let draining = Atomic.get t.draining || not (Rt.Runtime.is_serving t.rt) in
  let keep_alive = not draining in
  let full =
    match path with
    | "/healthz" ->
      if draining then
        Httpkit.Response.build ~status:Httpkit.Response.Service_unavailable
          ~content_type:"text/plain" ~keep_alive:false ~body:"draining\n" ()
      else if Rt.Runtime.is_degraded t.rt then
        (* Still 200: a degraded runtime serves correctly at reduced
           width, so load balancers should keep routing — but probes
           and dashboards see the state change. *)
        Httpkit.Response.build ~content_type:"text/plain" ~keep_alive
          ~body:
            (Printf.sprintf "degraded %d/%d\n"
               (Rt.Runtime.live_workers t.rt)
               (Rt.Runtime.workers t.rt))
          ()
      else
        Httpkit.Response.build ~content_type:"text/plain" ~keep_alive
          ~body:"ok\n" ()
    | "/metrics" ->
      let snap = Rt.Runtime.telemetry_snapshot t.rt in
      Httpkit.Response.build ~content_type:"text/plain; version=0.0.4"
        ~keep_alive
        ~body:(Admin.metrics_text snap (net_view t))
        ()
    | "/stats.json" ->
      (* [?swap=1] rotates the streaming windows: the periodic scraper
         (melyctl rt top) passes it so each poll reads the interval
         since its previous poll. *)
      let snap =
        Rt.Runtime.telemetry_snapshot ~swap_window:(query_has query "swap") t.rt
      in
      Httpkit.Response.build ~content_type:"application/json" ~keep_alive
        ~body:(Admin.stats_json snap (net_view t))
        ()
    | _ -> t.resp_404
  in
  match req.Httpkit.Request.meth with
  | Httpkit.Request.HEAD -> head_of_response full
  | _ -> full

(* Answer with a prebuilt [Connection: close] response and close once it
   is written: the 400/431/503 rejects, the app-failure 500 and the 408
   eviction. A connection whose peer already failed gets nothing. *)
let answer_and_close t conn response =
  if not (Atomic.get conn.failed) then queue_out conn response;
  finish_conn conn;
  try_write t conn

(* Serve one parsed request: app → slice queue → write attempt. An app
   exception is answered with a 500, closes this one connection, and is
   re-raised so the runtime contains and counts it — sibling
   connections never notice, and requests pipelined behind it are never
   parsed. *)
let respond t conn req =
  match if conn.admin then admin_respond t req else t.app req with
  | response ->
    queue_out conn response;
    Atomic.incr conn.shard.ctr.r_served;
    Atomic.set conn.last_progress (Rt.Clock.now_ns ());
    (* An admin response sent mid-drain says [Connection: close] (see
       [admin_respond]); closing here makes the header true and lets the
       drain finish instead of waiting out the grace. *)
    if
      (not (Httpkit.Request.keep_alive req))
      || (conn.admin && Atomic.get t.draining)
    then finish_conn conn;
    try_write t conn
  | exception e ->
    Atomic.incr conn.shard.ctr.r_failed;
    answer_and_close t conn t.resp_500;
    raise e

(* Parse every complete request accumulated so far and answer each one
   inline, in wire order, inside this read event: a connection's events
   are serialized by its color anyway, so a separate respond event would
   buy no parallelism. [scan_hint] makes the Incomplete retries O(new
   bytes). The shed budget counts requests: once the runtime backlog
   plus the requests this event has already [answered] reaches the
   high-water mark, the request is answered 503 + close — the budget
   bounds in-flight work no matter how many requests one read
   carries. *)
let rec parse_loop t conn ~answered (ctx : Rt.Runtime.ctx) =
  if not conn.stop_parsing then
    match
      Httpkit.Request.parse ~scan_from:conn.scan_hint ~limit:t.max_request_bytes
        conn.pending
    with
    | Error Httpkit.Request.Incomplete ->
      conn.scan_hint <- String.length conn.pending;
      Atomic.set conn.partial (String.length conn.pending > 0)
    | Error (Httpkit.Request.Too_large _) ->
      Atomic.incr conn.shard.ctr.r_too_large;
      answer_and_close t conn t.resp_431
    | Error (Httpkit.Request.Malformed _) ->
      Atomic.incr conn.shard.ctr.r_malformed;
      answer_and_close t conn t.resp_400
    | Ok (req, consumed) ->
      conn.pending <-
        String.sub conn.pending consumed (String.length conn.pending - consumed);
      conn.scan_hint <- 0;
      Atomic.incr conn.shard.ctr.r_parsed;
      Atomic.set conn.completed true;
      Atomic.set conn.partial (String.length conn.pending > 0);
      Atomic.set conn.last_progress (Rt.Clock.now_ns ());
      if
        (* The admin plane must answer precisely when the server is
           overloaded — scrapes bypass the shed check. *)
        (not conn.admin)
        && Rt.Runtime.pending t.rt + answered >= t.overload.shed_pending_hwm
      then begin
        Atomic.incr conn.shard.ctr.r_shed;
        Rt.Runtime.note_shed t.rt ~worker:ctx.worker ~color:conn.color;
        answer_and_close t conn t.resp_503
      end
      else begin
        respond t conn req;
        parse_loop t conn ~answered:(answered + 1) ctx
      end

(* The read event: the shard checked [buf] out of its pool and read
   [len] wire bytes into it; copy them into the parse state and recycle
   the buffer — the one unavoidable copy, paid on a worker instead of
   the poller. Like every connection event, it ends in [end_event]. *)
let on_chunk t conn buf len ctx =
  Fun.protect ~finally:(fun () -> end_event t conn) @@ fun () ->
  let chunk = Bytes.sub_string buf 0 len in
  Bufpool.recycle conn.shard.pool buf;
  if not conn.stop_parsing then begin
    conn.pending <- (if conn.pending = "" then chunk else conn.pending ^ chunk);
    parse_loop t conn ~answered:0 ctx
  end

let on_writable t conn (_ctx : Rt.Runtime.ctx) =
  Fun.protect ~finally:(fun () ->
      (* Clear [flush_pending] before [end_event]'s re-arm: a writable
         report the re-arm causes must find no flush in flight. *)
      Atomic.set conn.flush_pending false;
      end_event t conn)
  @@ fun () -> if not (Atomic.get conn.failed) then try_write t conn

(* Slow-loris eviction: answer 408, close. Runs as a colored event so
   the output queue is touched under the color's mutual exclusion. *)
let on_evict t conn (ctx : Rt.Runtime.ctx) =
  Fun.protect ~finally:(fun () -> end_event t conn) @@ fun () ->
  Rt.Runtime.note_evict t.rt ~worker:ctx.worker ~color:conn.color;
  answer_and_close t conn t.resp_408

(* ------------------------------------------------------------------ *)
(* Poller-shard side. *)

(* A connection is reapable once no event of its color is queued or
   executing and no output is pending — only then is closing the fd
   safe (no handler can touch it again, and the fd number may be
   recycled by the next accept). *)
let reapable conn =
  Atomic.get conn.inflight = 0
  && (not (Atomic.get conn.want_write))
  && not (Atomic.get conn.flush_pending)

let should_close ~draining conn =
  (conn.kill && Atomic.get conn.inflight = 0)
  || (reapable conn && (Atomic.get conn.wants_close || conn.eof || draining))

let close_conn t sh conn =
  Epoll.remove sh.ep conn.fd;
  own_remove t conn.color sh.id;
  (try sys_close t conn.fd with Unix.Unix_error _ -> ());
  Hashtbl.remove sh.conns conn.color;
  Atomic.incr sh.ctr.c_closed;
  if conn.kill || Atomic.get conn.failed then Atomic.incr sh.ctr.c_failed;
  let live = Atomic.fetch_and_add t.live (-1) - 1 in
  (* The acceptor paused on the client cap: this close made room. *)
  if Atomic.get t.listener_paused && live < t.max_clients then
    wake_shard t.shards.(0)

(* The shard's half of the [end_event] handshake: on an EOF or killed
   connection, [shard_waits] goes up before [should_close] reads
   [inflight], so an event still running is sure to report its end. *)
let maybe_close t sh conn =
  if conn.eof || conn.kill then Atomic.set conn.shard_waits true;
  (* An idle admin connection survives the start of a drain — the drain
     sweep reaps it after its grace window — so a scraper holding a
     keep-alive connection can still observe the drain itself. *)
  if
    (match Hashtbl.find_opt sh.conns conn.color with
    | Some c -> c == conn
    | None -> false)
    && should_close
         ~draining:((not conn.admin) && Atomic.get t.draining)
         conn
  then close_conn t sh conn

(* Batched injection: readiness events accumulate on the shard and go
   to the runtime as ONE gate decision + wakeup per wait return. List
   order is preserved, so two events of one color keep wire order. *)
let flush_batch t sh =
  match sh.batch with
  | [] -> ()
  | batch ->
    sh.batch <- [];
    sh.batch_n <- 0;
    let items =
      List.rev_map (fun (conn, h, run) -> (conn.color, h, run)) batch
    in
    if not (Rt.Runtime.try_register_batch t.rt ~home:sh.id items) then
      (* The runtime's shutdown gate refused the batch: these
         connections cannot be served any more; close each cleanly
         once its backlog drains. *)
      List.iter
        (fun (conn, _, _) ->
          Atomic.decr conn.inflight;
          Atomic.incr sh.ctr.r_inj_refused;
          conn.kill <- true;
          maybe_close t sh conn)
        batch

let batch_add sh conn handler run =
  Atomic.incr conn.inflight;
  sh.batch <- (conn, handler, run) :: sh.batch;
  sh.batch_n <- sh.batch_n + 1

(* Should the shard keep read interest on this connection? Admin
   connections stay readable through a drain so /healthz can answer
   503; the drain sweep closes them after a grace period. *)
let want_read ~draining conn =
  ((not draining) || conn.admin)
  && (not conn.eof) && (not conn.kill) && (not conn.evicting)
  && not (Atomic.get conn.wants_close)

(* Edge-triggered read discipline: drain until EAGAIN or EOF. The
   budget bounds one connection's share of a lap; on exhaustion a MOD
   re-arms the edge so leftover bytes re-report next lap. Each chunk
   rides its own pooled buffer into a colored read event. *)
let read_budget = 32

let read_conn t sh conn =
  let rec go budget =
    if budget = 0 then rearm sh conn ~read:true
    else begin
      let buf = Bufpool.checkout sh.pool in
      match sys_read t conn.fd buf 0 (Bytes.length buf) with
      | 0 ->
        Bufpool.recycle sh.pool buf;
        conn.eof <- true
      | n ->
        conn.last_read_ns <- Rt.Clock.now_ns ();
        batch_add sh conn t.h_read (on_chunk t conn buf n);
        go (budget - 1)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        Bufpool.recycle sh.pool buf;
        (* An *injected* EAGAIN can end the drain with real bytes still
           buffered — and the consumed edge would never re-fire. Re-arm
           so the kernel re-reports a level that still holds; skipped on
           passthrough, where EAGAIN is truthful. *)
        if Rt.Faults.is_active t.faults then rearm sh conn ~read:true
      | exception Unix.Unix_error (EINTR, _, _) ->
        Bufpool.recycle sh.pool buf;
        go (budget - 1)
      | exception Unix.Unix_error (_, _, _) ->
        Bufpool.recycle sh.pool buf;
        conn.kill <- true
    end
  in
  go read_budget

let accept_budget = 64
let accept_backoff_base_ns = 50_000_000L (* 50 ms *)
let accept_backoff_max_ns = 1_000_000_000L (* 1 s *)

(* fd pressure (EMFILE/ENFILE) or an unexpected accept errno: take both
   listeners out of the interest set for an exponentially growing window
   instead of re-arming a doomed accept at poller speed. One window
   gates both, since fd pressure is process-wide. *)
let accept_backoff sh ~now =
  Atomic.incr sh.ctr.a_errors;
  let step =
    if Int64.compare sh.backoff_ns 0L = 0 then accept_backoff_base_ns
    else
      let doubled = Int64.mul sh.backoff_ns 2L in
      if Int64.compare doubled accept_backoff_max_ns > 0 then
        accept_backoff_max_ns
      else doubled
  in
  sh.backoff_ns <- step;
  sh.backoff_until <- Int64.add now step;
  Atomic.incr sh.ctr.a_backoffs

(* Install an accepted fd on ITS OWNING shard: conn record, ownership
   audit, epoll registration (edge-triggered read and write, once for
   the connection's life), header deadline.
   Accepted/closed counters live on this shard, so the conservation
   identity [conns_accepted = conns_closed] holds per shard. *)
let install_conn t sh ~admin fd =
  if Atomic.get t.draining then begin
    (* Handed off just before the drain flag flipped: refuse cleanly. *)
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Atomic.incr sh.ctr.c_refused;
    Atomic.decr t.live
  end
  else begin
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let now = Rt.Clock.now_ns () in
    let conn =
      {
        fd;
        color = int_of_fd fd;
        shard = sh;
        admin;
        pending = "";
        scan_hint = 0;
        stop_parsing = false;
        outq = Queue.create ();
        wv_strs = Array.make writev_slices "";
        wv_offs = Array.make writev_slices 0;
        wv_lens = Array.make writev_slices 0;
        inflight = Atomic.make 0;
        want_write = Atomic.make false;
        flush_pending = Atomic.make false;
        wants_close = Atomic.make false;
        failed = Atomic.make false;
        shard_waits = Atomic.make false;
        last_progress = Atomic.make now;
        partial = Atomic.make false;
        completed = Atomic.make false;
        last_read_ns = now;
        evicting = false;
        eof = false;
        kill = false;
      }
    in
    own_add t conn.color sh.id;
    Hashtbl.replace sh.conns conn.color conn;
    Atomic.incr sh.ctr.c_accepted;
    (try Epoll.add sh.ep fd ~read:true ~write:true ~edge:true
     with Unix.Unix_error _ -> conn.kill <- true);
    (* Arm the armor: the first visit is at the header-read deadline,
       or sooner when the write deadline is shorter (see
       [check_deadlines]). *)
    Wheel.schedule sh.wheel conn.color
      ~at:
        (Int64.add now
           (ns_of_seconds
              (Float.min t.overload.header_deadline t.overload.write_deadline)))
  end

(* Accept loop, acceptor shard (id 0) only, for either listener: accept
   up to [budget]. Client fds spread round-robin across the shards; the
   acceptor bumps [live] before handing off, so the cap is enforced at
   accept time and the owning shard does everything else. Admin fds
   install on the acceptor itself (the traffic is one scraper, not a
   fleet) and bypass the [max_clients] cap so the plane answers when the
   server is saturated; they still count in [live] and in this shard's
   accepted/closed counters, so every conservation identity holds. *)
let rec accept_loop t sh ~admin lfd budget =
  if
    budget > 0
    && (admin || Atomic.get t.draining || Atomic.get t.live < t.max_clients)
  then
    match sys_accept t lfd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) ->
      accept_loop t sh ~admin lfd budget
    | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
      accept_backoff sh ~now:(Rt.Clock.now_ns ())
    | exception Unix.Unix_error (e, _, _) ->
      (* Unknown errno: one visible line and the same backoff — never a
         silent hot loop. *)
      Printf.eprintf "rtnet: accept failed: %s\n%!" (Unix.error_message e);
      accept_backoff sh ~now:(Rt.Clock.now_ns ())
    | fd, _ ->
      sh.backoff_ns <- 0L;
      if Atomic.get t.draining then begin
        (* Arriving mid-drain: refused cleanly, counted. *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Atomic.incr sh.ctr.c_refused
      end
      else begin
        Atomic.incr t.live;
        if admin then install_conn t sh ~admin fd
        else begin
          let target = t.shards.(sh.rr mod Array.length t.shards) in
          sh.rr <- sh.rr + 1;
          if target == sh then install_conn t sh ~admin fd
          else begin
            handoff_push target fd;
            wake_shard target
          end
        end
      end;
      accept_loop t sh ~admin lfd (budget - 1)

(* ------------------------------------------------------------------ *)
(* Deadline armor: evaluated lazily when the wheel fires a connection.
   Three clocks, checked in severity order: write progress (the peer
   stopped draining our output — nothing more can be delivered, reap),
   header-read (slow loris — 408 via a colored evict event), keep-alive
   idle (quiet close). If nothing expired, re-arm at the earliest
   applicable deadline, but never later than one write deadline away: a
   write can stall between visits without the shard seeing it (handlers
   queue output off the shard), and the next visit must still come in
   time to evict within two write deadlines. *)

let evict t sh conn kind =
  conn.evicting <- true;
  Atomic.incr sh.ctr.c_evicted;
  match kind with
  | `Stall ->
    conn.kill <- true;
    maybe_close t sh conn
  | `Idle ->
    Atomic.set conn.wants_close true;
    maybe_close t sh conn
  | `Header -> batch_add sh conn t.h_evict (on_evict t conn)

let check_deadlines t sh conn ~now =
  let ov = t.overload in
  let last_prog = Atomic.get conn.last_progress in
  let last_act = i64max conn.last_read_ns last_prog in
  let deadlines = ref [] in
  if Atomic.get conn.partial || not (Atomic.get conn.completed) then
    deadlines :=
      (Int64.add last_act (ns_of_seconds ov.header_deadline), `Header)
      :: !deadlines
  else if
    Atomic.get conn.inflight = 0
    && (not (Atomic.get conn.want_write))
    && not (Atomic.get conn.flush_pending)
  then
    deadlines :=
      (Int64.add last_act (ns_of_seconds ov.idle_deadline), `Idle) :: !deadlines;
  if Atomic.get conn.want_write then
    deadlines :=
      (Int64.add last_prog (ns_of_seconds ov.write_deadline), `Stall)
      :: !deadlines;
  match List.find_opt (fun (at, _) -> Int64.compare at now <= 0) !deadlines with
  | Some (_, kind) -> evict t sh conn kind
  | None ->
    let at =
      match !deadlines with
      | [] ->
        (* Requests in flight: nothing to time out right now; look
           again within an idle window. *)
        Int64.add now (ns_of_seconds ov.idle_deadline)
      | ds ->
        List.fold_left
          (fun acc (a, _) -> if Int64.compare a acc < 0 then a else acc)
          Int64.max_int ds
    in
    Wheel.schedule sh.wheel conn.color
      ~at:(i64min at (Int64.add now (ns_of_seconds ov.write_deadline)))

(* The acceptor's listeners are level-triggered: a budget-bounded
   accept batch may leave connections pending, and they must re-report.
   A listener stays in the interest set while [want] holds. *)
let arm_listener sh fd listening want =
  if want && not !listening then
    Epoll.add sh.ep fd ~read:true ~write:false ~edge:false
  else if (not want) && !listening then Epoll.remove sh.ep fd;
  listening := want

(* How long a lap may wait. A shard with nothing timed sleeps until a
   wake: every other reason to run arrives as one (a hand-off, an
   attention, a close under a paused listener, [stop]). An accept
   backoff ends on the clock, deadlines and the drain sweep run at the
   wheel's 50 ms granularity. *)
let lap_ms = 50

let wait_timeout_ms sh ~draining =
  let backoff_left = Int64.sub sh.backoff_until (Rt.Clock.now_ns ()) in
  if Int64.compare backoff_left 0L > 0 then
    min lap_ms (1 + Int64.to_int (Int64.div backoff_left 1_000_000L))
  else if draining || Wheel.pending sh.wheel > 0 then lap_ms
  else -1

let shard_loop t sh =
  let is_acceptor = sh.id = 0 in
  Epoll.add sh.ep sh.wake ~read:true ~write:false ~edge:false;
  let listening = ref false and admin_listening = ref false in
  let drain_started = ref None in
  let finished = ref false in
  while not !finished do
    let draining = Atomic.get t.draining in
    (if draining && !drain_started = None then
       drain_started := Some (Rt.Clock.now_ns ()));
    let past_deadline =
      match !drain_started with
      | None -> false
      | Some t0 -> Rt.Clock.elapsed_seconds ~since:t0 > t.drain_deadline
    in
    if is_acceptor then begin
      (* Admin conns bypass the client cap and mid-drain arrivals are
         refused in [accept_loop], so only the backoff pauses the admin
         listener. *)
      let calm = Int64.compare (Rt.Clock.now_ns ()) sh.backoff_until >= 0 in
      let want = calm && (draining || Atomic.get t.live < t.max_clients) in
      arm_listener sh t.listen_fd listening want;
      Option.iter (fun afd -> arm_listener sh afd admin_listening calm) t.admin_fd;
      Atomic.set t.listener_paused (not want)
    end;
    (match sys_wait t sh ~timeout_ms:(wait_timeout_ms sh ~draining) with
    | exception Unix.Unix_error (_, _, _) ->
      (* EINTR (real or injected) — or a stray errno under chaos; the
         interest set is kernel-side, the next lap just waits again. *)
      ()
    | n ->
      for i = 0 to n - 1 do
        let fd = Epoll.ready_fd sh.ep i in
        if fd = sh.wake then Epoll.drain sh.wake
        else if is_acceptor && fd = t.listen_fd then
          accept_loop t sh ~admin:false fd accept_budget
        else if
          is_acceptor
          && match t.admin_fd with Some afd -> fd = afd | None -> false
        then
          accept_loop t sh ~admin:true fd accept_budget
        else
          match Hashtbl.find_opt sh.conns (int_of_fd fd) with
          | None -> ()
          | Some conn ->
            let rd = Epoll.ready_readable sh.ep i || Epoll.ready_error sh.ep i in
            let wr = Epoll.ready_writable sh.ep i in
            if rd then begin
              if want_read ~draining conn then read_conn t sh conn
              else if Epoll.ready_readable sh.ep i then
                (* Not reading this connection any more: drop read
                   interest so further bytes from the peer stop waking
                   the shard. The MOD is idempotent; a hangup report
                   after it carries no readable bit, so it is not
                   repeated. *)
                rearm sh conn ~read:false
            end;
            if
              wr && (not conn.kill)
              && Atomic.get conn.want_write
              && not (Atomic.get conn.flush_pending)
            then begin
              Atomic.set conn.flush_pending true;
              batch_add sh conn t.h_flush (on_writable t conn)
            end;
            if conn.eof || conn.kill then maybe_close t sh conn
      done);
    (* One runtime gate decision + wakeup for everything this wait
       returned. *)
    flush_batch t sh;
    (* Install connections the acceptor handed us. *)
    (match Atomic.get sh.handoff with
    | [] -> ()
    | _ ->
      let fds = Atomic.exchange sh.handoff [] in
      List.iter (fun fd -> install_conn t sh ~admin:false fd) (List.rev fds));
    (* Deadline armor: fire due wheel entries; stale entries (closed or
       recycled fds, moved deadlines) re-evaluate harmlessly. *)
    let now = Rt.Clock.now_ns () in
    Wheel.advance sh.wheel ~now ~fire:(fun key ->
        match Hashtbl.find_opt sh.conns key with
        | Some conn
          when (not conn.evicting) && (not conn.kill)
               && not (Atomic.get conn.wants_close) ->
          check_deadlines t sh conn ~now
        | _ -> ());
    flush_batch t sh;
    (* Attention: connections whose last event said they may now be
       closed. *)
    (match Atomic.get sh.attn with
    | [] -> ()
    | _ ->
      let fds = Atomic.exchange sh.attn [] in
      List.iter
        (fun key ->
          match Hashtbl.find_opt sh.conns key with
          | Some conn -> maybe_close t sh conn
          | None -> ())
        fds);
    if draining then begin
      (* Drain sweep (bounded laps: the wait timeout caps the cadence,
         the drain deadline caps the total). *)
      let doomed = ref [] in
      (* Admin connections get a short grace so a scraper can still read
         the draining snapshot, then are reaped between requests. *)
      let admin_grace = Float.min 1.0 (t.drain_deadline /. 2.) in
      let drain_elapsed =
        match !drain_started with
        | None -> 0.0
        | Some t0 -> Rt.Clock.elapsed_seconds ~since:t0
      in
      Hashtbl.iter
        (fun _ c ->
          let doom =
            if c.admin then
              past_deadline
              || should_close ~draining:false c
              || (drain_elapsed > admin_grace && reapable c)
            else should_close ~draining:true c || past_deadline
          in
          if doom then doomed := c :: !doomed)
        sh.conns;
      List.iter
        (fun c ->
          if Hashtbl.mem sh.conns c.color then close_conn t sh c)
        !doomed;
      if
        Hashtbl.length sh.conns = 0
        && Atomic.get sh.handoff = []
        && sh.batch_n = 0
      then finished := true
    end
  done;
  if is_acceptor then begin
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    match t.admin_fd with
    | Some afd -> ( try Unix.close afd with Unix.Unix_error _ -> ())
    | None -> ()
  end

(* ------------------------------------------------------------------ *)

let default_app ~cache ~resp_404 (req : Httpkit.Request.t) =
  let full =
    match Hashtbl.find_opt cache req.Httpkit.Request.target with
    | Some r -> r
    | None -> resp_404
  in
  match req.Httpkit.Request.meth with
  | Httpkit.Request.HEAD -> head_of_response full
  | _ -> full

let read_buf_len = 16_384

let create ~rt ?(shards = 1) ?(max_clients = 1024) ?(backlog = 128)
    ?(max_request_bytes = 65_536) ?(drain_deadline = 5.0)
    ?(overload = default_overload) ?(faults = Rt.Faults.passthrough) ?app
    ?admin_port ~cache ~port () =
  if shards < 1 then invalid_arg "Rtnet.Server.create: shards must be >= 1";
  if max_clients < 1 then
    invalid_arg "Rtnet.Server.create: max_clients must be >= 1";
  if overload.header_deadline <= 0.0 || overload.idle_deadline <= 0.0
     || overload.write_deadline <= 0.0
  then invalid_arg "Rtnet.Server.create: overload deadlines must be > 0";
  if overload.shed_pending_hwm < 0 then
    invalid_arg "Rtnet.Server.create: shed_pending_hwm must be >= 0";
  (* A dropped client mid-write must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let bound_port =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen listen_fd backlog;
      Unix.set_nonblock listen_fd;
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  let admin_fd, admin_bound_port =
    match admin_port with
    | None -> (None, 0)
    | Some p -> (
      let afd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt afd Unix.SO_REUSEADDR true;
        Unix.bind afd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
        Unix.listen afd backlog;
        Unix.set_nonblock afd;
        let bp =
          match Unix.getsockname afd with
          | Unix.ADDR_INET (_, bp) -> bp
          | _ -> p
        in
        (Some afd, bp)
      with e ->
        (try Unix.close afd with Unix.Unix_error _ -> ());
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        raise e)
  in
  let mk_shard id =
    {
      id;
      ep = Epoll.create ();
      conns = Hashtbl.create 64;
      wheel =
        Wheel.create ~granularity_ns:50_000_000L ~now:(Rt.Clock.now_ns ()) ();
      wake = Epoll.eventfd ();
      attn = Atomic.make [];
      handoff = Atomic.make [];
      pool = Bufpool.create ~buf_len:read_buf_len ();
      ctr = make_counters ();
      backoff_until = 0L;
      backoff_ns = 0L;
      rr = 0;
      batch = [];
      batch_n = 0;
    }
  in
  let resp_404 =
    Httpkit.Response.build ~status:Httpkit.Response.Not_found ~body:"not found" ()
  in
  let app = match app with Some f -> f | None -> default_app ~cache ~resp_404 in
  {
    rt;
    app;
    max_clients;
    max_request_bytes;
    drain_deadline;
    overload;
    faults;
    listen_fd;
    bound_port;
    admin_fd;
    admin_bound_port;
    shards = Array.init shards mk_shard;
    live = Atomic.make 0;
    listener_paused = Atomic.make false;
    own_lock = Mutex.create ();
    own_tbl = Hashtbl.create 64;
    own_violations = Atomic.make 0;
    (* Declared cycles feed the time-left heuristic: a connection with
       a backlog of reads is worth stealing. *)
    h_read = Rt.Runtime.handler rt ~name:"net.read" ~declared_cycles:30_000 ();
    h_flush = Rt.Runtime.handler rt ~name:"net.flush" ~declared_cycles:10_000 ();
    h_evict = Rt.Runtime.handler rt ~name:"net.evict" ~declared_cycles:10_000 ();
    resp_400 =
      Httpkit.Response.build ~status:Httpkit.Response.Bad_request ~keep_alive:false
        ~body:"bad request" ();
    resp_500 =
      Httpkit.Response.build ~status:Httpkit.Response.Internal_error ~keep_alive:false
        ~body:"internal error" ();
    resp_404;
    resp_408 =
      Httpkit.Response.build ~status:Httpkit.Response.Request_timeout
        ~keep_alive:false ~body:"request timeout" ();
    resp_431 =
      Httpkit.Response.build ~status:Httpkit.Response.Header_fields_too_large
        ~keep_alive:false ~body:"request header fields too large" ();
    resp_503 =
      Httpkit.Response.build ~status:Httpkit.Response.Service_unavailable
        ~keep_alive:false ~body:"service unavailable" ();
    draining = Atomic.make false;
    lifecycle = Mutex.create ();
    state = Created;
    pollers = [];
  }

let port t = t.bound_port

let admin_port t =
  match t.admin_fd with None -> None | Some _ -> Some t.admin_bound_port

let shard_count t = Array.length t.shards
let ownership_violations t = Atomic.get t.own_violations

let bufpool_stats t =
  Array.fold_left
    (fun (a, r) sh ->
      let a', r' = Bufpool.stats sh.pool in
      (a + a', r + r'))
    (0, 0) t.shards

let start t =
  Mutex.lock t.lifecycle;
  let fail msg =
    Mutex.unlock t.lifecycle;
    invalid_arg msg
  in
  if t.state <> Created then fail "Rtnet.Server.start: already started";
  if not (Rt.Runtime.is_serving t.rt) then
    fail "Rtnet.Server.start: the runtime is not serving (call Rt.Runtime.start first)";
  t.state <- Started;
  t.pollers <-
    Array.to_list
      (Array.map (fun sh -> Domain.spawn (fun () -> shard_loop t sh)) t.shards);
  Mutex.unlock t.lifecycle

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_shard_fds sh =
  Epoll.close sh.ep;
  close_quietly sh.wake

let stop t =
  Mutex.lock t.lifecycle;
  (match t.state with
  | Stopped -> ()
  | Created ->
    t.state <- Stopped;
    close_quietly t.listen_fd;
    (match t.admin_fd with Some afd -> close_quietly afd | None -> ());
    Array.iter close_shard_fds t.shards
  | Started ->
    t.state <- Stopped;
    Atomic.set t.draining true;
    wake_all t;
    List.iter Domain.join t.pollers;
    t.pollers <- [];
    (* The shards closed every connection and the listeners. Any
       handler still unwinding its finally may re-arm a write on its
       shard's epoll set or signal its wake eventfd, so wait for the
       runtime to go quiescent before closing them (quiesce returns
       immediately on a stopped or aborted runtime). *)
    Rt.Runtime.quiesce t.rt;
    Array.iter close_shard_fds t.shards);
  Mutex.unlock t.lifecycle

let stats t =
  let add a b =
    {
      conns_accepted = a.conns_accepted + b.conns_accepted;
      conns_refused = a.conns_refused + b.conns_refused;
      conns_closed = a.conns_closed + b.conns_closed;
      conns_failed = a.conns_failed + b.conns_failed;
      conns_evicted = a.conns_evicted + b.conns_evicted;
      reqs_parsed = a.reqs_parsed + b.reqs_parsed;
      reqs_served = a.reqs_served + b.reqs_served;
      reqs_failed = a.reqs_failed + b.reqs_failed;
      reqs_malformed = a.reqs_malformed + b.reqs_malformed;
      reqs_too_large = a.reqs_too_large + b.reqs_too_large;
      reqs_shed = a.reqs_shed + b.reqs_shed;
      injections_refused = a.injections_refused + b.injections_refused;
      accept_errors = a.accept_errors + b.accept_errors;
      accept_backoffs = a.accept_backoffs + b.accept_backoffs;
      faults_injected = a.faults_injected + b.faults_injected;
    }
  in
  let zero =
    stats_of_counters ~faults_injected:(Rt.Faults.injected t.faults)
      (make_counters ())
  in
  Array.fold_left (fun acc sh -> add acc (stats_of_counters ~faults_injected:0 sh.ctr)) zero
    t.shards
