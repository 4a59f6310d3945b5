(* The serving workloads: a real Rtnet.Server (2 workers, 1 poller
   shard) driven over loopback by one client thread on 2 keep-alive
   connections.

   static_1k (SWS shape): the app is a lookup in a cache of 8 prebuilt
   1 KB responses, so each event is tiny and the front end and the
   runtime's per-event, park and wake costs dominate.

   crypto_16k (SFS shape): the app ChaCha20-encrypts a 16 KB file and
   tags it with HMAC-SHA256, so events are coarse and the app
   dominates. One shard homes both connection colors on worker 0, so
   using the second worker takes a steal.

   Every request carries its op id in the query string
   ([/f3.html?r=<id>]); the app strips it before the lookup and, in a
   traced phase, stamps its start and end for that id. Responses are
   checked byte for byte against bytes computed at set-up. *)

let workers = 2
let shards = 1
let conns = 2
let files = 8
let depth = 16 (* closed-loop pipelining per connection *)

(* ------------------------------------------------------------------ *)
(* The app and its expected output. *)

(* App-side stamps, written by worker domains for the op id in the
   query; empty arrays (untraced) switch stamping off. *)
type probe = { mutable app_start : float array; mutable app_end : float array }

let path_and_id target =
  match String.index_opt target '?' with
  | None -> (target, -1)
  | Some q ->
    let query = String.sub target (q + 1) (String.length target - q - 1) in
    let id =
      if String.starts_with ~prefix:"r=" query then
        Option.value (int_of_string_opt (String.sub query 2 (String.length query - 2))) ~default:(-1)
      else -1
    in
    (String.sub target 0 q, id)

let stamp arr id = if id >= 0 && id < Array.length arr then arr.(id) <- Phase.now ()

let path i = Printf.sprintf "/f%d.html" i

let random_string rng n =
  String.init n (fun _ -> Char.chr (Char.code 'a' + Mstd.Rng.int rng 26))

type site = {
  cache : (string, string) Hashtbl.t;  (** the server's prebuilt responses *)
  respond : string -> string;  (** app: path -> response bytes *)
  expected : string array;  (** file index -> exact response bytes *)
}

let static_site rng =
  let bodies = List.init files (fun i -> (path i, random_string rng 1024)) in
  let cache = Httpkit.Response.prebuild_cache ~files:bodies in
  let not_found = Httpkit.Response.build ~status:Httpkit.Response.Not_found ~body:"" () in
  {
    cache;
    respond = (fun p -> Option.value (Hashtbl.find_opt cache p) ~default:not_found);
    expected = Array.init files (fun i -> Hashtbl.find cache (path i));
  }

let crypto_site rng =
  let key = random_string rng 32 and mac_key = random_string rng 32 in
  let nonces = Array.init files (fun _ -> random_string rng 12) in
  let plain = Array.init files (fun _ -> random_string rng 16_384) in
  let index = Hashtbl.create files in
  Array.iteri (fun i _ -> Hashtbl.replace index (path i) i) plain;
  let seal i =
    let body = Crypto.Chacha20.encrypt ~key ~nonce:nonces.(i) plain.(i) in
    Httpkit.Response.build ~content_type:"application/octet-stream"
      ~extra_headers:[ ("X-Tag", Crypto.Hmac.sha256_hex ~key:mac_key body) ]
      ~body ()
  in
  {
    cache = Hashtbl.create 1;
    respond =
      (fun p ->
        match Hashtbl.find_opt index p with
        | Some i -> seal i
        | None -> Httpkit.Response.build ~status:Httpkit.Response.Not_found ~body:"" ());
    expected = Array.init files seal;
  }

(* ------------------------------------------------------------------ *)
(* The client: nonblocking keep-alive connections, pipelined requests,
   responses matched byte for byte in wire order. *)

exception Broken

type conn = {
  mutable fd : Unix.file_descr;
  mutable obuf : Bytes.t;  (** request bytes queued for the socket *)
  mutable olen : int;
  mutable ooff : int;  (** bytes of [obuf] already written *)
  unsent : (int * int) Queue.t;  (** op id, end offset in [obuf] *)
  inflight : int Queue.t;  (** op ids awaiting their response, wire order *)
  mutable matched : int;  (** bytes of the head response matched so far *)
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  fd

let new_conn port =
  {
    fd = connect port;
    obuf = Bytes.create 4096;
    olen = 0;
    ooff = 0;
    unsent = Queue.create ();
    inflight = Queue.create ();
    matched = 0;
  }

let request ~file ~id = Printf.sprintf "GET %s?r=%d HTTP/1.1\r\nHost: bench\r\n\r\n" (path file) id

let enqueue c ~id req =
  let n = String.length req in
  if c.olen + n > Bytes.length c.obuf then begin
    let b = Bytes.create (2 * (c.olen + n)) in
    Bytes.blit c.obuf 0 b 0 c.olen;
    c.obuf <- b
  end;
  Bytes.blit_string req 0 c.obuf c.olen n;
  c.olen <- c.olen + n;
  Queue.push (id, c.olen) c.unsent;
  Queue.push id c.inflight

(* Write what the socket takes; [on_sent id t] for every op whose last
   byte went out in this call. [t] is taken just before the write, so
   no server-side stamp of that op can precede it. *)
let flush c ~on_sent =
  if c.ooff < c.olen then begin
    let t = Phase.now () in
    match Unix.single_write c.fd c.obuf c.ooff (c.olen - c.ooff) with
    | w ->
      c.ooff <- c.ooff + w;
      let rec pop () =
        match Queue.peek_opt c.unsent with
        | Some (id, e) when e <= c.ooff ->
          ignore (Queue.pop c.unsent);
          on_sent id t;
          pop ()
        | _ -> ()
      in
      pop ();
      if c.ooff = c.olen then begin
        c.ooff <- 0;
        c.olen <- 0
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> raise Broken
  end

let rbuf = Bytes.create 65_536

(* Read what is available and match it against the expected bytes of
   the oldest outstanding op; [on_done id t] per complete response. *)
let receive c ~expected_of ~on_done =
  let rec go () =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> raise Broken
    | n ->
      let t = Phase.now () in
      let i = ref 0 in
      while !i < n do
        let id = match Queue.peek_opt c.inflight with Some id -> id | None -> raise Broken in
        let exp = expected_of id in
        let k = min (String.length exp - c.matched) (n - !i) in
        for j = 0 to k - 1 do
          if Bytes.unsafe_get rbuf (!i + j) <> String.unsafe_get exp (c.matched + j) then
            raise Broken
        done;
        i := !i + k;
        c.matched <- c.matched + k;
        if c.matched = String.length exp then begin
          ignore (Queue.pop c.inflight);
          c.matched <- 0;
          on_done id t
        end
      done;
      go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> raise Broken
  in
  go ()

let idle c = Queue.is_empty c.inflight

let wait cs ~timeout =
  let rd = Array.to_list (Array.map (fun c -> c.fd) cs) in
  let wr = List.filter_map (fun c -> if c.ooff < c.olen then Some c.fd else None) (Array.to_list cs) in
  try ignore (Unix.select rd wr [] (Float.max 0.0 timeout))
  with Unix.Unix_error (EINTR, _, _) -> ()

(* A connection that broke (mismatch, early close, I/O error) loses its
   outstanding ops — each is an error — and is replaced. *)
let replace port c =
  let lost = Queue.length c.inflight in
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  c.fd <- connect port;
  c.olen <- 0;
  c.ooff <- 0;
  c.matched <- 0;
  Queue.clear c.unsent;
  Queue.clear c.inflight;
  lost

(* One pass of the event loop over every connection. *)
let pump port cs ~expected_of ~on_sent ~on_done =
  let errors = ref 0 in
  Array.iter
    (fun c ->
      try
        flush c ~on_sent;
        receive c ~expected_of ~on_done
      with Broken -> errors := !errors + replace port c)
    cs;
  !errors

(* ------------------------------------------------------------------ *)
(* Phases. *)

let drain_cap_ns = 3e9
let layer_names = [ "loadgen.send"; "rtnet.in"; "app"; "rtnet.out" ]

let open_loop ~rt ~port ~cs ~site ~probe ~traced ~name ~rate ~seconds ~seed =
  let rng = Mstd.Rng.create (Int64.of_int seed) in
  let offs = Phase.poisson rng ~rate ~seconds in
  let n = Array.length offs in
  let file = Array.init n (fun _ -> Mstd.Rng.int rng files) in
  let conn = Array.init n (fun _ -> Mstd.Rng.int rng conns) in
  let sent = Array.make n 0.0 and fin = Array.make n 0.0 in
  if traced then begin
    probe.app_start <- Array.make n 0.0;
    probe.app_end <- Array.make n 0.0
  end;
  let expected_of id = site.expected.(file.(id)) in
  let on_sent id t = sent.(id) <- t and on_done id t = fin.(id) <- t in
  let cpu0 = Phase.cpu_seconds () in
  let t0 = Phase.now () +. 1e6 in
  let due = Array.map (fun o -> t0 +. o) offs in
  let last_due = if n = 0 then t0 else due.(n - 1) in
  let next = ref 0 and pending_peak = ref 0 in
  let sample_at = ref t0 in
  let finished = ref false in
  while not !finished do
    let now = Phase.now () in
    while !next < n && due.(!next) <= now do
      let id = !next in
      enqueue cs.(conn.(id)) ~id (request ~file:file.(id) ~id);
      incr next
    done;
    (* Ops lost to a broken connection never complete; they are counted
       below as offered minus ok. *)
    ignore (pump port cs ~expected_of ~on_sent ~on_done);
    if now >= !sample_at then begin
      pending_peak := max !pending_peak (Rt.Runtime.pending rt);
      sample_at := now +. Int64.to_float Phase.sample_every_ns
    end;
    if !next = n && Array.for_all idle cs then finished := true
    else if now > last_due +. drain_cap_ns then begin
      (* Stragglers: give up on them and resynchronize. *)
      Array.iter (fun c -> ignore (replace port c)) cs;
      finished := true
    end
    else
      let timeout = if !next < n then (due.(!next) -. now) /. 1e9 else 0.01 in
      wait cs ~timeout:(Float.min timeout 0.01)
  done;
  let cpu_s = Phase.cpu_seconds () -. cpu0 in
  (* Handlers may still be finishing (flush events); quiescing also
     orders their app stamps before the reads below. *)
  Rt.Runtime.quiesce rt;
  let lat = Samples.create n and lag = Samples.create n in
  let last_fin = ref t0 and ok = ref 0 in
  for id = 0 to n - 1 do
    if sent.(id) > 0.0 then Samples.add lag ((sent.(id) -. due.(id)) /. 1e6);
    if fin.(id) > 0.0 then begin
      incr ok;
      Samples.add lat ((fin.(id) -. due.(id)) /. 1e6);
      last_fin := Float.max !last_fin fin.(id)
    end
  done;
  let stamps id = [| due.(id); sent.(id); probe.app_start.(id); probe.app_end.(id); fin.(id) |] in
  let complete id = fin.(id) > 0.0 && probe.app_start.(id) > 0.0 && probe.app_end.(id) > 0.0 in
  let layers, chrome =
    if traced then Phase.spans ~n ~names:layer_names ~complete ~stamps else ([], [])
  in
  probe.app_start <- [||];
  probe.app_end <- [||];
  {
    Phase.name;
    rate;
    offered = n;
    ok = !ok;
    (* Lost to a broken connection, mismatched, or never completed. *)
    errors = n - !ok;
    lat_ms = lat;
    lag_ms = lag;
    drained = !last_fin -. last_due <= 1e9;
    cpu_s;
    wall_s = (!last_fin -. t0) /. 1e9;
    pending_peak = !pending_peak;
    layers;
    calls = Samples.create 0;
    chrome;
  }

(* Saturation: [depth] requests outstanding on every connection, a new
   one sent as each response completes. *)
let closed_loop ~port ~cs ~site ~seed ~seconds =
  let rng = Mstd.Rng.create (Int64.of_int seed) in
  let file = Array.init 4096 (fun _ -> Mstd.Rng.int rng files) in
  let expected_of id = site.expected.(file.(id land 4095)) in
  (* At most [conns * depth] ops are outstanding, so a ring of 4096
     slots maps each to its connection. *)
  let owner = Array.make 4096 0 in
  let next = ref 0 and ok = ref 0 and errors = ref 0 in
  let cpu0 = Phase.cpu_seconds () in
  let t0 = Phase.now () in
  let deadline = t0 +. (seconds *. 1e9) in
  let send ci =
    let id = !next in
    incr next;
    owner.(id land 4095) <- ci;
    enqueue cs.(ci) ~id (request ~file:file.(id land 4095) ~id)
  in
  Array.iteri (fun ci _ -> for _ = 1 to depth do send ci done) cs;
  let sending = ref true in
  let on_done id t =
    if t <= deadline then incr ok;
    if !sending then send owner.(id land 4095)
  in
  let finished = ref false in
  while not !finished do
    errors := !errors + pump port cs ~expected_of ~on_sent:(fun _ _ -> ()) ~on_done;
    let now = Phase.now () in
    if now > deadline then sending := false;
    if (not !sending) && Array.for_all idle cs then finished := true
    else if now > deadline +. drain_cap_ns then begin
      Array.iter (fun c -> errors := !errors + replace port c) cs;
      finished := true
    end
    else wait cs ~timeout:0.01
  done;
  let cpu_s = Phase.cpu_seconds () -. cpu0 in
  {
    Phase.name = "peak";
    rate = float_of_int !ok /. seconds;
    offered = !next;
    ok = !ok;
    errors = !errors;
    lat_ms = Samples.create 0;
    lag_ms = Samples.create 0;
    drained = true;
    cpu_s;
    wall_s = seconds;
    pending_peak = 0;
    layers = [];
    calls = Samples.create 0;
    chrome = [];
  }

(* ------------------------------------------------------------------ *)
(* Set-up and teardown. *)

let setup (w : Workload.t) ~seed ~traced =
  let rng = Mstd.Rng.create (Int64.of_int seed) in
  let site = match w.shape with Workload.Crypto -> crypto_site rng | _ -> static_site rng in
  let probe = { app_start = [||]; app_end = [||] } in
  let app (req : Httpkit.Request.t) =
    let p, id = path_and_id req.Httpkit.Request.target in
    stamp probe.app_start id;
    let r = site.respond p in
    stamp probe.app_end id;
    r
  in
  let t0 = Phase.now () in
  let trace =
    if traced then Some { Rt.Trace.capacity = 65_536; histograms = false } else None
  in
  let rt = Rt.Runtime.create ~workers ~on_error:Rt.Runtime.Swallow ?trace () in
  Rt.Runtime.start rt;
  (* No shedding: every op is served; overload shows as latency. *)
  let overload = { Rtnet.Server.default_overload with shed_pending_hwm = max_int } in
  let server =
    Rtnet.Server.create ~rt ~shards ~max_clients:64 ~overload ~app ~cache:site.cache ~port:0 ()
  in
  Rtnet.Server.start server;
  let port = Rtnet.Server.port server in
  let cs = Array.init conns (fun _ -> new_conn port) in
  (* Set-up ends with the first correct response. *)
  let first = ref false and errors = ref 0 in
  enqueue cs.(0) ~id:0 (request ~file:0 ~id:0);
  while (not !first) && !errors = 0 && Phase.now () -. t0 < 5e9 do
    errors :=
      pump port cs
        ~expected_of:(fun _ -> site.expected.(0))
        ~on_sent:(fun _ _ -> ())
        ~on_done:(fun _ _ -> first := true);
    if not !first then wait cs ~timeout:0.01
  done;
  let setup_s = (Phase.now () -. t0) /. 1e9 in
  let teardown () =
    Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
    Rtnet.Server.stop server;
    let s = Rtnet.Server.stats server in
    let conservation = Rt.Runtime.debug_check_conservation rt in
    let same_color = Rt.Runtime.max_concurrent_same_color rt in
    Rt.Runtime.stop rt;
    List.concat
      [
        Phase.check "first response correct" (!first && !errors = 0);
        Phase.check "reqs_parsed = served + failed + shed"
          (s.reqs_parsed = s.reqs_served + s.reqs_failed + s.reqs_shed);
        Phase.check "conns_accepted = conns_closed" (s.conns_accepted = s.conns_closed);
        Phase.check "no failed, shed, malformed or refused request"
          (s.reqs_failed + s.reqs_shed + s.reqs_malformed + s.injections_refused = 0);
        Phase.check "fd ownership" (Rtnet.Server.ownership_violations server = 0);
        Phase.check "max_concurrent_same_color = 1" (same_color = 1);
        Phase.check "debug_check_conservation" (conservation = None);
        Phase.check "no handler errors" (Rt.Runtime.errors rt = 0);
        Phase.check "no pending events after stop" (Rt.Runtime.pending rt = 0);
        Phase.replay_check rt;
      ]
  in
  let instance =
    {
      Phase.rt;
      server = Some server;
      domains = workers + shards + 2 (* supervisor, client *);
      open_loop = open_loop ~rt ~port ~cs ~site ~probe ~traced;
      closed_loop = (fun ~seconds -> closed_loop ~port ~cs ~site ~seed ~seconds);
      teardown;
    }
  in
  (instance, setup_s)
