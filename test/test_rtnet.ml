(* Loopback end-to-end tests for the real TCP front-end (lib/rtnet):
   real sockets, real worker domains, byte-exact responses, lifecycle
   under traffic, fd conservation, per-connection fault containment. *)

let site = Rtnet.Loadgen.default_site ~files:8 ~file_bytes:1024 ()

let cache () = Httpkit.Response.prebuild_cache ~files:site

let targets cache =
  List.map (fun (path, _) -> (path, Hashtbl.find cache path)) site

(* What the server sends on malformed input / app failure (must stay in
   sync with lib/rtnet/server.ml). *)
let resp_400 =
  Httpkit.Response.build ~status:Httpkit.Response.Bad_request ~keep_alive:false
    ~body:"bad request" ()

let resp_500 =
  Httpkit.Response.build ~status:Httpkit.Response.Internal_error ~keep_alive:false
    ~body:"internal error" ()

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

(* Raw blocking client socket with receive timeouts. *)
let connect ?(timeout = 10.0) port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd
  | exception e ->
    Unix.close fd;
    raise e

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let read_n fd n =
  let buf = Bytes.create n in
  let rec fill off =
    if off >= n then Bytes.to_string buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> Bytes.sub_string buf 0 off
      | k -> fill (off + k)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        Bytes.sub_string buf 0 off
      | exception Unix.Unix_error (EINTR, _, _) -> fill off
  in
  fill 0

let read_until_eof fd =
  let buf = Buffer.create 1024 in
  let b = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd b 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf b 0 n;
      go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> Buffer.contents buf
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> Buffer.contents buf
  in
  go ()

let get path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path

let with_server ?(workers = 2) ?trace ?shards ?max_clients ?overload ?app
    ?admin_port body =
  let rt = Rt.Runtime.create ~workers ?trace () in
  let cache = cache () in
  Rt.Runtime.start rt;
  let server =
    Rtnet.Server.create ~rt ?shards ?max_clients ?overload ?app ?admin_port
      ~cache ~port:0 ()
  in
  Rtnet.Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Rtnet.Server.stop server;
      if Rt.Runtime.is_serving rt then Rt.Runtime.stop rt)
    (fun () -> body rt server cache)

(* The acceptance run: >= 4 workers, >= 5k pipelined keep-alive requests
   over real TCP with torn writes, zero mismatches, conservation, and a
   clean flight-recorder replay. *)
let test_e2e_pipelined () =
  let conns = 16 and requests = 320 in
  with_server ~workers:4 ~trace:Rt.Trace.default_config (fun rt server cache ->
      let r =
        Rtnet.Loadgen.run ~port:(Rtnet.Server.port server) ~conns ~requests
          ~pipeline:8 ~torn_every:8 ~close_last:true ~targets:(targets cache) ()
      in
      let total = conns * requests in
      Alcotest.(check int) "all sent" total r.requests_sent;
      Alcotest.(check int) "all byte-exact" total r.responses_ok;
      Alcotest.(check int) "no mismatches" 0 r.mismatches;
      Alcotest.(check int) "no failed conns" 0 r.failed_conns;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "parsed all" total s.reqs_parsed;
      Alcotest.(check int) "served all" total s.reqs_served;
      Alcotest.(check int) "no handler failures" 0 s.reqs_failed;
      Alcotest.(check int) "no malformed" 0 s.reqs_malformed;
      Alcotest.(check int) "accepted" conns s.conns_accepted;
      Alcotest.(check int) "accepted = closed" s.conns_accepted s.conns_closed;
      Alcotest.(check int) "none dropped" 0 s.conns_failed;
      Rt.Runtime.stop rt;
      Alcotest.(check int) "mutual exclusion held live" 1
        (Rt.Runtime.max_concurrent_same_color rt);
      let tr = Option.get (Rt.Runtime.trace rt) in
      Alcotest.(check bool) "replay: mutual exclusion" true
        (Rt.Trace.check_mutual_exclusion tr = None);
      Alcotest.(check bool) "replay: per-color FIFO" true
        (Rt.Trace.check_fifo_per_color tr = None))

(* Graceful server drain under load: accepted requests complete (client
   sees a byte-exact prefix), new connects are refused, no fd leaks. *)
let test_server_stop_under_traffic () =
  let fds_before = open_fds () in
  with_server ~workers:2 (fun _rt server cache ->
      let port = Rtnet.Server.port server in
      let expected = Hashtbl.find cache "/f0.html" in
      let c1 = connect port in
      let n = 64 in
      for _ = 1 to n do
        send c1 (get "/f0.html")
      done;
      Rtnet.Server.stop server;
      (* Everything that made it past the parser was answered, in
         order, before the drain closed the socket. *)
      let got = read_until_eof c1 in
      let k = String.length got / String.length expected in
      Alcotest.(check bool) "whole responses only" true
        (String.length got = k * String.length expected);
      let all = String.concat "" (List.init k (fun _ -> expected)) in
      Alcotest.(check bool) "byte-exact prefix" true (got = all);
      Unix.close c1;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "accepted = closed" s.conns_accepted s.conns_closed;
      Alcotest.(check int) "drain served what it parsed" s.reqs_parsed
        (s.reqs_served + s.reqs_failed);
      (* The listener is gone: a late connect is refused cleanly. *)
      (match connect port with
      | fd ->
        (* A racing listen queue may still accept; then we must see
           immediate EOF with zero bytes served. *)
        send fd (get "/f0.html");
        Alcotest.(check string) "late conn gets nothing" "" (read_until_eof fd);
        Unix.close fd
      | exception Unix.Unix_error ((ECONNREFUSED | ECONNRESET | EPIPE), _, _) -> ()));
  match fds_before with
  | None -> ()
  | Some before ->
    let after = Option.get (open_fds ()) in
    Alcotest.(check int) "no fd leak" before after

(* Stopping the *runtime* mid-pipeline: already-accepted requests
   complete, further injections are refused and the connection is
   closed cleanly — the poller never hangs. *)
let test_runtime_stop_under_traffic () =
  with_server ~workers:2 (fun rt server cache ->
      let port = Rtnet.Server.port server in
      let expected = Hashtbl.find cache "/f1.html" in
      let c = connect port in
      send c (get "/f1.html");
      Alcotest.(check string) "served before stop" expected
        (read_n c (String.length expected));
      Rt.Runtime.stop rt;
      (* The gate is closed: new bytes cannot be injected; the server
         reaps the connection instead of serving it. *)
      send c (get "/f1.html");
      Alcotest.(check string) "nothing after runtime stop" "" (read_until_eof c);
      Unix.close c;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check bool) "refused injection counted" true
        (s.injections_refused >= 1);
      Alcotest.(check int) "accepted = closed" s.conns_accepted s.conns_closed)

(* One connection's raising handler is contained: it gets a 500 and a
   close, the sibling connection keeps serving, the runtime stays up. *)
let test_raising_handler_contained () =
  let cache_for_app = cache () in
  let app (req : Httpkit.Request.t) =
    if req.Httpkit.Request.target = "/boom" then failwith "handler exploded"
    else
      match Hashtbl.find_opt cache_for_app req.Httpkit.Request.target with
      | Some r -> r
      | None -> resp_400
  in
  with_server ~workers:2 ~app (fun rt server cache ->
      let port = Rtnet.Server.port server in
      let expected = Hashtbl.find cache "/f2.html" in
      let sibling = connect port in
      let victim = connect port in
      send victim (get "/boom");
      Alcotest.(check string) "victim gets the 500" resp_500
        (read_n victim (String.length resp_500));
      Alcotest.(check string) "victim closed" "" (read_until_eof victim);
      Unix.close victim;
      for _ = 1 to 20 do
        send sibling (get "/f2.html");
        Alcotest.(check string) "sibling keeps serving" expected
          (read_n sibling (String.length expected))
      done;
      Unix.close sibling;
      (* The error counter is bumped just after the handler's raise
         propagates; give the worker a moment to get there. *)
      let rec await n =
        if Rt.Runtime.errors rt = 0 && n > 0 then begin
          Unix.sleepf 0.01;
          await (n - 1)
        end
      in
      await 200;
      Alcotest.(check int) "runtime counted the failure" 1 (Rt.Runtime.errors rt);
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "request counted failed" 1 s.reqs_failed;
      Alcotest.(check int) "parsed = served + failed" s.reqs_parsed
        (s.reqs_served + s.reqs_failed))

(* A raising app on a pipelined connection: the request before it is
   answered, the failing one gets the 500 with [Connection: close], and
   the request pipelined behind it is never parsed or answered. *)
let test_pipelined_500_closes () =
  let cache_for_app = cache () in
  let app (req : Httpkit.Request.t) =
    if req.Httpkit.Request.target = "/boom" then failwith "handler exploded"
    else Hashtbl.find cache_for_app req.Httpkit.Request.target
  in
  with_server ~workers:2 ~app (fun _rt server cache ->
      let expected = Hashtbl.find cache "/f2.html" in
      let c = connect (Rtnet.Server.port server) in
      send c (get "/f2.html" ^ get "/boom" ^ get "/f2.html");
      Alcotest.(check string) "first request served" expected
        (read_n c (String.length expected));
      Alcotest.(check string) "then the 500" resp_500
        (read_n c (String.length resp_500));
      Alcotest.(check string) "then EOF, nothing more" "" (read_until_eof c);
      Unix.close c;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "parsed" 2 s.reqs_parsed;
      Alcotest.(check int) "served" 1 s.reqs_served;
      Alcotest.(check int) "failed" 1 s.reqs_failed)

(* Malformed bytes 400-close their own connection and nothing else. *)
let test_malformed_contained () =
  with_server ~workers:2 (fun _rt server cache ->
      let port = Rtnet.Server.port server in
      let expected = Hashtbl.find cache "/f3.html" in
      let sibling = connect port in
      let victim = connect port in
      send victim "BOGUS garbage\r\n\r\n";
      Alcotest.(check string) "victim gets the 400" resp_400
        (read_n victim (String.length resp_400));
      Alcotest.(check string) "victim closed" "" (read_until_eof victim);
      Unix.close victim;
      send sibling (get "/f3.html");
      Alcotest.(check string) "sibling keeps serving" expected
        (read_n sibling (String.length expected));
      Unix.close sibling;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "malformed counted" 1 s.reqs_malformed;
      Alcotest.(check int) "no handler failures" 0 s.reqs_failed)

(* HEAD answers with the cached response's header block only. *)
let test_head_headers_only () =
  with_server ~workers:2 (fun _rt server cache ->
      let port = Rtnet.Server.port server in
      let full = Hashtbl.find cache "/f4.html" in
      let header_end =
        let rec find i =
          if String.sub full i 4 = "\r\n\r\n" then i + 4 else find (i + 1)
        in
        find 0
      in
      let expected = String.sub full 0 header_end in
      let c = connect port in
      send c "HEAD /f4.html HTTP/1.1\r\nHost: t\r\n\r\n";
      Alcotest.(check string) "headers only" expected
        (read_n c (String.length expected));
      (* Still keep-alive: a GET on the same connection serves the body. *)
      send c (get "/f4.html");
      Alcotest.(check string) "body afterwards" full (read_n c (String.length full));
      Unix.close c)

(* The Accept cap: with max_clients = 1, a second client is only
   accepted (and served) once the first connection closes. *)
let test_max_clients_cap () =
  with_server ~workers:2 ~max_clients:1 (fun _rt server cache ->
      let port = Rtnet.Server.port server in
      let expected = Hashtbl.find cache "/f5.html" in
      let holder = connect port in
      send holder (get "/f5.html");
      Alcotest.(check string) "holder served" expected
        (read_n holder (String.length expected));
      let closer =
        Domain.spawn (fun () ->
            Unix.sleepf 0.5;
            Unix.close holder)
      in
      let t0 = Unix.gettimeofday () in
      let second = connect port in
      send second (get "/f5.html");
      Alcotest.(check string) "second served after cap clears" expected
        (read_n second (String.length expected));
      let waited = Unix.gettimeofday () -. t0 in
      Domain.join closer;
      Unix.close second;
      Alcotest.(check bool) "second waited for the slot" true (waited >= 0.3))

(* The sharded front end under a torn-write concurrent load: every
   connection lands on exactly one shard (round-robin hand-off from the
   acceptor), both conservation identities hold per shard as well as in
   aggregate, the per-shard counters sum to the aggregate, and the
   fd-ownership audit saw no cross-shard touch. *)
let test_sharded_conservation () =
  let shards = 4 and conns = 32 and requests = 40 in
  with_server ~workers:2 ~shards (fun _rt server cache ->
      Alcotest.(check int) "shard count" shards (Rtnet.Server.shard_count server);
      let r =
        Rtnet.Loadgen.run ~port:(Rtnet.Server.port server) ~conns ~requests
          ~pipeline:4 ~torn_every:6 ~concurrent:true ~close_last:true
          ~targets:(targets cache) ()
      in
      let total = conns * requests in
      Alcotest.(check int) "all byte-exact" total r.responses_ok;
      Alcotest.(check int) "no mismatches" 0 r.mismatches;
      Alcotest.(check int) "no failed conns" 0 r.failed_conns;
      Alcotest.(check int) "all conns simultaneously open" conns
        r.conns_open_peak;
      Rtnet.Server.stop server;
      let per = Rtnet.Server.shard_stats server in
      Alcotest.(check int) "one stats row per shard" shards (Array.length per);
      Array.iteri
        (fun i (ss : Rtnet.Server.stats) ->
          let name fmt = Printf.sprintf fmt i in
          Alcotest.(check int)
            (name "shard %d: round-robin gave it conns")
            (conns / shards) ss.conns_accepted;
          Alcotest.(check int)
            (name "shard %d: accepted = closed")
            ss.conns_accepted ss.conns_closed;
          Alcotest.(check int)
            (name "shard %d: parsed = served + failed + shed")
            ss.reqs_parsed
            (ss.reqs_served + ss.reqs_failed + ss.reqs_shed))
        per;
      let s = Rtnet.Server.stats server in
      let sum f = Array.fold_left (fun a ss -> a + f ss) 0 per in
      Alcotest.(check int) "shards sum to aggregate: accepted"
        s.conns_accepted
        (sum (fun (ss : Rtnet.Server.stats) -> ss.conns_accepted));
      Alcotest.(check int) "shards sum to aggregate: closed" s.conns_closed
        (sum (fun (ss : Rtnet.Server.stats) -> ss.conns_closed));
      Alcotest.(check int) "shards sum to aggregate: parsed" s.reqs_parsed
        (sum (fun (ss : Rtnet.Server.stats) -> ss.reqs_parsed));
      Alcotest.(check int) "shards sum to aggregate: served" s.reqs_served
        (sum (fun (ss : Rtnet.Server.stats) -> ss.reqs_served));
      Alcotest.(check int) "aggregate conservation" s.conns_accepted
        s.conns_closed;
      Alcotest.(check int) "fd slices stayed disjoint" 0
        (Rtnet.Server.ownership_violations server);
      let allocated, reused = Rtnet.Server.bufpool_stats server in
      Alcotest.(check bool) "read buffers were pooled" true (allocated > 0);
      Alcotest.(check bool) "read buffers were reused" true (reused > 0))

(* The kernel semantics the poller shards rely on, checked on a
   socketpair: an edge-triggered registration reports written bytes
   once, a second wait without reading reports nothing, and a MOD
   re-arms it while the bytes are still unread ([attend_conn] and
   [read_conn]'s budget exhaustion depend on that re-arm). *)
let test_epoll_edge_rearm () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ep = Rtnet.Epoll.create () in
  Fun.protect
    ~finally:(fun () ->
      Rtnet.Epoll.close ep;
      Unix.close a;
      Unix.close b)
    (fun () ->
      Rtnet.Epoll.add ep a ~read:true ~write:false ~edge:true;
      Alcotest.(check int) "nothing before a write" 0
        (Rtnet.Epoll.wait ep ~timeout_ms:0);
      send b "ping";
      Alcotest.(check int) "written bytes report" 1
        (Rtnet.Epoll.wait ep ~timeout_ms:1000);
      Alcotest.(check bool) "on the registered fd, readable" true
        (Rtnet.Epoll.ready_fd ep 0 = a && Rtnet.Epoll.ready_readable ep 0);
      Alcotest.(check int) "the edge reports once" 0
        (Rtnet.Epoll.wait ep ~timeout_ms:0);
      Rtnet.Epoll.modify ep a ~read:true ~write:false ~edge:true;
      Alcotest.(check int) "MOD re-arms while bytes are unread" 1
        (Rtnet.Epoll.wait ep ~timeout_ms:0))

(* A shard's wake channel: k signals before a wait give one readable
   report, and one drain leaves a 0 ms wait empty. *)
let test_eventfd_wake_coalesces () =
  let ep = Rtnet.Epoll.create () in
  let w = Rtnet.Epoll.eventfd () in
  Fun.protect
    ~finally:(fun () ->
      Rtnet.Epoll.close ep;
      Unix.close w)
    (fun () ->
      Rtnet.Epoll.add ep w ~read:true ~write:false ~edge:false;
      Rtnet.Epoll.drain w;
      Alcotest.(check int) "no wake pending" 0 (Rtnet.Epoll.wait ep ~timeout_ms:0);
      for _ = 1 to 5 do
        Rtnet.Epoll.signal w
      done;
      Alcotest.(check int) "5 signals, one report" 1
        (Rtnet.Epoll.wait ep ~timeout_ms:0);
      Alcotest.(check bool) "the wake fd, readable" true
        (Rtnet.Epoll.ready_fd ep 0 = w && Rtnet.Epoll.ready_readable ep 0);
      Rtnet.Epoll.drain w;
      Alcotest.(check int) "one drain empties it" 0
        (Rtnet.Epoll.wait ep ~timeout_ms:0))

(* ------------------------------------------------------------------ *)
(* Admin plane: /metrics, /stats.json and /healthz served by the same
   fd-colored event machinery as the application traffic. *)

(* One keep-alive HTTP exchange on an already-open socket: send the
   request, read exactly one Content-Length-framed response. Returns
   (status line, whole response). *)
let roundtrip fd req =
  send fd req;
  let buf = Buffer.create 4096 in
  let rec header_end raw i =
    if i + 3 >= String.length raw then None
    else if
      raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
      && raw.[i + 3] = '\n'
    then Some (i + 4)
    else header_end raw (i + 1)
  in
  let content_length raw =
    let lower = String.lowercase_ascii raw in
    let key = "content-length:" in
    let rec find i =
      if i + String.length key > String.length lower then 0
      else if String.sub lower i (String.length key) = key then
        let rec stop j =
          if j < String.length lower && lower.[j] <> '\r' then stop (j + 1)
          else j
        in
        let v = String.trim (String.sub lower (i + String.length key)
                               (stop (i + String.length key) - i - String.length key))
        in
        int_of_string v
      else find (i + 1)
    in
    find 0
  in
  let b = Bytes.create 4096 in
  let rec fill () =
    let raw = Buffer.contents buf in
    let done_ =
      match header_end raw 0 with
      | None -> false
      | Some body_off -> String.length raw - body_off >= content_length raw
    in
    if not done_ then
      match Unix.read fd b 0 4096 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf b 0 n;
        fill ()
      | exception Unix.Unix_error (EINTR, _, _) -> fill ()
  in
  fill ();
  let raw = Buffer.contents buf in
  let status =
    match String.index_opt raw '\r' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  (status, raw)

let admin_body raw =
  let rec header_end i =
    if i + 3 >= String.length raw then String.length raw
    else if
      raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
      && raw.[i + 3] = '\n'
    then i + 4
    else header_end (i + 1)
  in
  let b = header_end 0 in
  String.sub raw b (String.length raw - b)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Prometheus text exposition (0.0.4) lint: every sample line matches
   the sample grammar, each family has exactly one HELP and one TYPE of
   a known kind, and every sample's family has a TYPE. Returns
   (series, value) pairs. *)
let sample_re =
  Str.regexp {|^\([a-zA-Z_:][a-zA-Z0-9_:]*\)\({[^}]*}\)? \([0-9.eE+-]+\|\+Inf\|NaN\)$|}

let lint_exposition body =
  let helps = Hashtbl.create 64 and types = Hashtbl.create 64 in
  let once tbl what fam =
    if Hashtbl.mem tbl fam then Alcotest.failf "duplicate %s for %s" what fam;
    Hashtbl.replace tbl fam ()
  in
  let samples =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "" ] -> None
        | "#" :: "HELP" :: fam :: _ ->
          once helps "HELP" fam;
          None
        | [ "#"; "TYPE"; fam; ("counter" | "gauge" | "histogram") ] ->
          once types "TYPE" fam;
          None
        | _ ->
          if not (Str.string_match sample_re line 0) then
            Alcotest.failf "unparseable exposition line: %S" line;
          let name = Str.matched_group 1 line in
          let labels = try Str.matched_group 2 line with Not_found -> "" in
          Some (name, name ^ labels, float_of_string (Str.matched_group 3 line)))
      (String.split_on_char '\n' body)
  in
  let families t = List.sort compare (Hashtbl.fold (fun fam () acc -> fam :: acc) t []) in
  Alcotest.(check (list string)) "a HELP and a TYPE per family" (families helps) (families types);
  let suffix = Str.regexp "_\\(bucket\\|sum\\|count\\)$" in
  List.map
    (fun (name, series, v) ->
      if not (Hashtbl.mem types (Str.global_replace suffix "" name) || Hashtbl.mem types name)
      then Alcotest.failf "sample %s has no TYPE" series;
      (series, v))
    samples

(* Scrape /metrics and /stats.json while a loadgen runs against 4
   workers and 4 shards, and check every snapshot the dashboards read. *)
let test_admin_endpoints () =
  let workers = 4 and shards = 4 and conns = 8 and requests = 400 in
  with_server ~workers ~shards ~admin_port:0 (fun rt server cache ->
      let load_done = Atomic.make false in
      let loader =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set load_done true)
              (fun () ->
                Rtnet.Loadgen.run ~port:(Rtnet.Server.port server) ~conns ~requests
                  ~pipeline:4 ~client_domains:2 ~close_last:true ~targets:(targets cache) ()))
      in
      let fd = connect (Option.get (Rtnet.Server.admin_port server)) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let fetch path =
            let status, raw = roundtrip fd (get path) in
            Alcotest.(check string) (path ^ " 200") "HTTP/1.1 200 OK" status;
            admin_body raw
          in
          Alcotest.(check bool) "healthz body" true (contains (fetch "/healthz") "ok");
          while Rt.Runtime.executed rt = 0 do
            Domain.cpu_relax ()
          done;
          (* A scrape that returns before [load_done] is set was taken
             mid-run. *)
          let mid_run = ref 0 in
          while not (Atomic.get load_done) do
            let metrics = fetch "/metrics" in
            let samples = lint_exposition metrics in
            let stats = Mstd.Json.parse (fetch "/stats.json") in
            if not (Atomic.get load_done) then incr mid_run;
            let value series =
              match List.assoc_opt series samples with
              | Some v -> v
              | None -> Alcotest.failf "missing %s" series
            in
            let each label n families =
              for i = 0 to n - 1 do
                List.iter (fun f -> ignore (value (Printf.sprintf "%s{%s=\"%d\"}" f label i))) families
              done
            in
            each "worker" workers
              [
                "mely_worker_executed_total";
                "mely_worker_steals_in_total";
                "mely_worker_queue_wait_p50_ns";
                "mely_worker_queue_wait_p99_ns";
              ];
            each "shard" shards
              [
                "mely_net_shard_conns_open";
                "mely_net_shard_reqs_served_total";
                "mely_net_shard_reqs_shed_total";
              ];
            ignore (value "mely_worker_queue_wait_ns_bucket{worker=\"0\",le=\"+Inf\"}");
            Alcotest.(check bool) "executed is a counter" true
              (contains metrics "# TYPE mely_runtime_executed_total counter");
            Alcotest.(check bool) "metrics: executed > 0" true
              (value "mely_runtime_executed_total" > 0.);
            Alcotest.(check (float 0.)) "metrics: accepting" 1. (value "mely_runtime_accepting");
            let open Mstd.Json in
            let runtime = member_exn "runtime" stats and ws = get_list "workers" stats in
            let executed = get_int "executed" runtime in
            Alcotest.(check (list int)) "runtime workers, worker and shard entries"
              [ workers; workers; shards ]
              [ get_int "workers" runtime; List.length ws; List.length (get_list "shards" (member_exn "net" stats)) ];
            Alcotest.(check bool) "stats: executed > 0" true (executed > 0);
            Alcotest.(check bool) "stats: accepting" true (to_bool (member_exn "accepting" runtime));
            List.iter
              (fun w ->
                let qw = member_exn "queue_wait" w in
                Alcotest.(check int) "queue_wait count = sum of buckets" (get_int "count" qw)
                  (List.fold_left (fun acc b -> acc + to_int (List.nth (to_list b) 2)) 0 (get_list "buckets" qw)))
              ws;
            Alcotest.(check bool) "per-worker executed sum <= runtime total" true
              (List.fold_left (fun acc w -> acc + get_int "executed" w) 0 ws <= executed)
          done;
          Alcotest.(check bool) "scraped mid-run" true (!mid_run >= 1);
          Alcotest.(check int) "load ok" (conns * requests) (Domain.join loader).responses_ok;
          let served =
            List.fold_left
              (fun acc s -> acc + Mstd.Json.get_int "served" s)
              0
              (Mstd.Json.get_list "shards" (Mstd.Json.member_exn "net" (Mstd.Json.parse (fetch "/stats.json"))))
          in
          Alcotest.(check bool) "shards served the load" true (served >= conns * requests);
          let status, _ = roundtrip fd (get "/nope") in
          Alcotest.(check string) "unknown admin path is 404" "HTTP/1.1 404 Not Found" status);
      Rtnet.Server.stop server;
      Rt.Runtime.stop rt)

(* /healthz must flip 200 -> 503 across a drain, observed on one
   held-open admin connection: admin conns stay readable through the
   drain grace precisely so a scraper can watch the drain happen. *)
let test_admin_healthz_drain_flip () =
  with_server ~workers:2 ~admin_port:0 (fun rt server _cache ->
      let aport = Option.get (Rtnet.Server.admin_port server) in
      let fd = connect aport in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let status, _ = roundtrip fd (get "/healthz") in
          Alcotest.(check string) "healthz while accepting" "HTTP/1.1 200 OK"
            status;
          let stopper = Domain.spawn (fun () -> Rtnet.Server.stop server) in
          (* Give stop a moment to raise the draining flag. *)
          Unix.sleepf 0.05;
          let status, raw = roundtrip fd (get "/healthz") in
          Alcotest.(check string) "healthz while draining"
            "HTTP/1.1 503 Service Unavailable" status;
          Alcotest.(check bool) "draining body" true (contains raw "draining");
          Alcotest.(check bool) "mid-drain response closes" true
            (contains (String.lowercase_ascii raw) "connection: close");
          Domain.join stopper);
      Rt.Runtime.stop rt)

(* Poll [cond] every 10 ms for up to [secs]; true once it holds. *)
let await ?(secs = 2.0) cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () -. t0 > secs then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let busy_wait secs =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < secs do
    Domain.cpu_relax ()
  done

(* The peer half-closes while its request's event is still running. The
   shard sees EOF with the event in flight, so it cannot close yet; the
   event's end must tell it so, or the fd waits out the idle deadline
   (30 s) with the response already sent. *)
let test_half_close_during_slow_event () =
  let cache_for_app = cache () in
  let app (req : Httpkit.Request.t) =
    busy_wait 0.1;
    Hashtbl.find cache_for_app req.Httpkit.Request.target
  in
  with_server ~workers:2 ~app (fun _rt server cache ->
      let expected = Hashtbl.find cache "/f1.html" in
      let c = connect ~timeout:5.0 (Rtnet.Server.port server) in
      send c (get "/f1.html");
      Unix.sleepf 0.02;
      Unix.shutdown c Unix.SHUTDOWN_SEND;
      let t0 = Unix.gettimeofday () in
      Alcotest.(check string) "the 200 arrives" expected
        (read_n c (String.length expected));
      Alcotest.(check string) "then EOF" "" (read_until_eof c);
      let waited = Unix.gettimeofday () -. t0 in
      Unix.close c;
      Alcotest.(check bool)
        (Printf.sprintf "EOF within 2 s (took %.2f s)" waited)
        true (waited < 2.0);
      Alcotest.(check bool) "closed = accepted before stop" true
        (await (fun () ->
             let s = Rtnet.Server.stats server in
             s.conns_accepted = 1 && s.conns_closed = 1)))

(* A client socket with a small receive buffer, so a large response
   really stalls the server's writes instead of fitting in the kernel's
   buffers. *)
let connect_small_rcvbuf port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int fd Unix.SO_RCVBUF 16_384;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let big_response =
  Httpkit.Response.build ~content_type:"application/octet-stream"
    ~body:(String.init (4 * 1024 * 1024) (fun i -> Char.chr (97 + (i * 7 mod 26))))
    ()

let big_app cache_for_app (req : Httpkit.Request.t) =
  if req.Httpkit.Request.target = "/big" then big_response
  else Hashtbl.find cache_for_app req.Httpkit.Request.target

(* A reader that pauses: 300 ms of reading nothing with a 4 MB response
   pending, then it drains. The stalled write must resume on the
   writable edge, byte-exact, and the connection keeps serving. *)
let test_slow_reader_drains () =
  with_server ~workers:2 ~app:(big_app (cache ())) (fun _rt server cache ->
      let small = Hashtbl.find cache "/f3.html" in
      let c = connect_small_rcvbuf (Rtnet.Server.port server) in
      send c (get "/big");
      Unix.sleepf 0.3;
      let got = read_n c (String.length big_response) in
      Alcotest.(check int) "whole response" (String.length big_response)
        (String.length got);
      Alcotest.(check bool) "byte-exact" true (String.equal big_response got);
      send c (get "/f3.html");
      Alcotest.(check string) "keeps serving" small
        (read_n c (String.length small));
      Unix.close c;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "served" 2 s.reqs_served;
      Alcotest.(check int) "accepted = closed" s.conns_accepted s.conns_closed;
      Alcotest.(check int) "none failed" 0 s.conns_failed;
      Alcotest.(check int) "none evicted" 0 s.conns_evicted)

(* A reader that never reads: once its output has made no progress for
   [write_deadline] the connection is evicted and closed. The short
   header deadline dates from when the wheel first visited a connection
   only at it; the case after this one runs with the default. *)
let test_stalled_reader_evicted () =
  let overload =
    {
      Rtnet.Server.default_overload with
      Rtnet.Server.header_deadline = 0.5;
      write_deadline = 0.3;
    }
  in
  with_server ~workers:2 ~overload ~app:(big_app (cache ()))
    (fun _rt server _cache ->
      let c = connect_small_rcvbuf (Rtnet.Server.port server) in
      send c (get "/big");
      Alcotest.(check bool) "evicted and closed within 3 s" true
        (await ~secs:3.0 (fun () ->
             let s = Rtnet.Server.stats server in
             s.conns_evicted = 1 && s.conns_closed = 1));
      Unix.close c;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "accepted = closed" s.conns_accepted s.conns_closed;
      Alcotest.(check int) "dropped as failed" 1 s.conns_failed;
      Alcotest.(check int) "parsed = served" s.reqs_parsed s.reqs_served)

(* The same reader under the default header deadline (10 s): the wheel
   visits a connection at least once per write deadline, so the stall
   is seen and evicted within two write deadlines, not at the header
   or idle deadline. *)
let test_stalled_reader_evicted_by_write_deadline () =
  let overload =
    { Rtnet.Server.default_overload with Rtnet.Server.write_deadline = 0.3 }
  in
  with_server ~workers:2 ~overload ~app:(big_app (cache ()))
    (fun _rt server _cache ->
      let c = connect_small_rcvbuf (Rtnet.Server.port server) in
      let t0 = Unix.gettimeofday () in
      send c (get "/big");
      let evicted =
        await ~secs:2.0 (fun () ->
            let s = Rtnet.Server.stats server in
            s.conns_evicted = 1 && s.conns_closed = 1)
      in
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "evicted and closed within 2 s (took %.2f s)" waited)
        true evicted;
      Unix.close c;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "accepted = closed" s.conns_accepted s.conns_closed;
      Alcotest.(check int) "dropped as failed" 1 s.conns_failed)

let suite =
  [
    Alcotest.test_case "e2e: 5k pipelined torn requests, 4 workers" `Slow
      test_e2e_pipelined;
    Alcotest.test_case
      "sharded: per-shard conservation under torn concurrent load" `Quick
      test_sharded_conservation;
    Alcotest.test_case "epoll: an edge reports once, MOD re-arms" `Quick
      test_epoll_edge_rearm;
    Alcotest.test_case "lifecycle: server drain under traffic + fd conservation"
      `Quick test_server_stop_under_traffic;
    Alcotest.test_case "lifecycle: runtime stop under traffic" `Quick
      test_runtime_stop_under_traffic;
    Alcotest.test_case "containment: raising handler closes only its connection"
      `Quick test_raising_handler_contained;
    Alcotest.test_case "containment: malformed request closes only its connection"
      `Quick test_malformed_contained;
    Alcotest.test_case "HEAD serves headers only" `Quick test_head_headers_only;
    Alcotest.test_case "accept cap delays the second client" `Quick
      test_max_clients_cap;
    Alcotest.test_case "admin: /metrics, /stats.json, /healthz, 404" `Quick
      test_admin_endpoints;
    Alcotest.test_case "admin: /healthz flips 200 -> 503 across drain" `Quick
      test_admin_healthz_drain_flip;
    Alcotest.test_case "epoll: eventfd wakes coalesce, one drain empties"
      `Quick test_eventfd_wake_coalesces;
    Alcotest.test_case "containment: a 500 ends a pipelined connection"
      `Quick test_pipelined_500_closes;
    Alcotest.test_case "close: a half-close during a slow event closes promptly"
      `Quick test_half_close_during_slow_event;
    Alcotest.test_case "write stall: a pausing reader gets 4 MB byte-exact"
      `Quick test_slow_reader_drains;
    Alcotest.test_case "write stall: a reader that never reads is evicted"
      `Quick test_stalled_reader_evicted;
    Alcotest.test_case
      "write stall: eviction follows the write deadline, not the header one"
      `Quick test_stalled_reader_evicted_by_write_deadline;
  ]
