(* Overload armor + fault plane tests: deterministic fault schedules,
   the 503/431/408 status paths, slow-loris eviction, idle reaping,
   EMFILE accept recovery, and a miniature chaos run asserting the
   conservation invariants under injected syscall faults. *)

let site = Rtnet.Loadgen.default_site ~files:8 ~file_bytes:1024 ()
let cache () = Httpkit.Response.prebuild_cache ~files:site

let targets cache =
  List.map (fun (path, _) -> (path, Hashtbl.find cache path)) site

(* Armor responses (must stay in sync with lib/rtnet/server.ml). *)
let resp_408 =
  Httpkit.Response.build ~status:Httpkit.Response.Request_timeout
    ~keep_alive:false ~body:"request timeout" ()

let resp_431 =
  Httpkit.Response.build ~status:Httpkit.Response.Header_fields_too_large
    ~keep_alive:false ~body:"request header fields too large" ()

let resp_503 =
  Httpkit.Response.build ~status:Httpkit.Response.Service_unavailable
    ~keep_alive:false ~body:"service unavailable" ()

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
      | exception Unix.Unix_error (_, _, _) -> Bytes.sub_string buf 0 off
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

let with_server ?(workers = 2) ?trace ?shards ?max_request_bytes ?overload
    ?faults ?admin_port body =
  let rt = Rt.Runtime.create ~workers ?trace () in
  let cache = cache () in
  Rt.Runtime.start rt;
  let server =
    Rtnet.Server.create ~rt ?shards ?max_request_bytes ?overload ?faults
      ?admin_port ~cache ~port:0 ()
  in
  Rtnet.Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Rtnet.Server.stop server;
      if Rt.Runtime.is_serving rt then Rt.Runtime.stop rt)
    (fun () -> body rt server cache)

(* ------------------------------------------------------------------ *)
(* The fault schedule itself. *)

let draw_schedule seed n =
  let f = Rt.Faults.seeded ~plan:Rt.Faults.hostile_plan seed in
  let per_site =
    List.map
      (fun site -> (site, List.init n (fun _ -> Rt.Faults.decide f site)))
      Rt.Faults.all_sites
  in
  (f, per_site)

let test_fault_determinism () =
  let n = 300 in
  let f1, s1 = draw_schedule 42 n in
  let f2, s2 = draw_schedule 42 n in
  Alcotest.(check bool) "same seed, identical schedule" true (s1 = s2);
  Alcotest.(check int) "same seed, identical injected count"
    (Rt.Faults.injected f1) (Rt.Faults.injected f2);
  let _, s3 = draw_schedule 43 n in
  Alcotest.(check bool) "different seed, different schedule" true (s1 <> s3);
  (* Per-site tallies account for every decision. *)
  List.iter
    (fun site ->
      let c = Rt.Faults.counts f1 site in
      Alcotest.(check int)
        (Printf.sprintf "%s tallies conserve" (Rt.Faults.site_name site))
        n
        (c.Rt.Faults.passes + c.Rt.Faults.errnos + c.Rt.Faults.torn
       + c.Rt.Faults.delays))
    Rt.Faults.all_sites;
  (* A hostile schedule actually injects something in 300 draws. *)
  Alcotest.(check bool) "hostile schedule injects" true (Rt.Faults.injected f1 > 0)

let test_passthrough_inert () =
  let f = Rt.Faults.passthrough in
  Alcotest.(check bool) "not active" false (Rt.Faults.is_active f);
  for _ = 1 to 100 do
    List.iter
      (fun site ->
        match Rt.Faults.decide f site with
        | Rt.Faults.Pass -> ()
        | _ -> Alcotest.fail "passthrough injected a fault")
      Rt.Faults.all_sites
  done;
  Alcotest.(check int) "nothing injected" 0 (Rt.Faults.injected f)

(* ------------------------------------------------------------------ *)
(* The timer wheel. *)

let test_wheel_fires () =
  let w = Rtnet.Wheel.create ~granularity_ns:10L ~now:0L () in
  Rtnet.Wheel.schedule w 1 ~at:25L;
  Rtnet.Wheel.schedule w 2 ~at:95L;
  (* Far future: more than one revolution (128 slots x 10ns) away. *)
  Rtnet.Wheel.schedule w 3 ~at:100_000L;
  let fired = ref [] in
  let fire k = fired := k :: !fired in
  Rtnet.Wheel.advance w ~now:30L ~fire;
  Alcotest.(check (list int)) "only the due entry" [ 1 ] !fired;
  Rtnet.Wheel.advance w ~now:200L ~fire;
  Alcotest.(check (list int)) "second entry later" [ 2; 1 ] !fired;
  Alcotest.(check int) "far entry still pending" 1 (Rtnet.Wheel.pending w);
  Rtnet.Wheel.advance w ~now:100_100L ~fire;
  Alcotest.(check (list int)) "far entry eventually fires" [ 3; 2; 1 ] !fired;
  Alcotest.(check int) "drained" 0 (Rtnet.Wheel.pending w)

(* Regression: an entry scheduled at or behind the cursor's tick used
   to land in a slot the cursor had already passed this lap, firing one
   whole revolution (slots x granularity) late. It must fire on the
   very next advance instead. *)
let test_wheel_same_lap () =
  let w = Rtnet.Wheel.create ~granularity_ns:10L ~now:1_000L () in
  (* Move the cursor into the middle of the lap first. *)
  Rtnet.Wheel.advance w ~now:1_500L ~fire:(fun _ -> ());
  (* Deadline already in the past, and one exactly at the cursor. *)
  Rtnet.Wheel.schedule w 1 ~at:1_200L;
  Rtnet.Wheel.schedule w 2 ~at:1_500L;
  Alcotest.(check int) "both pending" 2 (Rtnet.Wheel.pending w);
  let fired = ref [] in
  Rtnet.Wheel.advance w ~now:1_510L ~fire:(fun k -> fired := k :: !fired);
  Alcotest.(check bool) "overdue entries fire on the next advance" true
    (List.sort compare !fired = [ 1; 2 ]);
  Alcotest.(check int) "nothing left over" 0 (Rtnet.Wheel.pending w);
  (* Rescheduling an overdue key ahead moves it out of the overdue set. *)
  Rtnet.Wheel.schedule w 7 ~at:1_000L;
  Rtnet.Wheel.schedule w 7 ~at:2_000L;
  Alcotest.(check int) "one pending after reschedule" 1 (Rtnet.Wheel.pending w);
  let fired2 = ref [] in
  Rtnet.Wheel.advance w ~now:1_900L ~fire:(fun k -> fired2 := k :: !fired2);
  Alcotest.(check (list int)) "not early" [] !fired2;
  Rtnet.Wheel.advance w ~now:2_010L ~fire:(fun k -> fired2 := k :: !fired2);
  Alcotest.(check (list int)) "fires at the rescheduled deadline" [ 7 ] !fired2;
  Alcotest.(check int) "drained" 0 (Rtnet.Wheel.pending w)

(* An entry of the current tick that is not yet due when [advance] walks
   its bucket must fire on the first advance past its deadline, not one
   revolution (128 x 50 ms = 6.4 s) later. Every header, idle and write
   deadline runs through this path. *)
let test_wheel_current_tick () =
  let ms n = Int64.mul (Int64.of_int n) 1_000_000L in
  let w = Rtnet.Wheel.create ~granularity_ns:(ms 50) ~now:0L () in
  Rtnet.Wheel.schedule w 1 ~at:(ms 120);
  let fired = ref [] in
  List.iter
    (fun n ->
      Rtnet.Wheel.advance w ~now:(ms n) ~fire:(fun k -> fired := (n, k) :: !fired))
    [ 110; 130; 200; 1000 ];
  Alcotest.(check (list (pair int int)))
    "fires at the first advance past its deadline" [ (130, 1) ] !fired;
  Alcotest.(check int) "drained" 0 (Rtnet.Wheel.pending w)

(* ------------------------------------------------------------------ *)
(* Status paths. *)

(* shed_pending_hwm = 0: every parsed request is shed with a 503 and
   the connection closes; conservation counts it as shed, not served. *)
let test_shed_503 () =
  let overload = { Rtnet.Server.default_overload with shed_pending_hwm = 0 } in
  with_server ~overload (fun rt server _cache ->
      let c = connect (Rtnet.Server.port server) in
      send c (get "/f0.html");
      Alcotest.(check string) "503 served" resp_503
        (read_n c (String.length resp_503));
      Alcotest.(check string) "then closed" "" (read_until_eof c);
      Unix.close c;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "parsed" 1 s.reqs_parsed;
      Alcotest.(check int) "shed" 1 s.reqs_shed;
      Alcotest.(check int) "not served" 0 s.reqs_served;
      Alcotest.(check int) "conservation" s.reqs_parsed
        (s.reqs_served + s.reqs_failed + s.reqs_shed);
      let sheds =
        Array.fold_left
          (fun a (w : Rt.Telemetry.worker_snap) -> a + w.w_metrics.sheds)
          0 (Rt.Runtime.telemetry_snapshot rt).s_workers
      in
      Alcotest.(check int) "metrics counted the shed" 1 sheds)

(* The shed budget is counted in requests, and one read event answers
   every request its bytes complete: with a budget of 4, one write of 8
   pipelined GETs gets 4 byte-exact 200s, one 503 and a close, all from
   the one read event (fewer than 5 runtime events in all). *)
let test_shed_budget_pipelined () =
  let overload = { Rtnet.Server.default_overload with shed_pending_hwm = 4 } in
  with_server ~overload (fun rt server cache ->
      let c = connect (Rtnet.Server.port server) in
      let paths = List.init 8 (Printf.sprintf "/f%d.html") in
      send c (String.concat "" (List.map get paths));
      List.iteri
        (fun i path ->
          if i < 4 then begin
            let expected = Hashtbl.find cache path in
            Alcotest.(check string)
              (Printf.sprintf "response %d byte-exact" i)
              expected
              (read_n c (String.length expected))
          end)
        paths;
      Alcotest.(check string) "then the 503" resp_503
        (read_n c (String.length resp_503));
      Alcotest.(check string) "then closed" "" (read_until_eof c);
      Unix.close c;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "parsed" 5 s.reqs_parsed;
      Alcotest.(check int) "served" 4 s.reqs_served;
      Alcotest.(check int) "shed" 1 s.reqs_shed;
      let executed = Rt.Runtime.executed rt in
      Alcotest.(check bool)
        (Printf.sprintf "fewer than 5 runtime events (got %d)" executed)
        true (executed < 5))

(* A header block over max_request_bytes gets a 431 and a close —
   whether or not the terminator ever arrives. *)
let test_too_large_431 () =
  with_server ~max_request_bytes:256 (fun _rt server cache ->
      let port = Rtnet.Server.port server in
      let victim = connect port in
      send victim ("GET / HTTP/1.1\r\nX-Big: " ^ String.make 1024 'x');
      Alcotest.(check string) "431 served" resp_431
        (read_n victim (String.length resp_431));
      Alcotest.(check string) "then closed" "" (read_until_eof victim);
      Unix.close victim;
      (* A well-formed sibling still serves. *)
      let sibling = connect port in
      let expected = Hashtbl.find cache "/f1.html" in
      send sibling (get "/f1.html");
      Alcotest.(check string) "sibling fine" expected
        (read_n sibling (String.length expected));
      Unix.close sibling;
      let s = Rtnet.Server.stats server in
      Alcotest.(check int) "too_large counted" 1 s.reqs_too_large;
      Alcotest.(check int) "no malformed" 0 s.reqs_malformed)

(* Slow loris: a connection that trickles a never-ending header is
   evicted with a 408 while a well-behaved sibling keeps serving. *)
let test_slow_loris_408 () =
  let overload =
    { Rtnet.Server.default_overload with header_deadline = 0.3 }
  in
  with_server ~overload (fun rt server cache ->
      let port = Rtnet.Server.port server in
      let loris = connect ~timeout:8.0 port in
      send loris "GET /f0.html HTT";
      (* Meanwhile a sibling does real work. *)
      let sibling = connect port in
      let expected = Hashtbl.find cache "/f2.html" in
      for _ = 1 to 5 do
        send sibling (get "/f2.html");
        Alcotest.(check string) "sibling serves under attack" expected
          (read_n sibling (String.length expected))
      done;
      Unix.close sibling;
      (* The loris is told off and cut. *)
      Alcotest.(check string) "loris gets the 408" resp_408
        (read_n loris (String.length resp_408));
      Alcotest.(check string) "loris closed" "" (read_until_eof loris);
      Unix.close loris;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check bool) "eviction counted" true (s.conns_evicted >= 1);
      Alcotest.(check int) "accepted = closed" s.conns_accepted s.conns_closed;
      let evictions =
        Array.fold_left
          (fun a (w : Rt.Telemetry.worker_snap) -> a + w.w_metrics.evictions)
          0 (Rt.Runtime.telemetry_snapshot rt).s_workers
      in
      Alcotest.(check bool) "metrics counted the eviction" true (evictions >= 1))

(* An idle keep-alive connection is closed quietly after the idle
   deadline: full response first, then EOF, no extra bytes. *)
let test_idle_close () =
  let overload =
    {
      Rtnet.Server.default_overload with
      header_deadline = 0.3;
      idle_deadline = 0.3;
    }
  in
  with_server ~overload (fun _rt server cache ->
      let c = connect ~timeout:8.0 (Rtnet.Server.port server) in
      let expected = Hashtbl.find cache "/f3.html" in
      send c (get "/f3.html");
      Alcotest.(check string) "served first" expected
        (read_n c (String.length expected));
      (* Now sit idle: the armor closes us, quietly. *)
      Alcotest.(check string) "quiet close, no extra bytes" "" (read_until_eof c);
      Unix.close c;
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check bool) "eviction counted" true (s.conns_evicted >= 1);
      Alcotest.(check int) "served stays clean" 1 s.reqs_served;
      Alcotest.(check int) "accepted = closed" s.conns_accepted s.conns_closed)

(* Every accept fails with EMFILE until the test calms the plan. *)
let starved =
  {
    Rt.Faults.calm_plan with
    accept = { Rt.Faults.calm with errnos = [ (Unix.EMFILE, 1.0) ] };
  }

(* EMFILE on accept: the acceptor backs off (counted) instead of
   hot-looping, and recovers as soon as descriptors free up (here:
   the fault plan calms down). *)
let test_emfile_recovery () =
  let faults = Rt.Faults.seeded ~plan:starved 7 in
  with_server ~faults (fun _rt server cache ->
      let port = Rtnet.Server.port server in
      (* The TCP handshake completes via the listen backlog even while
         every accept fails; service only starts after recovery. *)
      let c = connect ~timeout:10.0 port in
      send c (get "/f4.html");
      Unix.sleepf 0.4;
      Rt.Faults.set_plan faults Rt.Faults.calm_plan;
      let expected = Hashtbl.find cache "/f4.html" in
      Alcotest.(check string) "served after recovery" expected
        (read_n c (String.length expected));
      Unix.close c;
      let s = Rtnet.Server.stats server in
      Alcotest.(check bool) "accept errors counted" true (s.accept_errors >= 1);
      Alcotest.(check bool) "backoffs counted" true (s.accept_backoffs >= 1))

(* The admin listener shares the acceptor's backoff window: fd pressure
   is process-wide, so a pending admin connection under EMFILE must not
   spin the acceptor through failed accepts at poller speed either. The
   scrape is answered once the plan calms down. *)
let test_admin_emfile_backoff () =
  let faults = Rt.Faults.seeded ~plan:starved 7 in
  with_server ~faults ~admin_port:0 (fun _rt server _cache ->
      let c = connect (Option.get (Rtnet.Server.admin_port server)) in
      send c (get "/healthz");
      Unix.sleepf 0.4;
      let errors = (Rtnet.Server.stats server).accept_errors in
      Alcotest.(check bool)
        (Printf.sprintf "accept errors in 1..20 (got %d)" errors)
        true
        (errors >= 1 && errors <= 20);
      Rt.Faults.set_plan faults Rt.Faults.calm_plan;
      let expected =
        Httpkit.Response.build ~content_type:"text/plain" ~keep_alive:true
          ~body:"ok\n" ()
      in
      Alcotest.(check string) "served after recovery" expected
        (read_n c (String.length expected));
      Unix.close c)

(* Miniature chaos run: hostile fault schedule on every syscall site,
   real load, and the books must still balance — no response-byte
   mismatches, conns accepted = closed, parsed = served+failed+shed,
   and a clean flight-recorder replay. *)
let test_mini_chaos_conservation () =
  let faults = Rt.Faults.seeded ~plan:Rt.Faults.hostile_plan 42 in
  with_server ~workers:2 ~shards:2 ~trace:Rt.Trace.default_config ~faults
    (fun rt server cache ->
      let r =
        Rtnet.Loadgen.run ~port:(Rtnet.Server.port server) ~conns:6 ~requests:40
          ~pipeline:4 ~torn_every:5 ~client_domains:2 ~timeout:15.0
          ~targets:(targets cache) ()
      in
      Alcotest.(check int) "no mismatches under chaos" 0 r.mismatches;
      Alcotest.(check bool) "some responses got through" true (r.responses_ok > 0);
      Rtnet.Server.stop server;
      let s = Rtnet.Server.stats server in
      Alcotest.(check bool) "faults actually injected" true (s.faults_injected > 0);
      Alcotest.(check int) "accepted = closed" s.conns_accepted s.conns_closed;
      Alcotest.(check int) "parsed = served + failed + shed" s.reqs_parsed
        (s.reqs_served + s.reqs_failed + s.reqs_shed);
      (* The identities hold on each shard even under injected faults. *)
      Array.iteri
        (fun i (ss : Rtnet.Server.stats) ->
          Alcotest.(check int)
            (Printf.sprintf "shard %d: accepted = closed" i)
            ss.conns_accepted ss.conns_closed;
          Alcotest.(check int)
            (Printf.sprintf "shard %d: parsed = served + failed + shed" i)
            ss.reqs_parsed
            (ss.reqs_served + ss.reqs_failed + ss.reqs_shed))
        (Rtnet.Server.shard_stats server);
      Alcotest.(check int) "fd slices stayed disjoint under chaos" 0
        (Rtnet.Server.ownership_violations server);
      Rt.Runtime.stop rt;
      Alcotest.(check int) "mutual exclusion held" 1
        (Rt.Runtime.max_concurrent_same_color rt);
      let tr = Option.get (Rt.Runtime.trace rt) in
      Alcotest.(check bool) "replay: mutual exclusion" true
        (Rt.Trace.check_mutual_exclusion tr = None);
      Alcotest.(check bool) "replay: per-color FIFO" true
        (Rt.Trace.check_fifo_per_color tr = None))

let suite =
  [
    Alcotest.test_case "fault schedule is deterministic per seed" `Quick
      test_fault_determinism;
    Alcotest.test_case "passthrough injects nothing" `Quick test_passthrough_inert;
    Alcotest.test_case "timer wheel fires due entries only" `Quick test_wheel_fires;
    Alcotest.test_case "timer wheel: same-lap deadline fires without a revolution"
      `Quick test_wheel_same_lap;
    Alcotest.test_case "overload: 503 shed at the high-water mark" `Quick
      test_shed_503;
    Alcotest.test_case "overload: 431 on oversized header block" `Quick
      test_too_large_431;
    Alcotest.test_case "overload: slow loris evicted with 408" `Quick
      test_slow_loris_408;
    Alcotest.test_case "overload: idle keep-alive closed quietly" `Quick
      test_idle_close;
    Alcotest.test_case "accept: EMFILE backoff and recovery" `Quick
      test_emfile_recovery;
    Alcotest.test_case "accept: EMFILE backoff covers the admin listener" `Quick
      test_admin_emfile_backoff;
    Alcotest.test_case "chaos: conservation under a hostile fault schedule" `Slow
      test_mini_chaos_conservation;
    Alcotest.test_case "timer wheel: a not-yet-due entry of the current tick fires on time"
      `Quick test_wheel_current_tick;
    Alcotest.test_case "overload: shed budget counts requests in one read event"
      `Quick test_shed_budget_pipelined;
  ]
