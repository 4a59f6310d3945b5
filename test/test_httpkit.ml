(* HTTP request parser tests. *)

let ok = function
  | Ok v -> v
  | Error Httpkit.Request.Incomplete -> Alcotest.fail "unexpected Incomplete"
  | Error (Httpkit.Request.Malformed m) -> Alcotest.failf "unexpected Malformed: %s" m
  | Error (Httpkit.Request.Too_large l) -> Alcotest.failf "unexpected Too_large %d" l

let test_parse_simple_get () =
  let req, consumed = ok (Httpkit.Request.parse "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n") in
  Alcotest.(check string) "method" "GET" (Httpkit.Request.method_to_string req.meth);
  Alcotest.(check string) "target" "/index.html" req.Httpkit.Request.target;
  Alcotest.(check bool) "version" true (req.Httpkit.Request.version = (1, 1));
  Alcotest.(check (option string)) "host" (Some "x") (Httpkit.Request.header req "Host");
  Alcotest.(check int) "consumed" 37 consumed

let test_parse_headers () =
  let req, _ =
    ok
      (Httpkit.Request.parse
         "GET / HTTP/1.0\r\nContent-Type: text/html\r\nX-Thing:  padded value \r\n\r\n")
  in
  Alcotest.(check (option string)) "case-insensitive" (Some "text/html")
    (Httpkit.Request.header req "content-TYPE");
  Alcotest.(check (option string)) "trimmed" (Some "padded value")
    (Httpkit.Request.header req "x-thing");
  Alcotest.(check (option string)) "absent" None (Httpkit.Request.header req "missing")

let test_keep_alive () =
  let ka s =
    let req, _ = ok (Httpkit.Request.parse s) in
    Httpkit.Request.keep_alive req
  in
  Alcotest.(check bool) "1.1 default" true (ka "GET / HTTP/1.1\r\n\r\n");
  Alcotest.(check bool) "1.1 close" false (ka "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  Alcotest.(check bool) "1.0 default" false (ka "GET / HTTP/1.0\r\n\r\n");
  Alcotest.(check bool) "1.0 keep-alive" true
    (ka "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")

let test_incomplete () =
  (match Httpkit.Request.parse "GET / HTTP/1.1\r\nHost: x\r\n" with
  | Error Httpkit.Request.Incomplete -> ()
  | _ -> Alcotest.fail "expected Incomplete");
  match Httpkit.Request.parse "" with
  | Error Httpkit.Request.Incomplete -> ()
  | _ -> Alcotest.fail "expected Incomplete for empty input"

let test_malformed () =
  let malformed s =
    match Httpkit.Request.parse s with
    | Error (Httpkit.Request.Malformed _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad version" true (malformed "GET / HTTP/2.7\r\n\r\n");
  Alcotest.(check bool) "no target" true (malformed "GET\r\n\r\n");
  Alcotest.(check bool) "bad header" true (malformed "GET / HTTP/1.1\r\nnocolon\r\n\r\n")

let test_limit () =
  let big = "GET / HTTP/1.1\r\nX-Big: " ^ String.make 200 'x' ^ "\r\n\r\n" in
  (match Httpkit.Request.parse ~limit:64 big with
  | Error (Httpkit.Request.Too_large 64) -> ()
  | _ -> Alcotest.fail "expected Too_large for terminated oversize header");
  (* No terminator yet but already past the limit: Too_large, not
     Incomplete — more bytes cannot help, so the server can 431 now
     instead of buffering an attacker's stream. *)
  (match Httpkit.Request.parse ~limit:8 "GET / HTTP/1.1\r\nHost: x\r\n" with
  | Error (Httpkit.Request.Too_large _) -> ()
  | _ -> Alcotest.fail "expected Too_large for unterminated oversize prefix");
  match Httpkit.Request.parse ~limit:4096 "GET / HTTP/1.1\r\nHost: x\r\n\r\n" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "parse under limit failed"

let test_other_method () =
  let req, _ = ok (Httpkit.Request.parse "PATCH /x HTTP/1.1\r\n\r\n") in
  Alcotest.(check string) "other" "PATCH" (Httpkit.Request.method_to_string req.meth)

let test_bare_lf () =
  let req, consumed = ok (Httpkit.Request.parse "GET / HTTP/1.1\nHost: y\n\n") in
  Alcotest.(check (option string)) "lf-tolerant" (Some "y") (Httpkit.Request.header req "host");
  Alcotest.(check int) "consumed lf form" 24 consumed

let test_pipelined_offset () =
  (* Two requests back to back: consumed points at the second. *)
  let buf = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n" in
  let req1, consumed = ok (Httpkit.Request.parse buf) in
  Alcotest.(check string) "first" "/a" req1.Httpkit.Request.target;
  let rest = String.sub buf consumed (String.length buf - consumed) in
  let req2, _ = ok (Httpkit.Request.parse rest) in
  Alcotest.(check string) "second" "/b" req2.Httpkit.Request.target

let test_head_request () =
  let req, consumed = ok (Httpkit.Request.parse "HEAD /f0.html HTTP/1.1\r\nHost: x\r\n\r\n") in
  Alcotest.(check bool) "meth" true (req.Httpkit.Request.meth = Httpkit.Request.HEAD);
  Alcotest.(check string) "target" "/f0.html" req.Httpkit.Request.target;
  Alcotest.(check bool) "keep-alive" true (Httpkit.Request.keep_alive req);
  Alcotest.(check int) "consumed" 35 consumed

(* A pipelined stream split at *every* byte boundary: the prefix up to
   the first request's end parses Incomplete strictly before the
   boundary, then yields an identical (request, consumed) pair at and
   after it. This is exactly the contract the rtnet read loop relies
   on when TCP tears requests across reads. *)
let test_split_every_boundary () =
  let stream =
    "GET /a/b.html HTTP/1.1\r\nHost: mely\r\nX-Pad: zzzz\r\n\r\n"
    ^ "HEAD /c HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    ^ "GET /d HTTP/1.1\r\nConnection: close\r\n\r\n"
  in
  let whole = ok (Httpkit.Request.parse stream) in
  let _, consumed1 = whole in
  for cut = 0 to String.length stream do
    let prefix = String.sub stream 0 cut in
    match Httpkit.Request.parse prefix with
    | Error Httpkit.Request.Incomplete ->
      if cut >= consumed1 then
        Alcotest.failf "cut=%d >= consumed=%d but still Incomplete" cut consumed1
    | Error (Httpkit.Request.Malformed m) ->
      Alcotest.failf "cut=%d: unexpected Malformed: %s" cut m
    | Error (Httpkit.Request.Too_large l) ->
      Alcotest.failf "cut=%d: unexpected Too_large %d" cut l
    | Ok (req, consumed) ->
      if cut < consumed1 then
        Alcotest.failf "cut=%d < consumed=%d but parsed" cut consumed1;
      Alcotest.(check int) "same consumed" consumed1 consumed;
      Alcotest.(check bool) "same request" true (req = fst whole)
  done;
  (* Walk the full stream request by request; each must parse whole. *)
  let rec drain off count =
    if off >= String.length stream then count
    else
      let rest = String.sub stream off (String.length stream - off) in
      let _, c = ok (Httpkit.Request.parse rest) in
      drain (off + c) (count + 1)
  in
  Alcotest.(check int) "three requests in stream" 3 (drain 0 0)

(* The [?scan_from] resume hint must never change the result as long as
   the hint is valid (i.e. no terminator ends before it). The rtnet
   loop passes the previous buffer length after each Incomplete. *)
let prop_scan_hint_equivalent =
  QCheck.Test.make ~name:"scan_from hint never changes the parse" ~count:300
    QCheck.(pair (string_gen_of_size (Gen.int_range 0 20) Gen.printable) small_nat)
    (fun (pad, n) ->
      let clean =
        String.map (fun c -> if c = ' ' || c = '\r' || c = '\n' || c = ':' then '_' else c) pad
      in
      let raw =
        Printf.sprintf "GET /%s HTTP/1.1\r\nHost: h\r\nX-Pad: %s\r\n\r\n" clean clean
      in
      (* Simulate incremental arrival: feed byte-by-byte, resuming the
         terminator scan from the previous length each time. *)
      let hinted = ref None in
      let prev = ref 0 in
      (try
         for len = 1 to String.length raw do
           let prefix = String.sub raw 0 len in
           match Httpkit.Request.parse ~scan_from:!prev prefix with
           | Error Httpkit.Request.Incomplete -> prev := len
           | other ->
             hinted := Some other;
             raise Exit
         done
       with Exit -> ());
      let hint = min (n mod (String.length raw + 1)) (String.length raw) in
      let direct = Httpkit.Request.parse raw in
      !hinted = Some direct
      (* Any hint strictly below the terminator end is also valid
         (at the end itself the terminator has already ended, which the
         resume contract forbids). *)
      && (hint >= (match direct with Ok (_, c) -> c | Error _ -> 0)
          || Httpkit.Request.parse ~scan_from:hint raw = direct))

let prop_garbage_is_malformed =
  (* Garbage with a guaranteed terminator either fails Malformed or
     parses; it must never raise and never report Incomplete. *)
  QCheck.Test.make ~name:"terminated garbage never raises nor stalls" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 64) (Gen.char_range '\000' '\255'))
    (fun s ->
      let buf = s ^ "\r\n\r\n" in
      match Httpkit.Request.parse buf with
      | Error (Httpkit.Request.Malformed _) | Ok _ -> true
      | Error (Httpkit.Request.Too_large _) | Error Httpkit.Request.Incomplete -> false)

let prop_never_raises =
  QCheck.Test.make ~name:"parser never raises" ~count:500 QCheck.string (fun s ->
      match Httpkit.Request.parse s with
      | Ok _
      | Error Httpkit.Request.Incomplete
      | Error (Httpkit.Request.Malformed _)
      | Error (Httpkit.Request.Too_large _) -> true)

let prop_roundtrip =
  QCheck.Test.make ~name:"rendered requests parse back" ~count:200
    QCheck.(pair (string_gen_of_size (Gen.return 8) Gen.printable) small_nat)
    (fun (name, n) ->
      let clean =
        String.map (fun c -> if c = ' ' || c = '\r' || c = '\n' || c = ':' then '_' else c) name
      in
      let raw =
        Printf.sprintf "GET /%s%d HTTP/1.1\r\nHost: test\r\n\r\n" clean n
      in
      match Httpkit.Request.parse raw with
      | Ok (req, consumed) ->
        req.Httpkit.Request.target = Printf.sprintf "/%s%d" clean n
        && consumed = String.length raw
      | Error _ -> false)

(* Response building. [ref_build] is the two-copy [Buffer] builder
   that [Httpkit.Response.build] replaced, kept as the oracle for its
   bytes. *)
let ref_build ?(status = Httpkit.Response.OK) ?(content_type = "text/html")
    ?(keep_alive = true) ?(extra_headers = []) ~body () =
  let open Httpkit.Response in
  let buf = Buffer.create (String.length body + 128) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" (status_code status) (status_reason status));
  Buffer.add_string buf (Printf.sprintf "Content-Type: %s\r\n" content_type);
  Buffer.add_string buf (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  Buffer.add_string buf
    (Printf.sprintf "Connection: %s\r\n" (if keep_alive then "keep-alive" else "close"));
  List.iter
    (fun (name, value) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" name value))
    extra_headers;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  Buffer.contents buf

let all_statuses =
  Httpkit.Response.
    [
      OK;
      Not_found;
      Bad_request;
      Internal_error;
      Request_timeout;
      Header_fields_too_large;
      Service_unavailable;
    ]

(* Header values up to 200 characters, so with three extra headers the
   header block runs well past the 128 bytes the old builder reserved
   beyond the body. *)
let prop_build_matches_reference =
  let open QCheck.Gen in
  let token = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  let value = string_size ~gen:printable (int_range 0 200) in
  let gen =
    map
      (fun ((status, keep_alive, content_type), (extra_headers, body)) ->
        (status, keep_alive, content_type, extra_headers, body))
      (pair
         (triple (oneofl all_statuses) bool
            (oneofl [ "text/html"; "application/octet-stream"; "text/plain; charset=utf-8" ]))
         (pair
            (list_size (int_range 0 3) (pair token value))
            (string_size ~gen:char (int_range 0 20_000))))
  in
  QCheck.Test.make ~name:"response build matches the two-copy reference" ~count:300
    (QCheck.make
       ~print:(fun (status, keep_alive, content_type, extra, body) ->
         Printf.sprintf "%d keep_alive=%b %s, %d extra headers, %d-byte body"
           (Httpkit.Response.status_code status) keep_alive content_type (List.length extra)
           (String.length body))
       gen)
    (fun (status, keep_alive, content_type, extra_headers, body) ->
      Httpkit.Response.build ~status ~content_type ~keep_alive ~extra_headers ~body ()
      = ref_build ~status ~content_type ~keep_alive ~extra_headers ~body ())

let test_build_golden () =
  Alcotest.(check string) "bytes"
    "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
     Content-Length: 5\r\nConnection: close\r\nRetry-After: 1\r\nX-Tag: ab\r\n\r\nhello"
    (Httpkit.Response.build ~status:Httpkit.Response.Service_unavailable
       ~content_type:"text/plain" ~keep_alive:false
       ~extra_headers:[ ("Retry-After", "1"); ("X-Tag", "ab") ]
       ~body:"hello" ())

(* A crypto_16k-shaped response is allocated once on the major heap: the
   result itself plus at most 16 words (8,268 words with the two-copy
   buffer). *)
let test_build_alloc_budget () =
  let body = Test_crypto.alloc_payload and tag = String.make 64 'f' in
  let r, _, major =
    Test_crypto.alloc_words (fun () ->
        Httpkit.Response.build ~content_type:"application/octet-stream"
          ~extra_headers:[ ("X-Tag", tag) ] ~body ())
  in
  let own = Obj.size (Obj.repr r) in
  Alcotest.(check bool)
    (Printf.sprintf "major words %d <= %d + 16" major own)
    true
    (major <= own + 16)

let suite =
  [
    Alcotest.test_case "simple get" `Quick test_parse_simple_get;
    Alcotest.test_case "headers" `Quick test_parse_headers;
    Alcotest.test_case "keep alive" `Quick test_keep_alive;
    Alcotest.test_case "incomplete" `Quick test_incomplete;
    Alcotest.test_case "malformed" `Quick test_malformed;
    Alcotest.test_case "header limit" `Quick test_limit;
    Alcotest.test_case "other method" `Quick test_other_method;
    Alcotest.test_case "bare lf" `Quick test_bare_lf;
    Alcotest.test_case "pipelined offset" `Quick test_pipelined_offset;
    Alcotest.test_case "head request" `Quick test_head_request;
    Alcotest.test_case "split at every byte boundary" `Quick test_split_every_boundary;
    QCheck_alcotest.to_alcotest prop_never_raises;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_scan_hint_equivalent;
    QCheck_alcotest.to_alcotest prop_garbage_is_malformed;
    QCheck_alcotest.to_alcotest prop_build_matches_reference;
    Alcotest.test_case "response build golden bytes" `Quick test_build_golden;
    Alcotest.test_case "response build 16KB allocation budget" `Quick test_build_alloc_budget;
  ]
