type status =
  | OK
  | Not_found
  | Bad_request
  | Internal_error
  | Request_timeout
  | Header_fields_too_large
  | Service_unavailable

let status_code = function
  | OK -> 200
  | Not_found -> 404
  | Bad_request -> 400
  | Internal_error -> 500
  | Request_timeout -> 408
  | Header_fields_too_large -> 431
  | Service_unavailable -> 503

let status_reason = function
  | OK -> "OK"
  | Not_found -> "Not Found"
  | Bad_request -> "Bad Request"
  | Internal_error -> "Internal Server Error"
  | Request_timeout -> "Request Timeout"
  | Header_fields_too_large -> "Request Header Fields Too Large"
  | Service_unavailable -> "Service Unavailable"

(* The header block is rendered first, so the response is allocated
   once at its final size: a 16 KB body costs one 16 KB string, not a
   doubled buffer and a copy of it. *)
let build ?(status = OK) ?(content_type = "text/html") ?(keep_alive = true)
    ?(extra_headers = []) ~body () =
  let head = Buffer.create 256 in
  let field name value =
    Buffer.add_string head name;
    Buffer.add_string head ": ";
    Buffer.add_string head value;
    Buffer.add_string head "\r\n"
  in
  Buffer.add_string head "HTTP/1.1 ";
  Buffer.add_string head (string_of_int (status_code status));
  Buffer.add_char head ' ';
  Buffer.add_string head (status_reason status);
  Buffer.add_string head "\r\n";
  field "Content-Type" content_type;
  field "Content-Length" (string_of_int (String.length body));
  field "Connection" (if keep_alive then "keep-alive" else "close");
  List.iter (fun (name, value) -> field name value) extra_headers;
  Buffer.add_string head "\r\n";
  let head_len = Buffer.length head and body_len = String.length body in
  let out = Bytes.create (head_len + body_len) in
  Buffer.blit head 0 out 0 head_len;
  Bytes.blit_string body 0 out head_len body_len;
  Bytes.unsafe_to_string out

let prebuild_cache ~files =
  let cache = Hashtbl.create (List.length files) in
  List.iter (fun (path, body) -> Hashtbl.replace cache path (build ~body ())) files;
  cache
