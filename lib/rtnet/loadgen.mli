(** Loopback load generator for {!Server}: N real client sockets × M
    pipelined keep-alive requests each, with optional deliberately torn
    writes, validating every response byte-for-byte against the
    expected prebuilt bytes. Used by the e2e tests, [melyctl rt
    loadgen], the [rt_webserver] example and [melyctl rt chaos]. *)

type result = {
  requests_sent : int;
  responses_ok : int;  (** byte-exact, in order *)
  sheds : int;
      (** requests answered with the armor's 503/408 or cut off by a
          server-initiated close — correct overload behavior, kept
          separate from {!mismatches} so only real protocol violations
          fail a run *)
  mismatches : int;  (** batches whose bytes differed from expected *)
  failed_conns : int;  (** connect/read/write failures or timeouts *)
  conns_open_peak : int;
      (** most client sockets simultaneously open during the run — in
          concurrent mode this should reach [conns], in sequential mode
          about [client_domains] *)
  seconds : float;  (** wall time across all clients *)
}

val req_per_sec : result -> float

val default_site : ?files:int -> ?file_bytes:int -> unit -> (string * string) list
(** The synthetic site served by [melyctl rt serve] and expected by
    [melyctl rt loadgen]: [files] (default 8) paths [/f<i>.html] with
    [file_bytes] (default 1024) bodies. Feed it to
    {!Httpkit.Response.prebuild_cache} on the server side. *)

val run :
  port:int ->
  ?host:Unix.inet_addr ->
  conns:int ->
  requests:int ->
  ?pipeline:int ->
  ?torn_every:int ->
  ?close_last:bool ->
  ?client_domains:int ->
  ?timeout:float ->
  ?concurrent:bool ->
  targets:(string * string) list ->
  unit ->
  result
(** Drive [conns] connections of [requests] requests each against
    [host]:[port] (default loopback). Requests go out pipelined in
    batches of [pipeline] (default 4); target paths rotate
    deterministically through [targets], a list of
    [(path, expected full response bytes)]. Every [torn_every]-th batch
    (0 = never, the default) is written torn into small chunks with
    short pauses to exercise the server's incremental parser.
    [close_last] (default false) sends [Connection: close] on each
    connection's final request and asserts the server closes the
    socket. Connections are spread over [client_domains] (default 4)
    domains; [timeout] (default 10 s) bounds each read.

    [concurrent] (default false) changes the schedule, not the totals:
    each domain opens its whole slice of connections up front and
    holds every socket open while round-robining request batches
    across them, so all [conns] are simultaneously established
    server-side — the high-concurrency mode the sharded front end is
    sized for ({!result.conns_open_peak} reports what was reached).
    Sequential mode drives each connection to completion before
    opening the next, so only about [client_domains] are open at
    once. *)
