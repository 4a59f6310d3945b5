(* The front end's counter record, per poller shard or summed over the
   shards. It lives apart so that [Admin] renders it and [Server]
   re-exports it (as [Server.stats]) without a second copy. Types only,
   so this file is its own interface. *)

type stats = {
  conns_accepted : int;  (** connections the poller accepted *)
  conns_refused : int;  (** connections refused while draining *)
  conns_closed : int;  (** connections closed (any reason) *)
  conns_failed : int;
      (** connections dropped on I/O error or refused injection *)
  conns_evicted : int;
      (** connections evicted by a deadline: slow-loris 408, keep-alive
          idle close, or write-progress stall *)
  reqs_parsed : int;  (** complete requests parsed off the wire *)
  reqs_served : int;  (** responses handed to the output buffer *)
  reqs_failed : int;
      (** app raised (500 sent, connection closed) or the connection
          died before its queued request could be served *)
  reqs_malformed : int;  (** parse errors; 400 sent, connection closed *)
  reqs_too_large : int;
      (** header block over [max_request_bytes]; 431 sent, closed *)
  reqs_shed : int;
      (** parsed but shed under overload; 503 sent, connection closed *)
  injections_refused : int;
      (** poller registers rejected by the runtime's shutdown gate *)
  accept_errors : int;
      (** accept failures other than EAGAIN/EINTR (EMFILE, ENFILE, …),
          on the client or the admin listener *)
  accept_backoffs : int;
      (** times the acceptor left the epoll set to back off *)
  faults_injected : int;
      (** faults the {!Rt.Faults} plane injected (0 on passthrough) *)
}
