(* Readiness multiplexing for the poller shards: edge-triggered epoll
   plus an eventfd wake counter, Linux only. One instance per shard,
   single-domain, so no locking anywhere.

   The kernel holds the interest set; this side keeps only the result
   arrays of the last [wait], preallocated at the stub's cap, so the
   [wait] path is allocation-free. *)

external int_of_fd : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

external ep_create : unit -> int = "mely_epoll_create"
external ep_ctl : int -> int -> int -> int -> unit = "mely_epoll_ctl"

external ep_wait : int -> int -> int array -> int array -> int
  = "mely_epoll_wait"

external eventfd : unit -> Unix.file_descr = "mely_eventfd_create"
external signal : Unix.file_descr -> unit = "mely_eventfd_signal"
external drain : Unix.file_descr -> unit = "mely_eventfd_drain"

external writev_stub :
  Unix.file_descr -> string array -> int array -> int array -> int -> int
  = "mely_writev"

(* Interest mask bits and the result cap, shared with epoll_stubs.c. *)
let bit_read = 1
let bit_write = 2
let bit_edge = 4
let max_events = 1024

type t = {
  epfd : int;
  res_fds : int array;  (* results of the last [wait] *)
  res_events : int array;
  mutable closed : bool;
}

let create () =
  {
    epfd = ep_create ();
    res_fds = Array.make max_events 0;
    res_events = Array.make max_events 0;
    closed = false;
  }

let mask ~read ~write ~edge =
  (if read then bit_read else 0)
  lor (if write then bit_write else 0)
  lor if edge then bit_edge else 0

let add t fd ~read ~write ~edge =
  ep_ctl t.epfd 0 (int_of_fd fd) (mask ~read ~write ~edge)

let modify t fd ~read ~write ~edge =
  ep_ctl t.epfd 1 (int_of_fd fd) (mask ~read ~write ~edge)

let remove t fd =
  try ep_ctl t.epfd 2 (int_of_fd fd) 0 with Unix.Unix_error _ -> ()

let wait t ~timeout_ms = ep_wait t.epfd timeout_ms t.res_fds t.res_events
let ready_fd t i = fd_of_int t.res_fds.(i)
let ready_readable t i = t.res_events.(i) land 1 <> 0
let ready_writable t i = t.res_events.(i) land 2 <> 0
let ready_error t i = t.res_events.(i) land 4 <> 0

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close (fd_of_int t.epfd) with Unix.Unix_error _ -> ()
  end

(* Gather write over at most 64 slices; returns bytes written, raises
   [Unix.Unix_error] like [Unix.write]. The three arrays are parallel
   (string, start offset, length); only the first [count] entries are
   used. *)
let writev fd ~strs ~offs ~lens ~count = writev_stub fd strs offs lens count
