/* C stubs for Rtnet.Epoll: edge-triggered epoll and an eventfd wake
 * counter (Linux only), and a writev gather-write for the slice-queue
 * output path.
 *
 * Conventions shared with epoll.ml (keep in sync):
 *   interest mask bits:  1 = read, 2 = write, 4 = edge-triggered
 *   ready event bits:    1 = readable, 2 = writable, 4 = error/hup
 *   ctl ops:             0 = add, 1 = modify, 2 = delete
 *   result capacity:     MELY_EPOLL_MAX = [max_events] in epoll.ml
 *
 * Blocking discipline (OCaml 5): a domain that naps inside a syscall
 * without releasing the runtime stalls every other domain's
 * stop-the-world minor GC, so epoll_wait releases the runtime lock.
 * Anything read from or written to the OCaml heap is copied on the
 * C stack while the lock is held. The eventfd and writev paths never
 * release the lock: their fds are nonblocking, and holding the lock
 * is what keeps the iovec base pointers (into OCaml strings) stable.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>
#include <sys/uio.h>

#define MELY_IN 1
#define MELY_OUT 2
#define MELY_ET 4

#define MELY_RD 1
#define MELY_WR 2
#define MELY_ERR 4

#define MELY_EPOLL_MAX 1024

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>

CAMLprim value mely_epoll_create(value unit)
{
  int fd;
  (void)unit;
  fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd == -1) uerror("epoll_create1", Nothing);
  return Val_int(fd);
}

CAMLprim value mely_epoll_ctl(value vepfd, value vop, value vfd, value vmask)
{
  struct epoll_event ev;
  int op, mask, ret;
  memset(&ev, 0, sizeof ev);
  mask = Int_val(vmask);
  ev.events = 0;
  if (mask & MELY_IN) ev.events |= EPOLLIN;
  if (mask & MELY_OUT) ev.events |= EPOLLOUT;
  if (mask & MELY_ET) ev.events |= EPOLLET;
  ev.data.fd = Int_val(vfd);
  switch (Int_val(vop)) {
  case 0: op = EPOLL_CTL_ADD; break;
  case 1: op = EPOLL_CTL_MOD; break;
  default: op = EPOLL_CTL_DEL; break;
  }
  ret = epoll_ctl(Int_val(vepfd), op, Int_val(vfd), &ev);
  if (ret == -1) uerror("epoll_ctl", Nothing);
  return Val_unit;
}

CAMLprim value mely_epoll_wait(value vepfd, value vtimeout, value vfds,
                               value vevents)
{
  CAMLparam4(vepfd, vtimeout, vfds, vevents);
  struct epoll_event evs[MELY_EPOLL_MAX];
  int epfd = Int_val(vepfd);
  int timeout = Int_val(vtimeout);
  int cap = Wosize_val(vfds);
  int n, i;
  if (cap > MELY_EPOLL_MAX) cap = MELY_EPOLL_MAX;
  if (cap > (int)Wosize_val(vevents)) cap = Wosize_val(vevents);
  if (cap < 1) CAMLreturn(Val_int(0));
  caml_release_runtime_system();
  n = epoll_wait(epfd, evs, cap, timeout);
  caml_acquire_runtime_system();
  if (n == -1) uerror("epoll_wait", Nothing);
  for (i = 0; i < n; i++) {
    int bits = 0;
    if (evs[i].events & (EPOLLIN | EPOLLPRI | EPOLLRDHUP)) bits |= MELY_RD;
    if (evs[i].events & EPOLLOUT) bits |= MELY_WR;
    if (evs[i].events & (EPOLLERR | EPOLLHUP)) bits |= MELY_ERR;
    Field(vfds, i) = Val_int(evs[i].data.fd);
    Field(vevents, i) = Val_int(bits);
  }
  CAMLreturn(Val_int(n));
}

CAMLprim value mely_eventfd_create(value unit)
{
  int fd;
  (void)unit;
  fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd == -1) uerror("eventfd", Nothing);
  return Val_int(fd);
}

/* Add 1 to the counter. EAGAIN means the counter is saturated, so a
 * wake is already pending: success. */
CAMLprim value mely_eventfd_signal(value vfd)
{
  uint64_t one = 1;
  if (write(Int_val(vfd), &one, sizeof one) == -1 && errno != EAGAIN)
    uerror("eventfd_signal", Nothing);
  return Val_unit;
}

/* Reset the counter to 0. EAGAIN means it already was 0. */
CAMLprim value mely_eventfd_drain(value vfd)
{
  uint64_t n;
  if (read(Int_val(vfd), &n, sizeof n) == -1 && errno != EAGAIN)
    uerror("eventfd_drain", Nothing);
  return Val_unit;
}

#else /* !__linux__ */

/* lib/rtnet needs Linux; elsewhere only the simulator half is usable.
 * Every caller goes through Epoll.create first, which fails here. */
#define MELY_LINUX_ONLY \
  caml_failwith("Rtnet.Epoll: lib/rtnet needs Linux (epoll and eventfd)")

CAMLprim value mely_epoll_create(value unit) { (void)unit; MELY_LINUX_ONLY; }
CAMLprim value mely_epoll_ctl(value a, value b, value c, value d)
{ (void)a; (void)b; (void)c; (void)d; MELY_LINUX_ONLY; }
CAMLprim value mely_epoll_wait(value a, value b, value c, value d)
{ (void)a; (void)b; (void)c; (void)d; MELY_LINUX_ONLY; }
CAMLprim value mely_eventfd_create(value unit) { (void)unit; MELY_LINUX_ONLY; }
CAMLprim value mely_eventfd_signal(value fd) { (void)fd; MELY_LINUX_ONLY; }
CAMLprim value mely_eventfd_drain(value fd) { (void)fd; MELY_LINUX_ONLY; }

#endif /* __linux__ */

/* Gather write from parallel slice arrays: strings, start offsets and
 * lengths, first [vcount] entries. Runs with the runtime lock held
 * (nonblocking sockets; the iovec bases point into the OCaml heap). */
#define MELY_IOV_MAX 64

CAMLprim value mely_writev(value vfd, value vstrs, value voffs, value vlens,
                           value vcount)
{
  struct iovec iov[MELY_IOV_MAX];
  int n = Int_val(vcount);
  int i;
  ssize_t ret;
  if (n > MELY_IOV_MAX) n = MELY_IOV_MAX;
  for (i = 0; i < n; i++) {
    iov[i].iov_base =
        (char *)Bytes_val(Field(vstrs, i)) + Int_val(Field(voffs, i));
    iov[i].iov_len = (size_t)Int_val(Field(vlens, i));
  }
  ret = writev(Int_val(vfd), iov, n);
  if (ret == -1) uerror("writev", Nothing);
  return Val_long(ret);
}
