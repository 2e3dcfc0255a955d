#include "net/pipe.hpp"

#include <sys/socket.h>

#include <cerrno>

namespace bertha {

namespace {

class PipeTransport final : public Transport {
 public:
  PipeTransport(Fd sock, Fd wake, Addr local)
      : sock_(std::move(sock)), wake_(std::move(wake)), local_(std::move(local)) {}

  ~PipeTransport() override { close(); }

  Result<void> send_to(const Addr& /*dst*/, BytesView payload) override {
    if (closed_.load(std::memory_order_acquire))
      return err(Errc::cancelled, "transport closed");
    ssize_t rc = ::send(sock_.get(), payload.data(), payload.size(), 0);
    if (rc < 0) {
      if (errno == EPIPE || errno == ECONNRESET)
        return err(Errc::unavailable, "pipe peer closed");
      return errno_error(Errc::io_error, "pipe send");
    }
    return ok();
  }

  Result<Packet> recv(Deadline deadline) override {
    for (;;) {
      if (closed_.load(std::memory_order_acquire))
        return err(Errc::cancelled, "transport closed");
      BERTHA_TRY(wait_readable(sock_.get(), wake_.get(), deadline));
      if (closed_.load(std::memory_order_acquire))
        return err(Errc::cancelled, "transport closed");
      thread_local Bytes scratch(kMaxDatagram);
      Packet pkt;
      ssize_t rc =
          ::recv(sock_.get(), scratch.data(), scratch.size(), MSG_DONTWAIT);
      if (rc < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        return errno_error(Errc::io_error, "pipe recv");
      }
      if (rc == 0) return err(Errc::unavailable, "pipe peer closed");
      pkt.payload.assign(scratch.begin(),
                         scratch.begin() + static_cast<ptrdiff_t>(rc));
      pkt.src = Addr::uds("pipe-peer");
      return pkt;
    }
  }

  const Addr& local_addr() const override { return local_; }

  int poll_fd() const override { return sock_.get(); }

  void close() override {
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    fire_wake_eventfd(wake_.get());
    ::shutdown(sock_.get(), SHUT_RDWR);
  }

 private:
  Fd sock_;
  Fd wake_;
  Addr local_;
  std::atomic<bool> closed_{false};
};

}  // namespace

Result<TransportPair> make_pipe_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds) < 0)
    return errno_error(Errc::io_error, "socketpair");
  Fd a(fds[0]), b(fds[1]);
  BERTHA_TRY_ASSIGN(wa, make_wake_eventfd());
  BERTHA_TRY_ASSIGN(wb, make_wake_eventfd());
  TransportPair pair;
  pair.a = TransportPtr(
      new PipeTransport(std::move(a), std::move(wa), Addr::uds("pipe-a")));
  pair.b = TransportPtr(
      new PipeTransport(std::move(b), std::move(wb), Addr::uds("pipe-b")));
  return pair;
}

}  // namespace bertha
