// UDP datagram transport (IPv4). This is the "full network stack" path in
// the paper's Fig 3/4 evaluation: even on one host, a UDP datagram
// traverses the kernel IP stack, unlike the unix-socket fast path.
#pragma once

#include <atomic>

#include "net/fd_util.hpp"
#include "net/transport.hpp"

namespace bertha {

class UdpTransport final : public Transport {
 public:
  // Binds to `addr` (kind must be udp). Port 0 requests an ephemeral
  // port; the bound address is reflected in local_addr().
  static Result<TransportPtr> bind(const Addr& addr);

  ~UdpTransport() override;

  Result<void> send_to(const Addr& dst, BytesView payload) override;
  Result<Packet> recv(Deadline deadline) override;
  const Addr& local_addr() const override { return local_; }
  void close() override;
  int poll_fd() const override { return sock_.get(); }

  // sendmmsg/recvmmsg: one syscall per batch of datagrams.
  Result<size_t> send_batch(std::span<const Datagram> batch) override;
  Result<size_t> recv_batch(std::span<Datagram> out, Deadline deadline) override;

 private:
  UdpTransport(Fd sock, Fd wake, Addr local)
      : sock_(std::move(sock)), wake_(std::move(wake)), local_(std::move(local)) {}

  Fd sock_;
  Fd wake_;
  Addr local_;
  std::atomic<bool> closed_{false};
};

}  // namespace bertha
