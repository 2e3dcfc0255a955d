// Unix-domain datagram transport using the Linux abstract socket
// namespace (no filesystem cleanup needed).
//
// This is the IPC fast path that the local_or_remote chunnel switches to
// when both endpoints are on the same host — the optimization Fig 3/4 of
// the paper measure. Names map to abstract addresses "\0bertha/<name>";
// an empty name requests a Linux autobind (unique kernel-chosen name),
// which clients use for their reply addresses.
#pragma once

#include <atomic>

#include "net/fd_util.hpp"
#include "net/transport.hpp"

namespace bertha {

class UdsTransport final : public Transport {
 public:
  // Binds to uds://<name>; empty name autobinds a unique address.
  static Result<TransportPtr> bind(const Addr& addr);

  ~UdsTransport() override;

  Result<void> send_to(const Addr& dst, BytesView payload) override;
  Result<Packet> recv(Deadline deadline) override;
  const Addr& local_addr() const override { return local_; }
  void close() override;
  int poll_fd() const override { return sock_.get(); }

  // sendmmsg/recvmmsg: one syscall per batch of datagrams.
  Result<size_t> send_batch(std::span<const Datagram> batch) override;
  Result<size_t> recv_batch(std::span<Datagram> out, Deadline deadline) override;

 private:
  UdsTransport(Fd sock, Fd wake, Addr local)
      : sock_(std::move(sock)), wake_(std::move(wake)), local_(std::move(local)) {}

  Fd sock_;
  Fd wake_;
  Addr local_;
  std::atomic<bool> closed_{false};
};

}  // namespace bertha
