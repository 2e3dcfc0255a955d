// The queue-backed transport of the in-process networks (MemNetwork,
// SimNet): each bound endpoint owns a BlockingQueue<Packet> that its
// network pushes arriving datagrams into. One transport class serves
// both networks, and one table allocates their ephemeral ports.
//
// poll_fd() is the queue's readiness eventfd (util/queue.hpp), readable
// exactly while a datagram is queued or the transport is closed, so the
// io Reactor serves these endpoints on its epoll workers like sockets.
// The fd is created on the first poll_fd() call: an endpoint that is
// never registered owns no fd and makes no extra syscall per push.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>

#include "net/transport.hpp"
#include "util/queue.hpp"

namespace bertha {

using PacketQueuePtr = std::shared_ptr<BlockingQueue<Packet>>;

// Base of the in-process networks: the bound endpoints, the ephemeral-
// port allocator, and the lock that guards both, which the derived
// networks also take for their own state.
class QueueNetwork : public std::enable_shared_from_this<QueueNetwork> {
 public:
  virtual ~QueueNetwork() = default;

 protected:
  explicit QueueNetwork(size_t queue_depth) : depth_(queue_depth) {}

  // Binds `addr`. Port 0 takes a free port of [40000, 65535] on
  // addr.host and fails with resource_exhausted when all 25,536 are
  // bound; a taken fixed port fails with already_exists. Requires mu_.
  Result<TransportPtr> bind_locked(Addr addr);

  mutable std::mutex mu_;
  std::unordered_map<Addr, PacketQueuePtr, AddrHash> queues_;  // guarded by mu_

 private:
  friend class QueueTransport;

  // Routes one datagram sent from `from`; an unroutable one is a silent
  // drop, not an error.
  virtual Result<void> send(const Addr& from, const Addr& to,
                            BytesView payload) = 0;
  // Frees `addr`; its transport calls this once, when it closes.
  void unbind(const Addr& addr);

  static constexpr uint16_t kFirstEphemeral = 40000;

  size_t depth_;
  uint16_t next_ephemeral_ = kFirstEphemeral;  // guarded by mu_
};

}  // namespace bertha
