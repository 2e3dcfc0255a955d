#include "net/queue_transport.hpp"

#include <algorithm>

namespace bertha {

class QueueTransport final : public Transport {
 public:
  QueueTransport(std::shared_ptr<QueueNetwork> net, PacketQueuePtr q,
                 Addr local)
      : net_(std::move(net)), q_(std::move(q)), local_(std::move(local)) {}

  ~QueueTransport() override { close(); }

  Result<void> send_to(const Addr& dst, BytesView payload) override {
    if (q_->closed()) return err(Errc::cancelled, "transport closed");
    return net_->send(local_, dst, payload);
  }

  Result<Packet> recv(Deadline deadline) override { return q_->pop(deadline); }

  Result<size_t> send_batch(std::span<const Datagram> batch) override {
    if (q_->closed()) return err(Errc::cancelled, "transport closed");
    for (const Datagram& d : batch)
      BERTHA_TRY(net_->send(local_, d.dst, d.payload.view()));
    return batch.size();
  }

  // One lock acquisition drains up to a chunk of queued packets.
  Result<size_t> recv_batch(std::span<Datagram> out,
                            Deadline deadline) override {
    if (out.empty()) return size_t(0);
    Packet chunk[kBatchChunk];
    size_t max = std::min(out.size(), kBatchChunk);
    BERTHA_TRY_ASSIGN(n, q_->pop_batch(chunk, max, deadline));
    for (size_t i = 0; i < n; i++) {
      out[i].src = std::move(chunk[i].src);
      out[i].payload.assign(chunk[i].payload);
    }
    return n;
  }

  const Addr& local_addr() const override { return local_; }

  void close() override {
    if (!q_->closed()) {
      q_->close();
      net_->unbind(local_);
    }
  }

  int poll_fd() const override { return q_->poll_fd(); }

 private:
  static constexpr size_t kBatchChunk = 64;

  std::shared_ptr<QueueNetwork> net_;
  PacketQueuePtr q_;
  Addr local_;
};

Result<TransportPtr> QueueNetwork::bind_locked(Addr addr) {
  if (addr.port == 0) {
    // A full range must fail, not spin: the caller holds mu_, and the
    // connection-scale tests bind tens of thousands of clients.
    for (uint32_t tried = 0;; tried++) {
      if (tried > 65535u - kFirstEphemeral)
        return err(Errc::resource_exhausted,
                   "ephemeral ports exhausted on " + addr.host);
      addr.port = next_ephemeral_++;
      if (next_ephemeral_ == 0) next_ephemeral_ = kFirstEphemeral;
      if (!queues_.count(addr)) break;
    }
  } else if (queues_.count(addr)) {
    return err(Errc::already_exists, "addr in use: " + addr.to_string());
  }
  auto q = std::make_shared<BlockingQueue<Packet>>(depth_);
  queues_[addr] = q;
  return TransportPtr(new QueueTransport(shared_from_this(), std::move(q),
                                         std::move(addr)));
}

void QueueNetwork::unbind(const Addr& addr) {
  std::lock_guard<std::mutex> lk(mu_);
  queues_.erase(addr);
}

}  // namespace bertha
