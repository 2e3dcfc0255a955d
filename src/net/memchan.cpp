#include "net/memchan.hpp"

#include <algorithm>

namespace bertha {

class MemTransport final : public Transport {
 public:
  MemTransport(std::shared_ptr<MemNetwork> net,
               std::shared_ptr<MemNetwork::Endpoint> ep, Addr local)
      : net_(std::move(net)), ep_(std::move(ep)), local_(std::move(local)) {}

  ~MemTransport() override { close(); }

  Result<void> send_to(const Addr& dst, BytesView payload) override {
    if (ep_->q.closed()) return err(Errc::cancelled, "transport closed");
    return net_->deliver(local_, dst, payload);
  }

  Result<Packet> recv(Deadline deadline) override {
    return ep_->q.pop(deadline);
  }

  Result<size_t> send_batch(std::span<const Datagram> batch) override {
    if (ep_->q.closed()) return err(Errc::cancelled, "transport closed");
    for (const Datagram& d : batch)
      BERTHA_TRY(net_->deliver(local_, d.dst, d.payload.view()));
    return batch.size();
  }

  // One lock acquisition drains up to a chunk of queued packets.
  Result<size_t> recv_batch(std::span<Datagram> out,
                            Deadline deadline) override {
    if (out.empty()) return size_t(0);
    Packet chunk[kBatchChunk];
    size_t max = std::min(out.size(), kBatchChunk);
    BERTHA_TRY_ASSIGN(n, ep_->q.pop_batch(chunk, max, deadline));
    for (size_t i = 0; i < n; i++) {
      out[i].src = std::move(chunk[i].src);
      out[i].payload.assign(chunk[i].payload);
    }
    return n;
  }

  const Addr& local_addr() const override { return local_; }

  void close() override {
    if (!ep_->q.closed()) {
      ep_->q.close();
      net_->unbind(local_);
    }
  }

 private:
  static constexpr size_t kBatchChunk = 64;

  std::shared_ptr<MemNetwork> net_;
  std::shared_ptr<MemNetwork::Endpoint> ep_;
  Addr local_;
};

Result<TransportPtr> MemNetwork::bind(const Addr& addr) {
  if (addr.kind != AddrKind::mem)
    return err(Errc::invalid_argument, "not a mem addr: " + addr.to_string());
  std::lock_guard<std::mutex> lk(mu_);
  Addr bound = addr;
  if (bound.port == 0) {
    // ~25k ephemeral ports per host. A full range must fail, not spin:
    // the connection-scale tests bind tens of thousands of clients and
    // an exhausted host used to hang here scanning forever.
    for (uint32_t tried = 0;; tried++) {
      if (tried > 65535u - 40000u)
        return err(Errc::resource_exhausted,
                   "mem ephemeral ports exhausted on " + bound.host);
      bound.port = next_ephemeral_++;
      if (next_ephemeral_ == 0) next_ephemeral_ = 40000;
      if (!endpoints_.count(bound)) break;
    }
  } else if (endpoints_.count(bound)) {
    return err(Errc::already_exists, "mem addr in use: " + bound.to_string());
  }
  auto ep = std::make_shared<Endpoint>(cfg_.queue_depth);
  endpoints_[bound] = ep;
  return TransportPtr(new MemTransport(shared_from_this(), ep, bound));
}

Result<void> MemNetwork::deliver(const Addr& from, const Addr& to,
                                 BytesView payload) {
  std::shared_ptr<Endpoint> ep;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (cfg_.drop_rate > 0 && rng_.chance(cfg_.drop_rate)) {
      dropped_++;
      return ok();  // silent drop, like the real network
    }
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      dropped_++;  // no listener: datagram vanishes
      return ok();
    }
    ep = it->second;
    delivered_++;
  }
  Packet pkt;
  pkt.src = from;
  pkt.payload.assign(payload.begin(), payload.end());
  // Full queue or concurrently-closed endpoint == drop, not error.
  (void)ep->q.push(std::move(pkt));
  return ok();
}

void MemNetwork::unbind(const Addr& addr) {
  std::lock_guard<std::mutex> lk(mu_);
  endpoints_.erase(addr);
}

uint64_t MemNetwork::delivered() const {
  std::lock_guard<std::mutex> lk(mu_);
  return delivered_;
}

uint64_t MemNetwork::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

}  // namespace bertha
