#include "net/memchan.hpp"

namespace bertha {

Result<TransportPtr> MemNetwork::bind(const Addr& addr) {
  if (addr.kind != AddrKind::mem)
    return err(Errc::invalid_argument, "not a mem addr: " + addr.to_string());
  std::lock_guard<std::mutex> lk(mu_);
  return bind_locked(addr);
}

Result<void> MemNetwork::send(const Addr& from, const Addr& to,
                              BytesView payload) {
  PacketQueuePtr q;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (cfg_.drop_rate > 0 && rng_.chance(cfg_.drop_rate)) {
      dropped_++;
      return ok();  // silent drop, like the real network
    }
    auto it = queues_.find(to);
    if (it == queues_.end()) {
      dropped_++;  // no listener: datagram vanishes
      return ok();
    }
    q = it->second;
    delivered_++;
  }
  Packet pkt;
  pkt.src = from;
  pkt.payload.assign(payload.begin(), payload.end());
  // Full queue or concurrently-closed endpoint == drop, not error.
  (void)q->push(std::move(pkt));
  return ok();
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
