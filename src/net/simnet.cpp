#include "net/simnet.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace bertha {

class SimTransport final : public Transport {
 public:
  SimTransport(std::shared_ptr<SimNet> net,
               std::shared_ptr<SimNet::Endpoint> ep, Addr local)
      : net_(std::move(net)), ep_(std::move(ep)), local_(std::move(local)) {}

  ~SimTransport() override { close(); }

  Result<void> send_to(const Addr& dst, BytesView payload) override {
    if (ep_->q.closed()) return err(Errc::cancelled, "transport closed");
    return net_->send(local_, dst, payload);
  }

  Result<Packet> recv(Deadline deadline) override { return ep_->q.pop(deadline); }

  Result<size_t> send_batch(std::span<const Datagram> batch) override {
    if (ep_->q.closed()) return err(Errc::cancelled, "transport closed");
    for (const Datagram& d : batch)
      BERTHA_TRY(net_->send(local_, d.dst, d.payload.view()));
    return batch.size();
  }

  Result<size_t> recv_batch(std::span<Datagram> out,
                            Deadline deadline) override {
    if (out.empty()) return size_t(0);
    constexpr size_t kChunk = 64;
    Packet chunk[kChunk];
    size_t max = std::min(out.size(), kChunk);
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
      net_->detach(local_);
    }
  }

 private:
  std::shared_ptr<SimNet> net_;
  std::shared_ptr<SimNet::Endpoint> ep_;
  Addr local_;
};

std::shared_ptr<SimNet> SimNet::create(Config cfg) {
  auto net = std::shared_ptr<SimNet>(new SimNet(cfg));
  net->delivery_thread_ = std::thread([net] { net->delivery_loop(); });
  return net;
}

SimNet::SimNet(Config cfg) : cfg_(cfg), rng_(cfg.seed) {}

SimNet::~SimNet() { shutdown(); }

void SimNet::shutdown() {
  std::vector<std::shared_ptr<Endpoint>> eps;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& [addr, ep] : endpoints_) eps.push_back(ep);
  }
  cv_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
  for (auto& ep : eps) ep->q.close();
}

Result<TransportPtr> SimNet::attach(const std::string& node, uint16_t port) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) return err(Errc::cancelled, "simnet shut down");
  Addr bound = Addr::sim(node, port);
  if (bound.port == 0) {
    do {
      bound.port = next_ephemeral_++;
      if (next_ephemeral_ == 0) next_ephemeral_ = 40000;
    } while (endpoints_.count(bound));
  } else if (endpoints_.count(bound)) {
    return err(Errc::already_exists, "sim addr in use: " + bound.to_string());
  }
  auto ep = std::make_shared<Endpoint>(cfg_.queue_depth);
  endpoints_[bound] = ep;
  return TransportPtr(new SimTransport(shared_from_this(), ep, bound));
}

void SimNet::set_link(const std::string& a, const std::string& b,
                      Duration latency, double loss) {
  std::lock_guard<std::mutex> lk(mu_);
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  links_[key] = {latency, loss};
}

void SimNet::set_local_latency(Duration d) {
  std::lock_guard<std::mutex> lk(mu_);
  local_latency_ = d;
}

std::pair<Duration, double> SimNet::link_params(const std::string& a,
                                                const std::string& b) const {
  if (a == b) return {local_latency_, 0.0};
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  auto it = links_.find(key);
  if (it != links_.end()) return it->second;
  return {cfg_.default_latency, cfg_.default_loss};
}

Result<void> SimNet::create_group(const std::string& group, uint16_t port,
                                  std::vector<Addr> members, bool hw_sequencer,
                                  uint64_t initial_seq) {
  std::lock_guard<std::mutex> lk(mu_);
  Addr gaddr = Addr::sim(group, port);
  if (groups_.count(gaddr))
    return err(Errc::already_exists, "group exists: " + gaddr.to_string());
  for (const auto& m : members) {
    if (m.kind != AddrKind::sim)
      return err(Errc::invalid_argument,
                 "group member must be a sim addr: " + m.to_string());
  }
  Group g;
  g.members = std::move(members);
  g.hw_sequencer = hw_sequencer;
  g.next_seq = initial_seq;
  groups_[gaddr] = std::move(g);
  return ok();
}

void SimNet::remove_group(const std::string& group, uint16_t port) {
  std::lock_guard<std::mutex> lk(mu_);
  groups_.erase(Addr::sim(group, port));
}

Result<void> SimNet::install_program(
    const Addr& vip, std::function<Result<ProgramAction>(BytesView)> act) {
  if (vip.kind != AddrKind::sim)
    return err(Errc::invalid_argument, "program vip must be a sim addr");
  if (!act) return err(Errc::invalid_argument, "null steering program");
  std::lock_guard<std::mutex> lk(mu_);
  if (programs_.count(vip))
    return err(Errc::already_exists, "program exists at " + vip.to_string());
  programs_[vip] = Program{std::move(act), 0};
  return ok();
}

Result<void> SimNet::install_program(
    const Addr& vip, std::function<Result<Addr>(BytesView)> steer) {
  if (!steer) return err(Errc::invalid_argument, "null steering program");
  return install_program(
      vip, std::function<Result<ProgramAction>(BytesView)>(
               [steer = std::move(steer)](BytesView b) -> Result<ProgramAction> {
                 BERTHA_TRY_ASSIGN(dst, steer(b));
                 ProgramAction a;
                 a.dst = std::move(dst);
                 return a;
               }));
}

void SimNet::remove_program(const Addr& vip) {
  std::lock_guard<std::mutex> lk(mu_);
  programs_.erase(vip);
}

uint64_t SimNet::program_hits(const Addr& vip) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = programs_.find(vip);
  return it == programs_.end() ? 0 : it->second.hits;
}

Result<void> SimNet::advertise(const Addr& service, const Addr& target,
                               uint32_t metric) {
  if (service.kind != AddrKind::sim || target.kind != AddrKind::sim)
    return err(Errc::invalid_argument, "anycast requires sim addrs");
  std::lock_guard<std::mutex> lk(mu_);
  auto& entries = anycast_[service];
  for (auto& e : entries) {
    if (e.target == target) {
      e.metric = metric;
      return ok();
    }
  }
  entries.push_back({target, metric});
  return ok();
}

void SimNet::withdraw(const Addr& service, const Addr& target) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = anycast_.find(service);
  if (it == anycast_.end()) return;
  auto& v = it->second;
  v.erase(std::remove_if(v.begin(), v.end(),
                         [&](const AnycastEntry& e) { return e.target == target; }),
          v.end());
  if (v.empty()) anycast_.erase(it);
}

Result<Addr> SimNet::resolve_anycast(const Addr& service) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = anycast_.find(service);
  if (it == anycast_.end() || it->second.empty())
    return err(Errc::not_found, "no advertiser for " + service.to_string());
  const AnycastEntry* best = &it->second.front();
  for (const auto& e : it->second)
    if (e.metric < best->metric) best = &e;
  return best->target;
}

Result<void> SimNet::send(const Addr& from, const Addr& to, BytesView payload) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) return err(Errc::cancelled, "simnet shut down");

  // Match-action program: the "switch" steers (and possibly rewrites)
  // the packet in transit.
  Addr dst = to;
  Bytes rewritten;
  if (auto pit = programs_.find(dst); pit != programs_.end()) {
    auto acted = pit->second.act(payload);
    if (!acted.ok()) {
      dropped_++;  // the program rejected the packet (table miss / dup)
      return ok();
    }
    pit->second.hits++;
    ProgramAction a = std::move(acted).value();
    dst = std::move(a.dst);
    if (a.rewrite) {
      rewritten = std::move(a.payload);
      payload = BytesView(rewritten);
    }
  }

  // Anycast: rewrite destination to the nearest advertiser.
  if (auto ait = anycast_.find(dst); ait != anycast_.end() && !ait->second.empty()) {
    const AnycastEntry* best = &ait->second.front();
    for (const auto& e : ait->second)
      if (e.metric < best->metric) best = &e;
    dst = best->target;
  }

  // Multicast group: fan out, stamping a sequence number when the group
  // has a hardware sequencer ("in the switch", so no extra hop).
  if (auto git = groups_.find(dst); git != groups_.end()) {
    Group& g = git->second;
    Bytes stamped;
    if (g.hw_sequencer) {
      stamped.reserve(payload.size() + 8);
      put_u64_le(stamped, g.next_seq++);
      append(stamped, payload);
    }
    for (const auto& m : g.members)
      enqueue_delivery(from, m,
                       g.hw_sequencer ? stamped
                                      : Bytes(payload.begin(), payload.end()));
    return ok();
  }

  enqueue_delivery(from, dst, Bytes(payload.begin(), payload.end()));
  return ok();
}

void SimNet::enqueue_delivery(const Addr& from, const Addr& to, Bytes payload) {
  auto [latency, loss] = link_params(from.host, to.host);
  if (loss > 0 && rng_.chance(loss)) {
    dropped_++;
    return;
  }
  Event ev;
  ev.due = now() + latency;
  ev.dst = to;
  ev.pkt.src = from;
  ev.pkt.payload = std::move(payload);
  events_.push(std::move(ev));
  cv_.notify_one();
}

void SimNet::delivery_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stopping_) {
    if (events_.empty()) {
      cv_.wait(lk);
      continue;
    }
    TimePoint due = events_.top().due;
    if (now() < due) {
      cv_.wait_until(lk, due);
      continue;
    }
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    auto it = endpoints_.find(ev.dst);
    if (it == endpoints_.end()) {
      dropped_++;
      continue;
    }
    delivered_++;
    auto ep = it->second;
    lk.unlock();
    (void)ep->q.push(std::move(ev.pkt));  // full/closed queue == drop
    lk.lock();
  }
}

void SimNet::detach(const Addr& addr) {
  std::lock_guard<std::mutex> lk(mu_);
  endpoints_.erase(addr);
}

uint64_t SimNet::delivered() const {
  std::lock_guard<std::mutex> lk(mu_);
  return delivered_;
}

uint64_t SimNet::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

}  // namespace bertha
