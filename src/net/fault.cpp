#include "net/fault.hpp"

#include <algorithm>
#include <utility>

namespace bertha {

FaultInjectingTransport::FaultInjectingTransport(TransportPtr inner,
                                                 Options opts)
    : inner_(std::move(inner)), opts_(opts), rng_(opts.seed) {
  opts_.drop = std::clamp(opts_.drop, 0.0, 1.0);
  opts_.duplicate = std::clamp(opts_.duplicate, 0.0, 1.0);
  opts_.reorder = std::clamp(opts_.reorder, 0.0, 1.0);
  opts_.delay = std::clamp(opts_.delay, 0.0, 1.0);
  if (opts_.delay_max < opts_.delay_min) opts_.delay_max = opts_.delay_min;
}

FaultInjectingTransport::~FaultInjectingTransport() {
  close();
  if (timer_.joinable()) timer_.join();
}

void FaultInjectingTransport::ensure_timer_locked() {
  if (timer_started_ || closing_) return;
  timer_started_ = true;
  timer_ = std::thread([this] { timer_loop(); });
}

void FaultInjectingTransport::timer_loop() {
  auto by_due = [](const Delayed& a, const Delayed& b) { return a.due > b.due; };
  std::unique_lock<std::mutex> lk(mu_);
  while (!closing_) {
    if (delay_q_.empty()) {
      delay_cv_.wait(lk);
      continue;
    }
    TimePoint due = delay_q_.front().due;
    if (now() < due) {
      delay_cv_.wait_until(lk, due);
      continue;
    }
    std::pop_heap(delay_q_.begin(), delay_q_.end(), by_due);
    Delayed d = std::move(delay_q_.back());
    delay_q_.pop_back();
    lk.unlock();
    (void)inner_->send_to(d.dst, d.payload);
    lk.lock();
  }
}

Result<void> FaultInjectingTransport::send_to(const Addr& dst,
                                              BytesView payload) {
  auto by_due = [](const Delayed& a, const Delayed& b) { return a.due > b.due; };
  std::optional<std::pair<Addr, Bytes>> flush;
  bool dup = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    n_.sent++;
    if (send_filter_ && send_filter_(dst, payload)) {
      n_.tx_dropped++;
      return {};
    }
    if (tx_partitioned_ || rng_.chance(opts_.drop)) {
      n_.tx_dropped++;
      return {};
    }
    dup = rng_.chance(opts_.duplicate);
    if (dup) n_.tx_duplicated++;
    if (rng_.chance(opts_.delay)) {
      n_.tx_delayed++;
      Duration extra(
          rng_.next_in(opts_.delay_min.count(), opts_.delay_max.count()));
      delay_q_.push_back({now() + extra, dst, Bytes(payload.begin(),
                                                    payload.end())});
      std::push_heap(delay_q_.begin(), delay_q_.end(), by_due);
      ensure_timer_locked();
      delay_cv_.notify_all();
      if (!dup) return {};
      // A duplicated+delayed datagram: one copy now, one later.
      dup = false;
    } else if (!tx_held_ && rng_.chance(opts_.reorder)) {
      // Hold this datagram; it goes out right after the next send, i.e.
      // the pair arrives swapped.
      n_.tx_reordered++;
      tx_held_.emplace(dst, Bytes(payload.begin(), payload.end()));
      return {};
    }
    if (tx_held_) {
      flush = std::move(tx_held_);
      tx_held_.reset();
    }
  }
  auto r = inner_->send_to(dst, payload);
  if (dup) (void)inner_->send_to(dst, payload);
  if (flush) (void)inner_->send_to(flush->first, flush->second);
  return r;
}

Result<Packet> FaultInjectingTransport::recv(Deadline deadline) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!rx_pending_.empty()) {
        Packet p = std::move(rx_pending_.front());
        rx_pending_.pop_front();
        n_.received++;
        return p;
      }
    }
    auto r = inner_->recv(deadline);
    if (!r.ok()) {
      // Don't strand a held (reordered) packet behind a quiet link.
      std::lock_guard<std::mutex> lk(mu_);
      if (rx_held_) {
        Packet p = std::move(*rx_held_);
        rx_held_.reset();
        n_.received++;
        return p;
      }
      return r;
    }
    Packet p = std::move(r).value();
    std::lock_guard<std::mutex> lk(mu_);
    if (recv_filter_ && recv_filter_(p.src, p.payload)) {
      n_.rx_dropped++;
      continue;
    }
    if (rx_partitioned_ || rng_.chance(opts_.drop)) {
      n_.rx_dropped++;
      continue;
    }
    if (rng_.chance(opts_.duplicate)) {
      n_.rx_duplicated++;
      rx_pending_.push_back(p);
    }
    if (!rx_held_ && rng_.chance(opts_.reorder)) {
      n_.rx_reordered++;
      rx_held_ = std::move(p);
      continue;
    }
    if (rx_held_) {
      rx_pending_.push_back(std::move(*rx_held_));
      rx_held_.reset();
    }
    n_.received++;
    return p;
  }
}

Result<size_t> FaultInjectingTransport::recv_batch(std::span<Datagram> out,
                                                   Deadline deadline) {
  if (out.empty()) return size_t(0);
  for (;;) {
    size_t n = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      while (n < out.size() && !rx_pending_.empty()) {
        out[n].src = std::move(rx_pending_.front().src);
        out[n].payload.assign(rx_pending_.front().payload);
        rx_pending_.pop_front();
        n_.received++;
        n++;
      }
    }
    if (n > 0) return n;

    // Pull a fresh batch from the inner transport and run every datagram
    // through the same fault pipeline recv() applies.
    std::vector<Datagram> fresh(out.size());
    auto r = inner_->recv_batch(std::span<Datagram>(fresh), deadline);
    if (!r.ok()) {
      // Don't strand a held (reordered) packet behind a quiet link.
      std::lock_guard<std::mutex> lk(mu_);
      if (rx_held_) {
        out[0].src = std::move(rx_held_->src);
        out[0].payload.assign(rx_held_->payload);
        rx_held_.reset();
        n_.received++;
        return size_t(1);
      }
      return r.error();
    }
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t i = 0; i < r.value(); i++) {
      Datagram& d = fresh[i];
      if (recv_filter_ && recv_filter_(d.src, d.payload.view())) {
        n_.rx_dropped++;
        continue;
      }
      if (rx_partitioned_ || rng_.chance(opts_.drop)) {
        n_.rx_dropped++;
        continue;
      }
      auto to_packet = [&d] {
        Packet p;
        p.src = d.src;
        p.payload = d.payload.to_bytes();
        return p;
      };
      if (rng_.chance(opts_.duplicate)) {
        n_.rx_duplicated++;
        rx_pending_.push_back(to_packet());
      }
      if (!rx_held_ && rng_.chance(opts_.reorder)) {
        n_.rx_reordered++;
        rx_held_ = to_packet();
        continue;
      }
      auto deliver = [&](Packet p) {
        if (n < out.size()) {
          out[n].src = std::move(p.src);
          out[n].payload.assign(p.payload);
          n_.received++;
          n++;
        } else {
          rx_pending_.push_back(std::move(p));
        }
      };
      // Matches recv(): the current datagram goes out first, then the
      // held one — that inversion is what "reorder" means.
      std::optional<Packet> held;
      if (rx_held_) {
        held = std::move(*rx_held_);
        rx_held_.reset();
      }
      deliver(to_packet());
      if (held) deliver(std::move(*held));
    }
    if (n > 0) return n;
    // Every datagram in the pull was dropped/held; wait for more.
  }
}

void FaultInjectingTransport::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closing_ = true;
  }
  delay_cv_.notify_all();
  inner_->close();
}

void FaultInjectingTransport::partition(bool tx, bool rx) {
  std::lock_guard<std::mutex> lk(mu_);
  tx_partitioned_ = tx;
  rx_partitioned_ = rx;
}

void FaultInjectingTransport::set_send_filter(Filter f) {
  std::lock_guard<std::mutex> lk(mu_);
  send_filter_ = std::move(f);
}

void FaultInjectingTransport::set_recv_filter(Filter f) {
  std::lock_guard<std::mutex> lk(mu_);
  recv_filter_ = std::move(f);
}

FaultInjectingTransport::Counters FaultInjectingTransport::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return n_;
}

Result<TransportPtr> FaultInjectingFactory::bind(const Addr& addr) {
  auto t = inner_->bind(addr);
  if (!t.ok()) return t;
  FaultInjectingTransport::Options opts = opts_;
  FaultInjectingTransport::Filter sf, rf;
  {
    std::lock_guard<std::mutex> lk(mu_);
    opts.seed = opts_.seed + 0x9e3779b97f4a7c15ull * ++binds_;
    sf = send_filter_;
    rf = recv_filter_;
  }
  auto* ft = new FaultInjectingTransport(std::move(t).value(), opts);
  if (sf) ft->set_send_filter(std::move(sf));
  if (rf) ft->set_recv_filter(std::move(rf));
  return TransportPtr(ft);
}

void FaultInjectingFactory::set_send_filter(FaultInjectingTransport::Filter f) {
  std::lock_guard<std::mutex> lk(mu_);
  send_filter_ = std::move(f);
}

void FaultInjectingFactory::set_recv_filter(FaultInjectingTransport::Filter f) {
  std::lock_guard<std::mutex> lk(mu_);
  recv_filter_ = std::move(f);
}

}  // namespace bertha
