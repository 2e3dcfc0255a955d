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
  Datagram d;
  BERTHA_TRY(recv_batch(std::span<Datagram>(&d, 1), deadline));
  Packet p;
  p.src = std::move(d.src);
  p.payload = d.payload.to_bytes();
  return p;
}

size_t FaultInjectingTransport::take_pending_locked(std::span<Datagram> out,
                                                    size_t n) {
  while (n < out.size() && !rx_pending_.empty()) {
    out[n].src = std::move(rx_pending_.front().src);
    out[n].payload.assign(rx_pending_.front().payload);
    rx_pending_.pop_front();
    n_.received++;
    n++;
  }
  return n;
}

size_t FaultInjectingTransport::rx_fault_locked(const Datagram& d,
                                                std::span<Datagram> out,
                                                size_t n) {
  if (recv_filter_ && recv_filter_(d.src, d.payload.view())) {
    n_.rx_dropped++;
    return n;
  }
  if (rx_partitioned_ || rng_.chance(opts_.drop)) {
    n_.rx_dropped++;
    return n;
  }
  if (rng_.chance(opts_.duplicate)) {
    n_.rx_duplicated++;
    rx_pending_.push_back(Packet{d.src, d.payload.to_bytes()});
  }
  if (!rx_held_ && rng_.chance(opts_.reorder)) {
    n_.rx_reordered++;
    rx_held_ = Packet{d.src, d.payload.to_bytes()};
    return n;
  }
  auto emit = [&](const Addr& src, BytesView payload) {
    if (n < out.size()) {
      out[n].src = src;
      out[n].payload.assign(payload);
      n_.received++;
      n++;
    } else {
      rx_pending_.push_back(Packet{src, Bytes(payload.begin(), payload.end())});
    }
  };
  emit(d.src, d.payload.view());
  // The held datagram goes out right after the current one: that
  // inversion is what "reorder" means.
  if (rx_held_) {
    Packet held = std::move(*rx_held_);
    rx_held_.reset();
    emit(held.src, held.payload);
  }
  return n;
}

Result<size_t> FaultInjectingTransport::recv_batch(std::span<Datagram> out,
                                                   Deadline deadline) {
  if (out.empty()) return size_t(0);
  std::vector<Datagram> fresh(out.size());
  size_t n = 0;
  for (;;) {
    bool in_hand;
    {
      std::lock_guard<std::mutex> lk(mu_);
      n = take_pending_locked(out, n);
      if (n == out.size()) return n;
      in_hand = n > 0 || rx_held_.has_value();
    }
    // Block only while nothing is in hand: a held datagram waits for
    // datagrams already queued behind it, never for new traffic.
    std::span<Datagram> room(fresh.data(), out.size() - n);
    auto r = inner_->recv_batch(
        room, in_hand ? Deadline::after(Duration::zero()) : deadline);
    std::lock_guard<std::mutex> lk(mu_);
    size_t got = r.ok() ? r.value() : 0;
    for (size_t i = 0; i < got; i++) n = rx_fault_locked(fresh[i], out, n);
    if (got == room.size()) continue;  // the inner transport may have more
    // The inner transport ran dry (or failed). Nothing may stay buffered
    // behind a poll_fd() that reads empty: release the held datagram and
    // hand out everything pending.
    if (rx_held_) {
      rx_pending_.push_back(std::move(*rx_held_));
      rx_held_.reset();
    }
    n = take_pending_locked(out, n);
    if (n > 0) return n;
    if (!r.ok()) return r.error();
    // Every fresh datagram was dropped; wait for more.
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
