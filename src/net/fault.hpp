// FaultInjectingTransport: a decorator over any Transport that injects
// seeded faults — drop, duplicate, reorder, delay, and one-way partition
// — so the fault-tolerance machinery (RPC retries, leases, degraded-mode
// negotiation, transition rollback) can be exercised deterministically.
//
// Probabilistic faults apply independently to the send and receive paths
// of the wrapped endpoint; wrap both ends of a flow to fault both
// directions with independent streams. Filters give tests surgical
// control (e.g. "drop exactly the first discovery response").
//
// Receive side: one pipeline (recv is a one-slot recv_batch) draws, per
// datagram and in this order, filter, drop, duplicate, reorder. poll_fd()
// is the inner transport's fd, so the decorator keeps Transport's
// readiness rule: a recv_batch that returns fewer datagrams than it had
// slots leaves nothing in rx_pending_ or rx_held_. A held (reordered)
// datagram therefore swaps only with datagrams already waiting in the
// inner transport, and is released when it runs dry.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "util/clock.hpp"
#include "util/rand.hpp"

namespace bertha {

class FaultInjectingTransport final : public Transport {
 public:
  struct Options {
    double drop = 0.0;       // per-datagram drop probability
    double duplicate = 0.0;  // per-datagram duplication probability
    double reorder = 0.0;    // probability a datagram is held past the next
    double delay = 0.0;      // probability a sent datagram is delayed
    Duration delay_min = ms(1);
    Duration delay_max = ms(5);
    uint64_t seed = 1;
  };

  // Returns true to drop the datagram. Called with the remote addr (dst
  // for sends, src for receives) and the raw payload.
  using Filter = std::function<bool(const Addr&, BytesView)>;

  struct Counters {
    uint64_t sent = 0;
    uint64_t tx_dropped = 0;
    uint64_t tx_duplicated = 0;
    uint64_t tx_reordered = 0;
    uint64_t tx_delayed = 0;
    uint64_t received = 0;
    uint64_t rx_dropped = 0;
    uint64_t rx_duplicated = 0;
    uint64_t rx_reordered = 0;
  };

  FaultInjectingTransport(TransportPtr inner, Options opts);
  ~FaultInjectingTransport() override;

  Result<void> send_to(const Addr& dst, BytesView payload) override;
  Result<Packet> recv(Deadline deadline = Deadline::never()) override;
  const Addr& local_addr() const override { return inner_->local_addr(); }
  void close() override;

  // Faults apply per datagram inside a batch, with the same seeded
  // decision stream as the scalar calls (send_batch keeps Transport's
  // send_to loop for exactly that reason).
  Result<size_t> recv_batch(std::span<Datagram> out,
                            Deadline deadline = Deadline::never()) override;
  int poll_fd() const override { return inner_->poll_fd(); }

  // One-way partitions, togglable at runtime. partition(true, false)
  // blackholes everything this endpoint sends while still receiving;
  // partition(false, false) heals.
  void partition(bool tx, bool rx);

  void set_send_filter(Filter f);
  void set_recv_filter(Filter f);

  Counters counters() const;
  Transport& inner() { return *inner_; }

 private:
  struct Delayed {
    TimePoint due;
    Addr dst;
    Bytes payload;
  };

  void timer_loop();
  void ensure_timer_locked();
  // Moves rx_pending_ into out[n..] while there is room; returns the new
  // fill count.
  size_t take_pending_locked(std::span<Datagram> out, size_t n);
  // Runs one received datagram through the rx fault draws; survivors go
  // to out[n..] while there is room, else to rx_pending_.
  size_t rx_fault_locked(const Datagram& d, std::span<Datagram> out, size_t n);

  TransportPtr inner_;
  Options opts_;

  mutable std::mutex mu_;
  Rng rng_;  // guarded by mu_
  bool tx_partitioned_ = false;
  bool rx_partitioned_ = false;
  Filter send_filter_;
  Filter recv_filter_;
  std::optional<std::pair<Addr, Bytes>> tx_held_;  // reorder hold slot
  std::optional<Packet> rx_held_;
  std::deque<Packet> rx_pending_;  // duplicates / overflow of a full batch
  Counters n_;

  // Delayed sends, flushed by a lazily started timer thread.
  std::vector<Delayed> delay_q_;  // min-heap by due time
  std::condition_variable delay_cv_;
  std::thread timer_;
  bool timer_started_ = false;
  bool closing_ = false;
};

// TransportFactory wrapper: every bound transport is fault-injected with
// the same knobs (seeds decorrelated per bind so endpoints fault
// independently).
class FaultInjectingFactory final : public TransportFactory {
 public:
  FaultInjectingFactory(std::shared_ptr<TransportFactory> inner,
                        FaultInjectingTransport::Options opts)
      : inner_(std::move(inner)), opts_(opts) {}

  Result<TransportPtr> bind(const Addr& addr) override;

  // Filters installed on every *subsequently* bound transport. Capture a
  // shared atomic flag to arm/disarm mid-test without re-installing.
  void set_send_filter(FaultInjectingTransport::Filter f);
  void set_recv_filter(FaultInjectingTransport::Filter f);

 private:
  std::shared_ptr<TransportFactory> inner_;
  FaultInjectingTransport::Options opts_;
  std::mutex mu_;
  uint64_t binds_ = 0;
  FaultInjectingTransport::Filter send_filter_;
  FaultInjectingTransport::Filter recv_filter_;
};

}  // namespace bertha
