// The batched datapath I/O runtime (src/io/): BufferPool semantics
// (size classes, thread caches, double-return, cross-thread and
// post-destruction returns), native sendmmsg/recvmmsg batching on
// UDP/UDS with partial batches and EINTR, the bulk-dequeue path on mem
// transports, Transport's default batch bodies on batch-unaware ones, the
// epoll Reactor (delivery, remove/shutdown races, fd and pull-thread
// paths), the batch chunnel's single-batched-flush regression, hop
// latency histograms, and the steady-state zero-allocation guarantee
// for the UDP rx path.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "chunnels/batch.hpp"
#include "core/endpoint.hpp"
#include "io/buffer_pool.hpp"
#include "io/reactor.hpp"
#include "net/memchan.hpp"
#include "net/udp.hpp"
#include "net/uds.hpp"
#include "serialize/codec.hpp"
#include "test_helpers.hpp"
#include "trace/hop_stats.hpp"

// --- counting allocator hooks (for the zero-alloc rx guarantee) -------
//
// Global operator new/delete overrides are per-binary (same technique as
// trace_test). Counting is always on; assertions only look at deltas.

static std::atomic<uint64_t> g_allocs{0};

void* operator new(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace bertha {
namespace {

using testing_support::TestWorld;

Bytes payload_of(std::string_view s) { return to_bytes(s); }

// --- BufferPool -------------------------------------------------------

TEST(BufferPoolTest, AcquireSizesAndOversize) {
  BufferPool pool;
  auto b = pool.acquire(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_GE(b.capacity(), 100u);
  auto big = pool.acquire(BufferPool::kMaxClassBytes + 1);
  EXPECT_EQ(big.size(), BufferPool::kMaxClassBytes + 1);
  EXPECT_EQ(pool.stats().oversize, 1u);
}

TEST(BufferPoolTest, ResizePreservesContentAndReusesCapacity) {
  BufferPool pool;
  auto b = pool.acquire(4);
  std::memcpy(b.data(), "abcd", 4);
  const uint8_t* before = b.data();
  b.resize(3);  // shrink keeps the block
  EXPECT_EQ(b.data(), before);
  b.resize(200);  // grow within a bigger class; prefix preserved
  EXPECT_EQ(std::memcmp(b.data(), "abc", 3), 0);
}

TEST(BufferPoolTest, DoubleResetIsIdempotent) {
  BufferPool pool;
  auto b = pool.acquire(64);
  b.reset();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
  b.reset();  // second return must be a no-op, not a double free
  EXPECT_EQ(b.size(), 0u);
}

TEST(BufferPoolTest, SteadyStateServesFromCaches) {
  BufferPool pool;
  for (int i = 0; i < 32; i++) {
    auto b = pool.acquire(1024);
    b.resize(512);
  }  // each iteration returns its block before the next acquire
  auto s = pool.stats();
  EXPECT_EQ(s.acquires, 32u);
  // First acquire allocates; everything after recycles.
  EXPECT_GE(s.thread_hits + s.shared_hits, 31u);
  EXPECT_EQ(s.fresh, 1u);
}

TEST(BufferPoolTest, CrossThreadReturnIsSafe) {
  BufferPool pool;
  auto b = pool.acquire(256);
  std::thread t([buf = std::move(b)]() mutable { buf.reset(); });
  t.join();
  auto again = pool.acquire(256);
  EXPECT_EQ(again.size(), 256u);
}

TEST(BufferPoolTest, ReturnAfterPoolDestructionIsSafe) {
  PooledBytes survivor;
  {
    BufferPool pool;
    survivor = pool.acquire(512);
  }
  // The handle pins the pool core; returning now must not crash.
  survivor.reset();
}

// --- native batch transports -----------------------------------------

TEST(UdpBatchTest, SendBatchRecvBatchRoundTrip) {
  auto a = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  auto b = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();

  std::vector<Datagram> out(8);
  for (size_t i = 0; i < out.size(); i++) {
    out[i].dst = b->local_addr();
    out[i].payload.assign(payload_of("msg" + std::to_string(i)));
  }
  auto sent = a->send_batch(out);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(sent.value(), 8u);

  std::set<std::string> got;
  std::vector<Datagram> in(32);
  while (got.size() < 8) {
    auto n = b->recv_batch(std::span<Datagram>(in), Deadline::after(seconds(5)));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(n.value(), 0u);
    for (size_t i = 0; i < n.value(); i++) {
      got.insert(to_string(in[i].payload.view()));
      EXPECT_EQ(in[i].src, a->local_addr());
    }
  }
  for (int i = 0; i < 8; i++)
    EXPECT_TRUE(got.count("msg" + std::to_string(i))) << i;
}

TEST(UdpBatchTest, PartialBatchReturnsOnlyWhatArrived) {
  auto a = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  auto b = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  for (int i = 0; i < 3; i++)
    ASSERT_TRUE(a->send_to(b->local_addr(), payload_of("p")).ok());
  sleep_for(ms(50));  // let all three land in the socket buffer
  std::vector<Datagram> in(32);
  auto n = b->recv_batch(std::span<Datagram>(in), Deadline::after(seconds(5)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);  // partial batch, not a blocked wait for 32
}

TEST(UdpBatchTest, ExpiredDeadlineIsNonBlockingPoll) {
  auto t = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  std::vector<Datagram> in(4);
  auto n = t->recv_batch(std::span<Datagram>(in),
                         Deadline::after(Duration::zero()));
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, Errc::timed_out);
}

TEST(UdsBatchTest, SendBatchRecvBatchRoundTrip) {
  auto a = UdsTransport::bind(Addr::uds("")).value();
  auto b = UdsTransport::bind(Addr::uds("")).value();
  std::vector<Datagram> out(5);
  for (size_t i = 0; i < out.size(); i++) {
    out[i].dst = b->local_addr();
    out[i].payload.assign(payload_of("u" + std::to_string(i)));
  }
  ASSERT_TRUE(a->send_batch(out).ok());
  size_t got = 0;
  std::vector<Datagram> in(16);
  while (got < 5) {
    auto n = b->recv_batch(std::span<Datagram>(in), Deadline::after(seconds(5)));
    ASSERT_TRUE(n.ok());
    got += n.value();
  }
  EXPECT_EQ(got, 5u);
}

TEST(MemBatchTest, BulkDequeueDrainsQueueInOneCall) {
  auto net = MemNetwork::create();
  auto a = net->bind(Addr::mem("a", 1)).value();
  auto b = net->bind(Addr::mem("b", 1)).value();
  for (int i = 0; i < 10; i++)
    ASSERT_TRUE(a->send_to(b->local_addr(), payload_of("m")).ok());
  std::vector<Datagram> in(32);
  auto n = b->recv_batch(std::span<Datagram>(in), Deadline::after(seconds(5)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 10u);  // single-lock bulk dequeue gets them all
  EXPECT_EQ(in[0].src, a->local_addr());
}

// EINTR during a blocked recvmmsg wait must retry, not surface an error.
TEST(UdpBatchTest, EintrDuringBlockedRecvRetries) {
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, nullptr), 0);

  auto a = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  auto b = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  std::atomic<bool> done{false};
  Result<size_t> res = err(Errc::internal, "unset");
  std::vector<Datagram> in(8);
  std::thread receiver([&] {
    res = b->recv_batch(std::span<Datagram>(in), Deadline::after(seconds(10)));
    done = true;
  });
  sleep_for(ms(50));  // let it block
  pthread_kill(receiver.native_handle(), SIGUSR1);
  sleep_for(ms(50));
  EXPECT_FALSE(done.load());  // signal alone must not wake it with an error
  ASSERT_TRUE(a->send_to(b->local_addr(), payload_of("after-eintr")).ok());
  receiver.join();
  ASSERT_TRUE(res.ok()) << res.error().to_string();
  EXPECT_EQ(res.value(), 1u);
  EXPECT_EQ(to_string(in[0].payload.view()), "after-eintr");
}

// --- default batch bodies ---------------------------------------------

// A decorator that deliberately hides the inner transport's batch
// overrides: what every batch-unaware Transport looks like, so its
// batch calls run Transport's default send_to loop / recv-then-drain.
class PlainTransport final : public Transport {
 public:
  explicit PlainTransport(TransportPtr inner) : inner_(std::move(inner)) {}
  Result<void> send_to(const Addr& dst, BytesView payload) override {
    return inner_->send_to(dst, payload);
  }
  Result<Packet> recv(Deadline deadline) override {
    return inner_->recv(deadline);
  }
  const Addr& local_addr() const override { return inner_->local_addr(); }
  void close() override { inner_->close(); }

 private:
  TransportPtr inner_;
};

TEST(FallbackAdapterTest, BatchCallsWorkOnPlainTransports) {
  auto net = MemNetwork::create();
  PlainTransport a(net->bind(Addr::mem("a", 1)).value());
  PlainTransport b(net->bind(Addr::mem("b", 1)).value());

  std::vector<Datagram> out(6);
  for (size_t i = 0; i < out.size(); i++) {
    out[i].dst = Addr::mem("b", 1);
    out[i].payload.assign(payload_of("f" + std::to_string(i)));
  }
  auto sent = a.send_batch(out);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(sent.value(), 6u);

  size_t got = 0;
  std::vector<Datagram> in(16);
  while (got < 6) {
    auto n = b.recv_batch(std::span<Datagram>(in), Deadline::after(seconds(5)));
    ASSERT_TRUE(n.ok());
    for (size_t i = 0; i < n.value(); i++)
      EXPECT_EQ(to_string(in[i].payload.view()),
                "f" + std::to_string(got + i));
    got += n.value();
  }
}

// --- reactor ----------------------------------------------------------

TEST(ReactorTest, DeliversUdpTrafficThroughEpollWorkers) {
  auto reactor = Reactor::create().value();
  auto rx = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  auto tx = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  Addr dst = rx->local_addr();

  std::mutex mu;
  std::vector<std::string> got;
  std::shared_ptr<Transport> shared_rx(std::move(rx));
  auto id = reactor->add(shared_rx, [&](std::span<Datagram> batch) {
    std::lock_guard<std::mutex> lk(mu);
    for (auto& d : batch) got.push_back(to_string(d.payload.view()));
  });
  ASSERT_TRUE(id.ok());

  for (int i = 0; i < 20; i++)
    ASSERT_TRUE(tx->send_to(dst, payload_of("r" + std::to_string(i))).ok());
  Deadline dl = Deadline::after(seconds(10));
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (got.size() >= 20) break;
    }
    ASSERT_FALSE(dl.expired()) << "reactor never delivered all datagrams";
    sleep_for(ms(5));
  }
  reactor->remove(id.value());
  auto s = reactor->stats();
  EXPECT_GE(s.datagrams, 20u);
  EXPECT_GE(s.batches, 1u);
  reactor->shutdown();
}

TEST(ReactorTest, PullThreadServesNonFdTransports) {
  auto net = MemNetwork::create();
  auto rx = net->bind(Addr::mem("rx", 1)).value();
  auto tx = net->bind(Addr::mem("tx", 1)).value();
  ASSERT_EQ(rx->poll_fd(), -1);  // forces the fallback pull thread

  auto reactor = Reactor::create().value();
  std::atomic<size_t> got{0};
  std::shared_ptr<Transport> shared_rx(std::move(rx));
  auto id = reactor->add(shared_rx,
                         [&](std::span<Datagram> b) { got += b.size(); });
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 10; i++)
    ASSERT_TRUE(tx->send_to(Addr::mem("rx", 1), payload_of("m")).ok());
  Deadline dl = Deadline::after(seconds(10));
  while (got.load() < 10 && !dl.expired()) sleep_for(ms(5));
  EXPECT_EQ(got.load(), 10u);
  reactor->shutdown();  // shutdown (not remove) must also stop pullers
}

TEST(ReactorTest, ShutdownWakesIdleWorkersPromptly) {
  Reactor::Options opts;
  opts.workers = 3;
  auto reactor = Reactor::create(opts).value();
  auto rx = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  std::shared_ptr<Transport> shared_rx(std::move(rx));
  ASSERT_TRUE(reactor->add(shared_rx, [](std::span<Datagram>) {}).ok());
  Stopwatch sw;
  reactor->shutdown();  // workers are all blocked in epoll_wait
  EXPECT_LT(sw.elapsed(), seconds(5));
  reactor->shutdown();  // idempotent
}

TEST(ReactorTest, RemoveDuringTrafficNeverDeliversAfterReturn) {
  auto reactor = Reactor::create().value();
  auto rx = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  Addr dst = rx->local_addr();
  std::shared_ptr<Transport> shared_rx(std::move(rx));

  std::atomic<bool> removed{false};
  std::atomic<bool> delivered_after_remove{false};
  auto id = reactor->add(shared_rx, [&](std::span<Datagram>) {
    if (removed.load()) delivered_after_remove = true;
  });
  ASSERT_TRUE(id.ok());

  std::atomic<bool> stop{false};
  std::thread sender([&] {
    auto tx = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
    while (!stop.load()) (void)tx->send_to(dst, payload_of("flood"));
  });
  sleep_for(ms(30));  // traffic flowing through the handler
  reactor->remove(id.value());  // blocks until the handler is quiesced
  removed = true;
  sleep_for(ms(30));
  stop = true;
  sender.join();
  EXPECT_FALSE(delivered_after_remove.load());
  reactor->shutdown();
}

TEST(ReactorTest, ClosingTransportRetiresRegistration) {
  auto reactor = Reactor::create().value();
  auto net = MemNetwork::create();
  auto rx = net->bind(Addr::mem("rx", 9)).value();
  std::shared_ptr<Transport> shared_rx(std::move(rx));
  auto id = reactor->add(shared_rx, [](std::span<Datagram>) {});
  ASSERT_TRUE(id.ok());
  shared_rx->close();  // pull thread sees cancelled and retires
  sleep_for(ms(50));
  reactor->remove(id.value());  // already-retired id: no-op, no deadlock
  reactor->shutdown();
}

// --- batch chunnel: one flush, one batched send -----------------------

// Records every send/send_batch the batch chunnel issues and makes the
// wire datagrams available for decoding.
class CountingConn final : public Connection {
 public:
  Result<void> send(Msg m) override {
    std::lock_guard<std::mutex> lk(mu_);
    plain_sends_++;
    wires_.push_back(std::move(m.payload));
    return ok();
  }
  Result<void> send_batch(std::span<Msg> msgs) override {
    std::lock_guard<std::mutex> lk(mu_);
    batch_sends_++;
    for (Msg& m : msgs) wires_.push_back(std::move(m.payload));
    return ok();
  }
  Result<Msg> recv(Deadline) override {
    return err(Errc::unavailable, "send-only");
  }
  const Addr& local_addr() const override { return addr_; }
  const Addr& peer_addr() const override { return addr_; }
  void close() override {}

  int plain_sends() const {
    std::lock_guard<std::mutex> lk(mu_);
    return plain_sends_;
  }
  int batch_sends() const {
    std::lock_guard<std::mutex> lk(mu_);
    return batch_sends_;
  }
  std::vector<Bytes> wires() const {
    std::lock_guard<std::mutex> lk(mu_);
    return wires_;
  }

 private:
  mutable std::mutex mu_;
  int plain_sends_ = 0;
  int batch_sends_ = 0;
  std::vector<Bytes> wires_;
  Addr addr_ = Addr::mem("counting", 1);
};

TEST(BatchChunnelBatchingTest, OversizedFlushIssuesOneBatchedSend) {
  auto counter = std::make_shared<CountingConn>();
  BatchOptions opts;
  opts.max_batch = 6;
  // Two ~20-byte framed items fit per datagram, but five raw payloads
  // stay under the byte watermark — so the count trigger fires on the
  // sixth send with all six pending, and the flush must split them.
  opts.max_bytes = 56;
  opts.linger = seconds(10);
  BatchChunnel impl(opts);
  WrapContext ctx;
  auto conn = impl.wrap(counter, ctx).value();

  for (int i = 0; i < 6; i++) {
    Msg m;
    m.payload = Bytes(10, static_cast<uint8_t>('a' + i));
    ASSERT_TRUE(conn->send(std::move(m)).ok());
  }
  conn->close();

  // The flush of 6 pending messages must go out as ONE batched transport
  // call carrying three wire datagrams — not three sequential sends.
  EXPECT_EQ(counter->batch_sends(), 1);
  EXPECT_EQ(counter->plain_sends(), 0);
  auto wires = counter->wires();
  ASSERT_EQ(wires.size(), 3u);

  // And the wire format must still unbatch to all six, in order.
  int seen = 0;
  for (const Bytes& wire : wires) {
    Reader r(wire);
    ASSERT_EQ(r.get_u8().value(), 'B');
    ASSERT_EQ(r.get_u8().value(), 'A');
    uint64_t count = r.get_varint().value();
    for (uint64_t k = 0; k < count; k++) {
      Bytes item = r.get_bytes().value();
      ASSERT_EQ(item.size(), 10u);
      EXPECT_EQ(item[0], static_cast<uint8_t>('a' + seen));
      seen++;
    }
  }
  EXPECT_EQ(seen, 6);
}

TEST(BatchChunnelBatchingTest, SingleDatagramFlushStaysAPlainSend) {
  auto counter = std::make_shared<CountingConn>();
  BatchOptions opts;
  opts.max_batch = 4;
  opts.max_bytes = 32 * 1024;
  opts.linger = seconds(10);
  BatchChunnel impl(opts);
  WrapContext ctx;
  auto conn = impl.wrap(counter, ctx).value();
  for (int i = 0; i < 4; i++) ASSERT_TRUE(conn->send(Msg::of("small")).ok());
  conn->close();
  EXPECT_EQ(counter->plain_sends(), 1);
  EXPECT_EQ(counter->batch_sends(), 0);
}

// --- hop latency histograms ------------------------------------------

TEST(HopStatsTest, HistogramRecordsAndSummarizes) {
  AtomicHistogram h;
  for (uint64_t v : {100u, 200u, 400u, 800u, 100000u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_GT(h.mean(), 0.0);
  // Log-bucketed: p50 lands within a quarter-octave of 400.
  EXPECT_GE(h.percentile(50), 200.0);
  EXPECT_LE(h.percentile(50), 800.0);
  EXPECT_GE(h.percentile(95), 50000.0);
}

TEST(HopStatsTest, FoldsIntoSnapshotsViaProvider) {
  auto stats = std::make_shared<HopLatencyStats>();
  stats->cell("encrypt/xor")->send_ns.record(1234);
  stats->cell("encrypt/xor")->recv_ns.record(5678);
  MetricsRegistry m;
  attach_hop_stats_provider(m, stats);
  auto snap = m.snapshot();
  ASSERT_EQ(snap.histograms.count("hop.send.encrypt/xor"), 1u);
  ASSERT_EQ(snap.histograms.count("hop.recv.encrypt/xor"), 1u);
  EXPECT_EQ(snap.histograms["hop.send.encrypt/xor"].count, 1u);
  // The text exporter carries them too.
  EXPECT_NE(m.to_string().find("hop.send.encrypt/xor"), std::string::npos);
}

TEST(HopStatsTest, TracedConnectionsFeedPerHopHistograms) {
  auto world = TestWorld::make();
  // A runtime with tracing enabled (sampling nearly off — hop histograms
  // must record EVERY message regardless of path sampling).
  RuntimeConfig cfg;
  cfg.host_id = "h-cli";
  cfg.transports = std::make_shared<DefaultTransportFactory>(
      world.mem, world.sim, "h-cli");
  cfg.discovery = world.discovery;
  Tracer::Options topts;
  topts.enabled = true;
  topts.sample_every = 1 << 30;
  cfg.tracer = std::make_shared<Tracer>(topts);
  auto cli_rt = Runtime::create(std::move(cfg)).value();
  ASSERT_TRUE(register_builtin_chunnels(*cli_rt).ok());
  auto srv_rt = world.runtime("h-srv");

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("encrypt")))
                      .value()
                      .listen(Addr::mem("h-srv", 77))
                      .value();
  auto conn = cli_rt->endpoint("cli", wrap(ChunnelSpec("encrypt")))
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(conn->send(Msg::of("tick")).ok());
    ASSERT_TRUE(srv->recv(Deadline::after(seconds(5))).ok());
  }

  auto snap = cli_rt->metrics()->snapshot();
  bool found = false;
  for (const auto& [name, summary] : snap.histograms) {
    if (name.rfind("hop.send.", 0) == 0 && summary.count >= 10) found = true;
  }
  EXPECT_TRUE(found) << "no hop.send.* histogram with >=10 samples in:\n"
                     << cli_rt->metrics()->to_string();
  conn->close();
  listener->close();
}

// --- zero-allocation steady state ------------------------------------

TEST(ZeroAllocTest, UdpRecvBatchSteadyStateDoesNotAllocate) {
  auto a = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  auto b = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();

  std::vector<Datagram> in(16);
  auto fill = [&](int n) {
    for (int i = 0; i < n; i++)
      ASSERT_TRUE(a->send_to(b->local_addr(), Bytes(1000, 0x5a)).ok());
    sleep_for(ms(50));
  };

  // Warm-up round: first use grows each slot's pooled buffer.
  fill(16);
  size_t drained = 0;
  while (drained < 16) {
    auto n = b->recv_batch(std::span<Datagram>(in), Deadline::after(seconds(5)));
    ASSERT_TRUE(n.ok());
    drained += n.value();
  }

  // Steady state: same slots, packets already queued — zero heap allocs.
  fill(16);
  uint64_t before = g_allocs.load();
  drained = 0;
  while (drained < 16) {
    auto n = b->recv_batch(std::span<Datagram>(in), Deadline::after(seconds(5)));
    ASSERT_TRUE(n.ok());
    drained += n.value();
  }
  uint64_t delta = g_allocs.load() - before;
  EXPECT_EQ(delta, 0u) << "steady-state rx path allocated " << delta
                       << " times";
}

}  // namespace
}  // namespace bertha
