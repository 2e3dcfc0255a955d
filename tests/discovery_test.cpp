// Tests for the registry, the discovery state (entries + resource
// pools), and the discovery wire protocol (server + remote client over
// an in-memory network).
#include <gtest/gtest.h>

#include <thread>

#include "core/discovery.hpp"
#include "net/memchan.hpp"
#include "net/uds.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

class FakeChunnel final : public ChunnelImpl {
 public:
  FakeChunnel(std::string type, std::string name, int prio = 0) {
    info_.type = std::move(type);
    info_.name = std::move(name);
    info_.priority = prio;
  }
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext&) override { return inner; }
  Result<void> init() override {
    inited = true;
    return ok();
  }
  void teardown() override { torn_down = true; }

  bool inited = false;
  bool torn_down = false;

 private:
  ImplInfo info_;
};

TEST(RegistryTest, RegisterLookupUnregister) {
  Registry reg;
  auto impl = std::make_shared<FakeChunnel>("t", "t/x");
  ASSERT_TRUE(reg.register_impl(impl).ok());
  EXPECT_TRUE(impl->inited);
  EXPECT_TRUE(reg.has("t", "t/x"));
  EXPECT_TRUE(reg.lookup("t", "t/x").ok());
  EXPECT_FALSE(reg.lookup("t", "t/y").ok());
  EXPECT_FALSE(reg.lookup("u", "t/x").ok());
  ASSERT_TRUE(reg.unregister_impl("t", "t/x").ok());
  EXPECT_TRUE(impl->torn_down);
  EXPECT_FALSE(reg.has("t", "t/x"));
  EXPECT_FALSE(reg.unregister_impl("t", "t/x").ok());
}

TEST(RegistryTest, DuplicateRejected) {
  Registry reg;
  ASSERT_TRUE(reg.register_impl(std::make_shared<FakeChunnel>("t", "t/x")).ok());
  auto r = reg.register_impl(std::make_shared<FakeChunnel>("t", "t/x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::already_exists);
}

TEST(RegistryTest, NullAndAnonymousRejected) {
  Registry reg;
  EXPECT_FALSE(reg.register_impl(nullptr).ok());
  EXPECT_FALSE(reg.register_impl(std::make_shared<FakeChunnel>("", "")).ok());
}

TEST(RegistryTest, ParameterizedNameFallsBackToBase) {
  Registry reg;
  ASSERT_TRUE(
      reg.register_impl(std::make_shared<FakeChunnel>("m", "m/switch")).ok());
  // Instance-suffixed names resolve to the base factory.
  EXPECT_TRUE(reg.lookup("m", "m/switch:sim://g:7").ok());
  EXPECT_FALSE(reg.lookup("m", "m/other:sim://g:7").ok());
}

TEST(RegistryTest, TypesAndInfos) {
  Registry reg;
  ASSERT_TRUE(reg.register_impl(std::make_shared<FakeChunnel>("a", "a/1")).ok());
  ASSERT_TRUE(reg.register_impl(std::make_shared<FakeChunnel>("a", "a/2")).ok());
  ASSERT_TRUE(reg.register_impl(std::make_shared<FakeChunnel>("b", "b/1")).ok());
  EXPECT_EQ(reg.types().size(), 2u);
  EXPECT_EQ(reg.infos_for("a").size(), 2u);
  EXPECT_EQ(reg.lookup_type("b").size(), 1u);
  EXPECT_TRUE(reg.infos_for("zzz").empty());
}

TEST(DiscoveryStateTest, RegisterQueryUnregister) {
  DiscoveryState state;
  ImplInfo info;
  info.type = "shard";
  info.name = "shard/xdp";
  ASSERT_TRUE(state.register_impl(info).ok());
  auto entries = state.query("shard");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 1u);
  EXPECT_EQ(entries.value()[0].name, "shard/xdp");
  EXPECT_TRUE(state.query("nope").value().empty());
  ASSERT_TRUE(state.unregister_impl("shard", "shard/xdp").ok());
  EXPECT_TRUE(state.query("shard").value().empty());
}

TEST(DiscoveryStateTest, ReRegistrationUpdates) {
  DiscoveryState state;
  ImplInfo info;
  info.type = "t";
  info.name = "t/x";
  info.priority = 1;
  ASSERT_TRUE(state.register_impl(info).ok());
  info.priority = 9;
  ASSERT_TRUE(state.register_impl(info).ok());
  auto entries = state.query("t").value();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].priority, 9);
}

TEST(DiscoveryStateTest, ResourcePoolsAllOrNothing) {
  DiscoveryState state;
  ASSERT_TRUE(state.set_pool("switch.slots", 2).ok());
  ASSERT_TRUE(state.set_pool("nic.engines", 1).ok());

  auto a1 = state.acquire({{"switch.slots", 1}, {"nic.engines", 1}});
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(state.pool_in_use("switch.slots"), 1u);
  EXPECT_EQ(state.pool_in_use("nic.engines"), 1u);

  // nic.engines exhausted: the whole acquisition fails, leaving
  // switch.slots untouched.
  auto a2 = state.acquire({{"switch.slots", 1}, {"nic.engines", 1}});
  ASSERT_FALSE(a2.ok());
  EXPECT_EQ(a2.error().code, Errc::resource_exhausted);
  EXPECT_EQ(state.pool_in_use("switch.slots"), 1u);

  ASSERT_TRUE(state.release(a1.value()).ok());
  EXPECT_EQ(state.pool_in_use("switch.slots"), 0u);
  EXPECT_EQ(state.pool_in_use("nic.engines"), 0u);
  EXPECT_FALSE(state.release(a1.value()).ok());  // double release
}

TEST(DiscoveryStateTest, UnknownPoolFails) {
  DiscoveryState state;
  auto r = state.acquire({{"ghost", 1}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
}

TEST(DiscoveryStateTest, CapacityQueryable) {
  DiscoveryState state;
  ASSERT_TRUE(state.set_pool("p", 5).ok());
  EXPECT_EQ(state.pool_capacity("p"), 5u);
  EXPECT_EQ(state.pool_capacity("q"), 0u);
}

// --- wire protocol ---

class RemoteDiscoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = MemNetwork::create();
    state_ = std::make_shared<DiscoveryState>();
    auto st = net_->bind(Addr::mem("discovery", 1));
    ASSERT_TRUE(st.ok());
    server_ = std::make_unique<DiscoveryServer>(std::move(st).value(), state_);
    auto ct = net_->bind(Addr::mem("client", 0));
    ASSERT_TRUE(ct.ok());
    client_ = std::make_unique<RemoteDiscovery>(std::move(ct).value(),
                                                server_->addr());
  }

  std::shared_ptr<MemNetwork> net_;
  std::shared_ptr<DiscoveryState> state_;
  std::unique_ptr<DiscoveryServer> server_;
  std::unique_ptr<RemoteDiscovery> client_;
};

TEST_F(RemoteDiscoveryTest, RegisterAndQueryOverTheWire) {
  ImplInfo info;
  info.type = "encrypt";
  info.name = "encrypt/nic";
  info.priority = 10;
  info.props["device"] = "nic0";
  ASSERT_TRUE(client_->register_impl(info).ok());
  auto entries = client_->query("encrypt");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 1u);
  EXPECT_EQ(entries.value()[0], info);
  EXPECT_GE(server_->requests_served(), 2u);
}

TEST_F(RemoteDiscoveryTest, AcquireReleaseOverTheWire) {
  ASSERT_TRUE(client_->set_pool("pool", 1).ok());
  auto a = client_->acquire({{"pool", 1}});
  ASSERT_TRUE(a.ok());
  auto b = client_->acquire({{"pool", 1}});
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.error().code, Errc::resource_exhausted);
  ASSERT_TRUE(client_->release(a.value()).ok());
  EXPECT_TRUE(client_->acquire({{"pool", 1}}).ok());
}

TEST_F(RemoteDiscoveryTest, ErrorsPropagateWithCode) {
  auto r = client_->unregister_impl("ghost", "ghost/x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
}

TEST_F(RemoteDiscoveryTest, UnreachableServerTimesOut) {
  auto ct = net_->bind(Addr::mem("client2", 0));
  ASSERT_TRUE(ct.ok());
  RemoteDiscovery::Options opts;
  opts.rpc_timeout = ms(30);
  opts.retries = 1;
  RemoteDiscovery lost(std::move(ct).value(), Addr::mem("nowhere", 9), opts);
  auto r = lost.query("x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unavailable);
}

// One round trip answers a whole chain: types with entries, a type with
// none (present, empty), and a type named twice (answered once).
TEST_F(RemoteDiscoveryTest, QueryTypesAnswersEveryTypeInOneRoundTrip) {
  ImplInfo a;
  a.type = "encrypt";
  a.name = "encrypt/nic";
  ImplInfo b;
  b.type = "frame";
  b.name = "frame/hw";
  ASSERT_TRUE(state_->register_impl(a).ok());
  ASSERT_TRUE(state_->register_impl(b).ok());
  uint64_t before = server_->requests_served();
  auto r = client_->query_types({"encrypt", "frame", "keepalive", "encrypt"});
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(server_->requests_served(), before + 1);
  const ImplsByType& got = r.value();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.at("encrypt"), std::vector<ImplInfo>{a});
  EXPECT_EQ(got.at("frame"), std::vector<ImplInfo>{b});
  EXPECT_TRUE(got.at("keepalive").empty());
  EXPECT_EQ(got, state_->query_types({"encrypt", "frame", "keepalive"}).value());
}

// An answer too big for one datagram comes back as an error at once, not
// as an RPC timeout after every retry.
TEST_F(RemoteDiscoveryTest, OversizedAnswerIsAnErrorNotATimeout) {
  for (int i = 0; i < 80; i++) {
    ImplInfo info;
    info.type = "fat";
    info.name = "fat/" + std::to_string(i);
    info.props["blob"] = std::string(1024, 'x');
    ASSERT_TRUE(state_->register_impl(info).ok());
  }
  Stopwatch sw;
  auto r = client_->query_types({"fat", "encrypt"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::resource_exhausted) << r.error().to_string();
  EXPECT_LT(sw.elapsed(), ms(400)) << "waited for a timeout";
  auto single = client_->query("fat");
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error().code, Errc::resource_exhausted);
}

// --- §5: discovery round trips per connection ---
//
// A server runtime reaching a discovery daemon over a unix socket pays
// one daemon round trip per connection, however long the chain.

class ConnectRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sock = UdsTransport::bind(Addr::uds("rt-disc-" + make_unique_id()));
    ASSERT_TRUE(sock.ok());
    daemon_ = std::make_unique<DiscoveryServer>(
        std::move(sock).value(), std::make_shared<DiscoveryState>());
    auto csock = UdsTransport::bind(Addr::uds(""));
    ASSERT_TRUE(csock.ok());
    RemoteDiscovery::Options ro;
    ro.rpc_timeout = ms(50);
    ro.retries = 1;
    srv_rt_ = runtime(std::make_shared<RemoteDiscovery>(
        std::move(csock).value(), daemon_->addr(), ro));
    cli_rt_ = runtime(std::make_shared<DiscoveryState>());
    std::vector<ChunnelSpec> chain;
    for (const char* t : {"keepalive", "encrypt", "frame", "local_or_remote"})
      chain.emplace_back(t);
    listener_ = srv_rt_->endpoint("srv", ChunnelDag::chain(std::move(chain)))
                    .value()
                    .listen(Addr::udp("127.0.0.1", 0))
                    .value();
  }

  static std::shared_ptr<Runtime> runtime(DiscoveryPtr discovery) {
    RuntimeConfig cfg;
    cfg.host_id = "rt-host";
    cfg.transports = std::make_shared<DefaultTransportFactory>();
    cfg.discovery = std::move(discovery);
    cfg.handshake_timeout = ms(500);
    auto rt = Runtime::create(std::move(cfg)).value();
    EXPECT_TRUE(register_builtin_chunnels(*rt).ok());
    return rt;
  }

  // Connects, echoes one message through the negotiated stack, closes.
  // Returns the listener's degraded count while the connection was up.
  uint64_t connect_once() {
    uint64_t degraded = 0;
    echo_once(degraded);
    return degraded;
  }
  void echo_once(uint64_t& degraded) {
    auto conn = cli_rt_->endpoint("cli", ChunnelDag::empty())
                    .value()
                    .connect(listener_->addr(), Deadline::after(seconds(5)));
    ASSERT_TRUE(conn.ok()) << conn.error().to_string();
    auto srv = listener_->accept(Deadline::after(seconds(5)));
    ASSERT_TRUE(srv.ok()) << srv.error().to_string();
    ASSERT_TRUE(conn.value()->send(Msg::of("ping")).ok());
    auto got = srv.value()->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    EXPECT_EQ(got.value().payload_str(), "ping");
    degraded = listener_->degraded_connections();
    conn.value()->close();
    srv.value()->close();
  }

  std::unique_ptr<DiscoveryServer> daemon_;
  std::shared_ptr<Runtime> srv_rt_;
  std::shared_ptr<Runtime> cli_rt_;
  std::unique_ptr<Listener> listener_;
};

TEST_F(ConnectRoundTripTest, EachConnectCostsOneDaemonRoundTrip) {
  for (int i = 0; i < 5; i++) {
    uint64_t before = daemon_->requests_served();
    EXPECT_EQ(connect_once(), 0u) << "connect " << i << " degraded";
    EXPECT_EQ(daemon_->requests_served() - before, 1u) << "connect " << i;
  }
}

TEST_F(ConnectRoundTripTest, ConnectWithoutDaemonSucceedsDegraded) {
  daemon_.reset();
  EXPECT_EQ(connect_once(), 1u);
}

// --- watch subscriptions ---

ImplInfo watch_info(const std::string& type, const std::string& name,
                    int prio = 0) {
  ImplInfo i;
  i.type = type;
  i.name = name;
  i.priority = prio;
  return i;
}

TEST(DiscoveryWatchTest, DeliversRegisterAndUnregister) {
  DiscoveryState state;
  auto w = state.watch("").value();
  ASSERT_TRUE(state.register_impl(watch_info("encrypt", "encrypt/nic", 7)).ok());
  auto ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok()) << ev.error().to_string();
  EXPECT_EQ(ev.value().kind, WatchKind::impl_registered);
  EXPECT_EQ(ev.value().type, "encrypt");
  EXPECT_EQ(ev.value().name, "encrypt/nic");
  ASSERT_TRUE(ev.value().info.has_value());
  EXPECT_EQ(ev.value().info->priority, 7);

  ASSERT_TRUE(state.unregister_impl("encrypt", "encrypt/nic").ok());
  ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::impl_unregistered);
  EXPECT_EQ(ev.value().name, "encrypt/nic");
}

TEST(DiscoveryWatchTest, TypeFilterSelectsImplEventsOnly) {
  DiscoveryState state;
  ASSERT_TRUE(state.set_pool("p", 1).ok());
  auto w = state.watch("shard").value();
  ASSERT_TRUE(state.register_impl(watch_info("encrypt", "encrypt/nic")).ok());
  auto alloc = state.acquire({{"p", 1}}).value();
  ASSERT_TRUE(state.release(alloc).ok());  // pool_freed: filtered out
  ASSERT_TRUE(state.register_impl(watch_info("shard", "shard/xdp")).ok());
  auto ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().name, "shard/xdp");  // encrypt + pool skipped
  EXPECT_FALSE(w->try_next().has_value());
}

TEST(DiscoveryWatchTest, PoolFreedOnReleaseAndCapacityGrowth) {
  DiscoveryState state;
  ASSERT_TRUE(state.set_pool("nic.engines", 1).ok());
  auto w = state.watch("").value();
  auto alloc = state.acquire({{"nic.engines", 1}}).value();
  ASSERT_TRUE(state.release(alloc).ok());
  auto ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::pool_freed);
  EXPECT_EQ(ev.value().pool, "nic.engines");
  EXPECT_EQ(ev.value().available, 1u);

  // Growing a pool's capacity is also "slots came free".
  ASSERT_TRUE(state.set_pool("nic.engines", 3).ok());
  ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::pool_freed);
  EXPECT_EQ(ev.value().available, 3u);
}

TEST(DiscoveryWatchTest, WatcherOutlivesItsSource) {
  WatcherPtr w;
  {
    DiscoveryState state;
    w = state.watch("").value();
    ASSERT_TRUE(state.register_impl(watch_info("t", "t/x")).ok());
  }
  // Buffered events still drain, then the watcher reports cancelled.
  auto ev = w->next(Deadline::after(ms(200)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::impl_registered);
  auto end = w->next(Deadline::after(ms(200)));
  ASSERT_FALSE(end.ok());
  EXPECT_EQ(end.error().code, Errc::cancelled);
  EXPECT_TRUE(w->cancelled());
}

TEST(DiscoveryWatchTest, SubscribeThenImmediateRevoke) {
  // A watcher subscribed between a registration and its revocation sees
  // only the revocation — and consuming after cancel still works.
  DiscoveryState state;
  ASSERT_TRUE(state.register_impl(watch_info("t", "t/x")).ok());
  auto w = state.watch("t").value();
  ASSERT_TRUE(state.unregister_impl("t", "t/x").ok());
  w->cancel();
  auto ev = w->next(Deadline::after(ms(200)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::impl_unregistered);
  EXPECT_FALSE(w->next(Deadline::after(ms(50))).ok());
}

TEST(DiscoveryWatchTest, SeqStrictlyIncreasesUnderConcurrentRegistrations) {
  DiscoveryState state;
  auto w = state.watch("").value();
  constexpr int kPerThread = 50;
  auto reg = [&](const std::string& prefix) {
    for (int i = 0; i < kPerThread; i++) {
      ASSERT_TRUE(
          state.register_impl(watch_info("t", prefix + std::to_string(i)))
              .ok());
    }
  };
  std::thread a(reg, "t/a");
  std::thread b(reg, "t/b");
  a.join();
  b.join();
  uint64_t last_seq = 0;
  int got = 0;
  for (;;) {
    auto ev = w->try_next();
    if (!ev) break;
    EXPECT_GT(ev->seq, last_seq);
    last_seq = ev->seq;
    got++;
  }
  EXPECT_EQ(got + static_cast<int>(w->dropped()), 2 * kPerThread);
  EXPECT_EQ(w->dropped(), 0u);  // capacity 256 > 100 events
}

TEST(DiscoveryWatchTest, SlowConsumerDropsAreCounted) {
  DiscoveryState state;
  auto w = state.watch("").value();
  for (int i = 0; i < 300; i++)
    ASSERT_TRUE(state.register_impl(watch_info("t", "t/" + std::to_string(i)))
                    .ok());
  EXPECT_GT(w->dropped(), 0u);
  int got = 0;
  while (w->try_next()) got++;
  EXPECT_EQ(got + static_cast<int>(w->dropped()), 300);
}

TEST_F(RemoteDiscoveryTest, WatchWithoutFilterUsesServerPush) {
  // An unfiltered remote watch needs server-push subscriptions (the
  // poll-and-diff fallback cannot emulate it); against a push-capable
  // server it succeeds and sees events of every chunnel type.
  auto w = client_->watch("").value();
  ASSERT_TRUE(state_->register_impl(watch_info("encrypt", "encrypt/nic", 1))
                  .ok());
  auto ev = w->next(Deadline::after(seconds(2)));
  ASSERT_TRUE(ev.ok()) << ev.error().to_string();
  EXPECT_EQ(ev.value().name, "encrypt/nic");
}

TEST_F(RemoteDiscoveryTest, WatchEmulatedByPolling) {
  RemoteDiscovery::Options opts;
  opts.watch_poll = ms(20);
  auto ct = net_->bind(Addr::mem("watcher", 0));
  ASSERT_TRUE(ct.ok());
  RemoteDiscovery client(std::move(ct).value(), server_->addr(), opts);

  auto w = client.watch("encrypt").value();
  ImplInfo info = watch_info("encrypt", "encrypt/nic", 1);
  ASSERT_TRUE(state_->register_impl(info).ok());
  auto ev = w->next(Deadline::after(seconds(2)));
  ASSERT_TRUE(ev.ok()) << ev.error().to_string();
  EXPECT_EQ(ev.value().kind, WatchKind::impl_registered);
  EXPECT_EQ(ev.value().name, "encrypt/nic");

  // Metadata updates re-announce the entry.
  info.priority = 42;
  ASSERT_TRUE(state_->register_impl(info).ok());
  ev = w->next(Deadline::after(seconds(2)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::impl_registered);
  ASSERT_TRUE(ev.value().info.has_value());
  EXPECT_EQ(ev.value().info->priority, 42);

  ASSERT_TRUE(state_->unregister_impl("encrypt", "encrypt/nic").ok());
  ev = w->next(Deadline::after(seconds(2)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::impl_unregistered);

  w->cancel();
  EXPECT_FALSE(w->next(Deadline::after(ms(100))).ok());
}

}  // namespace
}  // namespace bertha
