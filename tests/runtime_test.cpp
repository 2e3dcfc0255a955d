// Runtime configuration validation, handshake idempotence, and the
// anycast connection path (§3.2 "Anycast"): dialing a virtual address
// that the network routes to the nearest concrete instance.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "core/wire.hpp"
#include "io/timer_wheel.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

using testing_support::TestWorld;

// --- Runtime::create validation ---

TEST(RuntimeTest, RequiresTransports) {
  RuntimeConfig cfg;
  auto r = Runtime::create(cfg);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::invalid_argument);
}

TEST(RuntimeTest, FillsDefaults) {
  RuntimeConfig cfg;
  cfg.transports = std::make_shared<DefaultTransportFactory>();
  auto rt = Runtime::create(cfg).value();
  EXPECT_FALSE(rt->config().host_id.empty());
  EXPECT_FALSE(rt->config().process_id.empty());
  EXPECT_NE(rt->config().discovery, nullptr);
  EXPECT_NE(rt->config().policy, nullptr);
}

TEST(RuntimeTest, RejectsBadHandshakeParams) {
  RuntimeConfig cfg;
  cfg.transports = std::make_shared<DefaultTransportFactory>();
  cfg.handshake_retries = -1;
  EXPECT_FALSE(Runtime::create(cfg).ok());
  cfg.handshake_retries = 1;
  cfg.handshake_timeout = Duration::zero();
  EXPECT_FALSE(Runtime::create(cfg).ok());
}

TEST(RuntimeTest, EndpointRejectsInvalidDag) {
  auto world = TestWorld::make();
  auto rt = world.runtime("h");
  // Cycle.
  ChunnelDag cyclic;
  auto a = cyclic.add_node(ChunnelSpec("a"));
  auto b = cyclic.add_node(ChunnelSpec("b"));
  ASSERT_TRUE(cyclic.add_edge(a, b).ok());
  ASSERT_TRUE(cyclic.add_edge(b, a).ok());
  EXPECT_FALSE(rt->endpoint("x", cyclic).ok());
  // Branching (valid DAG but not a chain).
  ChunnelDag branching;
  auto r = branching.add_node(ChunnelSpec("a"));
  auto c1 = branching.add_node(ChunnelSpec("b"));
  auto c2 = branching.add_node(ChunnelSpec("c"));
  ASSERT_TRUE(branching.add_edge(r, c1).ok());
  ASSERT_TRUE(branching.add_edge(r, c2).ok());
  EXPECT_FALSE(rt->endpoint("x", branching).ok());
}

// Nothing a runtime's metrics registry holds may hold the registry (or
// the timer wheel it reports on) back: once both runtimes, the endpoint
// and a listener that churned 1000 connects are gone, so are their
// registries and wheels, and with them any entry still armed.
TEST(RuntimeTest, TeardownFreesMetricsAndWheelAfterChurn) {
  auto world = TestWorld::make();
  std::vector<std::weak_ptr<MetricsRegistry>> metrics;
  std::vector<std::weak_ptr<TimerWheel>> wheels;
  {
    auto srv_rt = world.runtime("h-srv");
    auto cli_rt = world.runtime("h-cli");
    for (const auto& rt : {srv_rt, cli_rt}) {
      metrics.push_back(rt->metrics());
      wheels.push_back(rt->timer_wheel());
      ASSERT_FALSE(wheels.back().expired());
    }
    auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("keepalive")))
                        .value()
                        .listen(Addr::mem("h-srv", 100))
                        .value();
    auto ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
    std::atomic<bool> stop{false};
    std::thread acceptor([&] {
      while (!stop.load()) {
        auto c = listener->accept(Deadline::after(ms(50)));
        if (c.ok()) c.value()->close();
      }
    });
    for (int i = 0; i < 1000; i++) {
      auto c = ep.connect(listener->addr(), Deadline::after(seconds(5)));
      if (!c.ok()) {
        ADD_FAILURE() << "conn " << i << ": " << c.error().to_string();
        break;
      }
      c.value()->close();
    }
    stop.store(true);
    acceptor.join();
  }
  auto all_gone = [&] {
    for (const auto& m : metrics)
      if (!m.expired()) return false;
    for (const auto& w : wheels)
      if (!w.expired()) return false;
    return true;
  };
  Deadline dl = Deadline::after(seconds(10));
  while (!all_gone() && !dl.expired()) sleep_for(ms(5));
  for (size_t i = 0; i < metrics.size(); i++) {
    EXPECT_TRUE(metrics[i].expired()) << "runtime " << i << " registry leaked";
    EXPECT_TRUE(wheels[i].expired()) << "runtime " << i << " wheel leaked";
  }
}

TEST(RuntimeTest, UniqueIdsAreUnique) {
  std::set<std::string> ids;
  for (int i = 0; i < 1000; i++) ids.insert(make_unique_id());
  EXPECT_EQ(ids.size(), 1000u);
}

// --- handshake idempotence ---

TEST(HandshakeTest, DuplicateHelloYieldsOneConnection) {
  // A retransmitted hello (same source, same process) must be answered
  // from the accept cache, not create a second connection.
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto listener = srv_rt->endpoint("srv", ChunnelDag::empty())
                      .value()
                      .listen(Addr::mem("h1", 900))
                      .value();

  auto t = world.mem->bind(Addr::mem("h2", 0)).value();
  HelloMsg hello;
  hello.endpoint_name = "dup-test";
  hello.host_id = "h2";
  hello.process_id = "p-fixed";
  Bytes frame = encode_frame(MsgKind::hello, 0, encode_hello(hello));

  std::optional<uint64_t> token;
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(t->send_to(listener->addr(), frame).ok());
    auto pkt = t->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(pkt.ok());
    auto f = decode_frame(pkt.value().payload);
    ASSERT_TRUE(f.ok());
    ASSERT_EQ(f.value().kind, MsgKind::accept);
    auto acc = decode_accept(f.value().payload).value();
    if (!token) token = acc.token;
    EXPECT_EQ(acc.token, *token) << "retransmit created a new connection";
  }
  EXPECT_EQ(listener->connections_accepted(), 1u);
}

// --- anycast connections (§3.2) ---

TEST(AnycastTest, ConnectsToNearestInstanceViaVirtualAddress) {
  auto world = TestWorld::make();
  auto near_rt = world.runtime("near");
  auto far_rt = world.runtime("far");
  auto cli_rt = world.runtime("cli");
  world.sim->set_link("cli", "near", us(50));
  world.sim->set_link("cli", "far", us(500));

  auto near_listener = near_rt->endpoint("svc", ChunnelDag::empty())
                           .value()
                           .listen(Addr::sim("near", 8000))
                           .value();
  auto far_listener = far_rt->endpoint("svc", ChunnelDag::empty())
                          .value()
                          .listen(Addr::sim("far", 8000))
                          .value();

  Addr vip = Addr::sim("kv-anycast", 80);
  ASSERT_TRUE(world.sim->advertise(vip, near_listener->addr(), 1).ok());
  ASSERT_TRUE(world.sim->advertise(vip, far_listener->addr(), 100).ok());

  auto ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  auto conn = ep.connect(vip, Deadline::after(seconds(5)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();

  // The near instance accepted; data flows to it directly.
  auto srv_conn = near_listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn.value()->send(Msg::of("to-nearest")).ok());
  EXPECT_EQ(srv_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
            "to-nearest");
  EXPECT_EQ(far_listener->connections_accepted(), 0u);

  // Routing change: the near instance withdraws; the next connection
  // reaches the far one — same client code, same virtual address.
  world.sim->withdraw(vip, near_listener->addr());
  auto conn2 = ep.connect(vip, Deadline::after(seconds(5)));
  ASSERT_TRUE(conn2.ok()) << conn2.error().to_string();
  auto far_conn = far_listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn2.value()->send(Msg::of("rerouted")).ok());
  EXPECT_EQ(far_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
            "rerouted");
}

TEST(AnycastTest, EstablishedConnectionSurvivesRoutingChange) {
  // Because the data path pins to the concrete instance that accepted,
  // an anycast routing flap does not break established connections
  // (the instability that drives people to DNS, per §3.2).
  auto world = TestWorld::make();
  auto a_rt = world.runtime("ia");
  auto b_rt = world.runtime("ib");
  auto cli_rt = world.runtime("cli");

  auto la = a_rt->endpoint("svc", ChunnelDag::empty())
                .value()
                .listen(Addr::sim("ia", 8000))
                .value();
  auto lb = b_rt->endpoint("svc", ChunnelDag::empty())
                .value()
                .listen(Addr::sim("ib", 8000))
                .value();
  Addr vip = Addr::sim("svc-vip", 80);
  ASSERT_TRUE(world.sim->advertise(vip, la->addr(), 1).ok());
  ASSERT_TRUE(world.sim->advertise(vip, lb->addr(), 50).ok());

  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(vip, Deadline::after(seconds(5)))
                  .value();
  auto srv = la->accept(Deadline::after(seconds(5))).value();

  // Routing flips mid-connection.
  ASSERT_TRUE(world.sim->advertise(vip, lb->addr(), 0).ok());

  ASSERT_TRUE(conn->send(Msg::of("still-a")).ok());
  EXPECT_EQ(srv->recv(Deadline::after(seconds(5))).value().payload_str(),
            "still-a");
  EXPECT_EQ(lb->connections_accepted(), 0u);
}

}  // namespace
}  // namespace bertha
