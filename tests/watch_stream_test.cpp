// Server-push watch streams (core/discovery.hpp): subscription
// lifecycle, batched delivery, seq-gap resume after lost pushes,
// catalogue-snapshot fallback once the server has pruned its event log,
// and server-side burst coalescing feeding the transition controller one
// batch per burst. Faults are injected deterministically through
// FaultInjectingTransport, so these run as regular tier-1 tests.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "core/discovery.hpp"
#include "core/renegotiation.hpp"
#include "core/wire.hpp"
#include "net/fault.hpp"
#include "net/memchan.hpp"
#include "util/clock.hpp"

namespace bertha {
namespace {

ImplInfo watch_info(const std::string& type, const std::string& name,
                    int prio = 0) {
  ImplInfo i;
  i.type = type;
  i.name = name;
  i.priority = prio;
  return i;
}

bool is_event_batch(BytesView p) {
  return p.size() >= kWireHeaderSize && p[0] == 'B' && p[1] == 'H' &&
         p[2] == static_cast<uint8_t>(MsgKind::event_batch);
}

// Shared fixture: a DiscoveryServer on an in-memory network plus a
// RemoteDiscovery client whose transport is fault-injectable.
class WatchStreamTest : public ::testing::Test {
 protected:
  void start_server(DiscoveryServer::Options sopts) {
    net_ = MemNetwork::create();
    state_ = std::make_shared<DiscoveryState>();
    server_ = std::make_unique<DiscoveryServer>(
        net_->bind(Addr::mem("disc", 1)).value(), state_, sopts);
  }

  void start_client(FaultInjectingTransport::Options fopts,
                    RemoteDiscovery::Options ropts) {
    fault_ = new FaultInjectingTransport(
        net_->bind(Addr::mem("cli", 0)).value(), fopts);
    stats_ = std::make_shared<FaultStats>();
    ropts.stats = stats_;
    client_ = std::make_unique<RemoteDiscovery>(TransportPtr(fault_),
                                                server_->addr(), ropts);
  }

  // Drops every pushed event_batch (including keepalives) while armed —
  // the client keeps sending fine, so the subscription silently starves.
  std::shared_ptr<std::atomic<bool>> arm_batch_drop() {
    auto armed = std::make_shared<std::atomic<bool>>(false);
    fault_->set_recv_filter([armed](const Addr&, BytesView p) {
      return armed->load() && is_event_batch(p);
    });
    return armed;
  }

  // Pulls events until `deadline`, tallying per impl name; stops early
  // once every name in `until` has been seen at least once.
  std::map<std::string, int> collect(DiscoveryWatcher& w, Deadline deadline,
                                     const std::vector<std::string>& until) {
    std::map<std::string, int> seen;
    auto done = [&] {
      for (const auto& n : until)
        if (seen.find(n) == seen.end()) return false;
      return true;
    };
    while (!done() && !deadline.expired()) {
      auto ev = w.next(Deadline::after(ms(100)));
      if (ev.ok()) seen[ev.value().name]++;
    }
    return seen;
  }

  std::shared_ptr<MemNetwork> net_;
  std::shared_ptr<DiscoveryState> state_;
  std::unique_ptr<DiscoveryServer> server_;
  FaultInjectingTransport* fault_ = nullptr;  // owned by client_
  std::shared_ptr<FaultStats> stats_;
  std::unique_ptr<RemoteDiscovery> client_;
};

// Subscribe -> events flow -> cancel; the client tears the subscription
// down on the server (lazily, at the next push) without the server ever
// noticing a vanished consumer.
TEST_F(WatchStreamTest, SubscriptionLifecycle) {
  DiscoveryServer::Options so;
  so.coalesce_window = ms(2);
  so.keepalive = ms(50);
  start_server(so);
  start_client({}, {});

  auto w = client_->watch("enc").value();
  EXPECT_GE(server_->subscribes_served(), 1u);
  EXPECT_EQ(server_->subscriber_count(), 1u);

  ASSERT_TRUE(state_->register_impl(watch_info("enc", "enc/a")).ok());
  auto ev = w->next(Deadline::after(seconds(5)));
  ASSERT_TRUE(ev.ok()) << ev.error().to_string();
  EXPECT_EQ(ev.value().name, "enc/a");
  EXPECT_EQ(ev.value().kind, WatchKind::impl_registered);
  EXPECT_GE(server_->batches_pushed(), 1u);
  EXPECT_GE(server_->events_pushed(), 1u);

  // Cancel the consumer; the next push (an event or just a keepalive)
  // makes the client notice and send the unsubscribe.
  w->cancel();
  ASSERT_TRUE(state_->register_impl(watch_info("enc", "enc/b")).ok());
  Deadline dl = Deadline::after(seconds(5));
  while (server_->subscriber_count() != 0) {
    ASSERT_FALSE(dl.expired()) << "unsubscribe never reached the server";
    sleep_for(ms(5));
  }
}

// The headline economics: an idle push-mode watcher costs the client
// zero RPCs. Over 200 ms idle, the server's request counter must not
// move (pushes and keepalives don't count).
TEST_F(WatchStreamTest, IdleWatchIssuesNoRpcs) {
  start_server({});
  start_client({}, {});

  auto w = client_->watch("enc").value();
  uint64_t before = server_->requests_served();
  sleep_for(ms(200));
  EXPECT_EQ(server_->requests_served(), before)
      << "an idle push-mode watch issued RPCs";

  // The stream is live, not just quiet: a registration still arrives.
  ASSERT_TRUE(state_->register_impl(watch_info("enc", "enc/a")).ok());
  ASSERT_TRUE(w->next(Deadline::after(seconds(5))).ok());
  EXPECT_EQ(server_->requests_served(), before);
}

// Pushed batches silently lost (partition-like): the next keepalive
// exposes the seq gap, the client resumes from its last applied seq, and
// the server replays from its event log — nothing lost, nothing applied
// twice, no snapshot needed.
TEST_F(WatchStreamTest, SeqGapRecoveryAfterDroppedBatches) {
  DiscoveryServer::Options so;
  so.coalesce_window = ms(2);
  so.keepalive = ms(40);
  start_server(so);
  start_client({}, {});
  auto armed = arm_batch_drop();

  auto w = client_->watch("enc").value();
  ASSERT_TRUE(state_->register_impl(watch_info("enc", "enc/a")).ok());
  ASSERT_TRUE(w->next(Deadline::after(seconds(5))).ok());

  armed->store(true);
  ASSERT_TRUE(state_->register_impl(watch_info("enc", "enc/b")).ok());
  ASSERT_TRUE(state_->register_impl(watch_info("enc", "enc/c")).ok());
  sleep_for(ms(60));  // both pushes (and a keepalive) hit the floor
  armed->store(false);

  auto seen = collect(*w, Deadline::after(seconds(10)), {"enc/b", "enc/c"});
  EXPECT_EQ(seen["enc/b"], 1) << "lost or double-applied";
  EXPECT_EQ(seen["enc/c"], 1) << "lost or double-applied";
  EXPECT_EQ(seen.count("enc/a"), 0u) << "resume replayed an applied event";
  EXPECT_GE(stats_->watch_resubscribes.load(), 1u);
  EXPECT_EQ(server_->snapshots_served(), 0u)
      << "log replay should have sufficed";
}

// Resume from beyond the server's log horizon: with a tiny event log the
// missed burst is pruned before the client comes back, so the server
// falls back to a full catalogue snapshot and the client still converges.
TEST_F(WatchStreamTest, SnapshotFallbackWhenServerPruned) {
  DiscoveryServer::Options so;
  so.coalesce_window = ms(2);
  so.keepalive = ms(40);
  so.event_log_cap = 4;
  start_server(so);
  start_client({}, {});
  auto armed = arm_batch_drop();

  auto w = client_->watch("enc").value();
  ASSERT_TRUE(state_->register_impl(watch_info("enc", "enc/a")).ok());
  ASSERT_TRUE(w->next(Deadline::after(seconds(5))).ok());

  armed->store(true);
  std::vector<std::string> missed;
  for (int i = 0; i < 8; i++) {
    missed.push_back("enc/m" + std::to_string(i));
    ASSERT_TRUE(state_->register_impl(watch_info("enc", missed.back())).ok());
    sleep_for(ms(5));  // separate pushes, so the log really prunes
  }
  sleep_for(ms(60));
  armed->store(false);

  auto seen = collect(*w, Deadline::after(seconds(10)), missed);
  for (const auto& n : missed)
    EXPECT_GE(seen[n], 1) << n << " absent after snapshot recovery";
  EXPECT_GE(server_->snapshots_served(), 1u);
  EXPECT_GE(stats_->watch_snapshots.load(), 1u);
}

// A burst of registrations inside one coalescing window reaches the
// transition controller as a single batch: one selection re-run for the
// whole burst, not one per registration.
TEST_F(WatchStreamTest, BurstCoalescesToOneControllerRun) {
  DiscoveryServer::Options so;
  so.coalesce_window = ms(100);
  start_server(so);
  start_client({}, {});

  TransitionTuning tuning;
  tuning.sweep_period = ms(10);
  // Standalone, the controller is its own owner (start() wants the
  // object whose lifetime bounds the watch thread).
  auto ctrl = std::make_shared<TransitionController>(tuning);
  ASSERT_TRUE(ctrl->start(*client_, ctrl).ok());  // subscribes with an empty filter
  uint64_t acks = server_->batches_pushed();  // the subscribe ack batch

  for (int i = 0; i < 8; i++)
    ASSERT_TRUE(
        state_->register_impl(watch_info("offload", "offload/" +
                                         std::to_string(i), i))
            .ok());

  Deadline dl = Deadline::after(seconds(10));
  while (ctrl->stats().watch_events < 8) {
    ASSERT_FALSE(dl.expired()) << "burst never reached the controller";
    sleep_for(ms(5));
  }
  auto s = ctrl->stats();
  EXPECT_EQ(s.watch_events, 8u);
  EXPECT_EQ(s.watch_batches, 1u) << "burst was split across batches";
  EXPECT_EQ(s.upgrade_runs, 1u)
      << "one coalesced burst must re-run selection exactly once";
  EXPECT_EQ(server_->batches_pushed() - acks, 1u);
  ctrl->stop();
}

// Sustained seeded drop + reorder on the push path: keepalive-driven gap
// detection and seq-based dedup must deliver every event exactly once.
TEST_F(WatchStreamTest, DropAndReorderNeverLoseOrDuplicate) {
  DiscoveryServer::Options so;
  so.coalesce_window = ms(2);
  so.keepalive = ms(30);
  start_server(so);
  FaultInjectingTransport::Options fo;
  fo.drop = 0.15;
  fo.reorder = 0.15;
  fo.seed = 0xBEEF;
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(200);
  ro.retries = 10;
  start_client(fo, ro);

  auto w = client_->watch("enc").value();
  std::vector<std::string> names;
  for (int i = 0; i < 30; i++) {
    names.push_back("enc/n" + std::to_string(i));
    ASSERT_TRUE(state_->register_impl(watch_info("enc", names.back())).ok());
    sleep_for(ms(2));
  }

  auto seen = collect(*w, Deadline::after(seconds(20)), names);
  for (const auto& n : names) EXPECT_EQ(seen[n], 1) << n;
  // The log was never pruned (default cap), so recovery went through
  // resume replays, which cannot double-apply.
  EXPECT_EQ(server_->snapshots_served(), 0u);
}

}  // namespace
}  // namespace bertha
