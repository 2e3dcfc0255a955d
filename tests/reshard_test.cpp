// Online repartitioning (src/control/reshard.*): live partition
// split/merge with catalogue migration. Covers epoch-stamped bucket
// steering in PartitionMap, a live 2->4 split and 4->2 merge with no
// client-observed unavailability, the one-hop forward fallback for
// clients still steering by a stale map, the per-client retry-backoff
// reset regression, and a chaos pass that splits and merges under
// seeded loss with a replica kill mid-migration.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "chunnels/shard.hpp"
#include "control/cluster.hpp"
#include "control/reshard.hpp"
#include "net/fault.hpp"
#include "util/clock.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

ImplInfo info_of(const std::string& type, const std::string& name,
                 std::vector<ResourceReq> resources = {}) {
  ImplInfo i;
  i.type = type;
  i.name = name;
  i.scope = Scope::host;
  i.endpoints = EndpointConstraint::server;
  i.priority = 1;
  i.resources = std::move(resources);
  return i;
}

BytesView key_of(const std::string& s) {
  return BytesView(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::shared_ptr<DefaultTransportFactory> mem_factory(
    const std::shared_ptr<MemNetwork>& net, const std::string& host) {
  return std::make_shared<DefaultTransportFactory>(net, nullptr, host);
}

uint64_t ns_id(uint64_t ns, uint64_t low) {
  return (ns << DiscoveryState::kAllocNamespaceShift) | low;
}

// A type name hashing to the wanted bucket under the given modulo.
std::string key_in_bucket(uint64_t bucket, uint64_t modulo,
                          const std::string& prefix) {
  for (int i = 0; i < 4096; i++) {
    std::string k = prefix + std::to_string(i);
    if (shard_pick(key_of(k), modulo) == bucket) return k;
  }
  ADD_FAILURE() << "no key found for bucket " << bucket << "/" << modulo;
  return prefix;
}

// --- PartitionMap: epoch-stamped steering ---

TEST(ReshardPartitionMapTest, SteeringTableRoutesTypesPoolsAndAllocs) {
  PartitionMap pm(2);
  EXPECT_EQ(pm.modulo(), 2u);

  // Split-shaped membership: modulo doubled, identity home over four
  // partitions.
  ClusterMembership split;
  split.epoch = 2;
  for (int p = 0; p < 4; p++)
    split.partitions.push_back({Addr::mem("rs-p" + std::to_string(p), 1)});
  split.modulo = 4;
  split.home = {0, 1, 2, 3};
  ASSERT_TRUE(pm.apply(split).ok());
  EXPECT_EQ(pm.partitions(), 4u);
  EXPECT_EQ(pm.modulo(), 4u);
  for (const std::string t : {"offload", "reliable", "shard", "pool.hw"}) {
    EXPECT_EQ(pm.index_for_type(t), shard_pick(key_of(t), 4)) << t;
    EXPECT_EQ(pm.index_for_pool(t), pm.index_for_type(t)) << t;
  }

  // Multi-pool acquires spanning partitions stay rejected under the
  // widened steering.
  std::string pa = key_in_bucket(1, 4, "pool.a");
  std::string pb = key_in_bucket(3, 4, "pool.b");
  DiscRequest acq;
  acq.op = DiscOp::acquire;
  acq.resources = {{pa, 1}, {pb, 1}};
  auto span = pm.index_for_request(acq);
  ASSERT_FALSE(span.ok());
  EXPECT_EQ(span.error().code, Errc::invalid_argument);
  acq.resources = {{pa, 1}, {pa, 2}};
  auto co = pm.index_for_request(acq);
  ASSERT_TRUE(co.ok());
  EXPECT_EQ(co.value(), 1u);

  // Alloc ids route by their minted bucket through the home table.
  DiscRequest rel;
  rel.op = DiscOp::release;
  rel.alloc_id = ns_id(3, 7);
  auto r3 = pm.index_for_request(rel);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value(), 3u);
  rel.alloc_id = ns_id(9, 1);  // garbage namespace: >= modulo
  EXPECT_FALSE(pm.index_for_request(rel).ok());
}

TEST(ReshardPartitionMapTest, AliasedMergeKeepsAllocRoutingAcrossEpochBump) {
  PartitionMap pm(2);
  ClusterMembership split;
  split.epoch = 2;
  for (int p = 0; p < 4; p++)
    split.partitions.push_back({Addr::mem("rm-p" + std::to_string(p), 1)});
  split.modulo = 4;
  split.home = {0, 1, 2, 3};
  ASSERT_TRUE(pm.apply(split).ok());

  // An id minted under the split steering routes to its own bucket...
  uint64_t id = ns_id(3, 42);
  auto before = pm.index_for_alloc_routed(id);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value(), 3u);

  // ...and a merge that re-homes the bucket (modulo kept, home aliased)
  // re-routes the SAME id mid-flight instead of orphaning it.
  ClusterMembership merge;
  merge.epoch = 3;
  merge.partitions = {split.partitions[0], split.partitions[1]};
  merge.modulo = 4;
  merge.home = {0, 1, 0, 1};
  ASSERT_TRUE(pm.apply(merge).ok());
  EXPECT_EQ(pm.partitions(), 2u);
  EXPECT_EQ(pm.modulo(), 4u);
  auto after = pm.index_for_alloc_routed(id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), 1u);
  EXPECT_EQ(pm.index_for_alloc_routed(ns_id(2, 1)).value(), 0u);
  // Garbage namespaces stay garbage: the modulo never shrank.
  EXPECT_FALSE(pm.index_for_alloc_routed(ns_id(9, 1)).ok());
}

TEST(ReshardPartitionMapTest, RejectsRegressionsAndMalformedSteering) {
  PartitionMap pm(2);
  ClusterMembership split;
  split.epoch = 2;
  for (int p = 0; p < 4; p++)
    split.partitions.push_back({Addr::mem("rr-p" + std::to_string(p), 1)});
  split.modulo = 4;
  split.home = {0, 1, 2, 3};
  ASSERT_TRUE(pm.apply(split).ok());

  // Stale/equal epoch.
  EXPECT_FALSE(pm.apply(split).ok());

  // Modulo regression: buckets would change identity.
  ClusterMembership shrink;
  shrink.epoch = 3;
  shrink.partitions = {split.partitions[0], split.partitions[1]};
  shrink.modulo = 2;
  shrink.home = {0, 1};
  auto r = pm.apply(shrink);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::invalid_argument);
  EXPECT_EQ(pm.epoch(), 2u);

  // Home entry naming no partition.
  ClusterMembership bad;
  bad.epoch = 3;
  bad.partitions = {split.partitions[0], split.partitions[1]};
  bad.modulo = 4;
  bad.home = {0, 1, 0, 3};
  EXPECT_FALSE(pm.apply(bad).ok());

  // Home table sized unlike the modulo.
  bad.home = {0, 1, 0};
  EXPECT_FALSE(pm.apply(bad).ok());
  EXPECT_EQ(pm.epoch(), 2u);
  EXPECT_EQ(pm.partitions(), 4u);
}

// --- Live split ---

TEST(ReshardTest, SplitDoublesPartitionsLive) {
  auto net = MemNetwork::create();
  auto stats = std::make_shared<FaultStats>();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 2;
  cfg.replicas = 2;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  cfg.replica.server.coalesce_window = ms(1);
  cfg.replica.stats = stats;
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(200);
  rpc.retries = 6;
  auto cd = cluster->client("split-cli", rpc).value();

  // Seed data across every bucket of the post-split modulo, plus pools
  // and in-flight allocations whose ids were minted under modulo 2.
  std::vector<std::string> types;
  for (int i = 0; i < 16; i++) types.push_back("rs.t" + std::to_string(i));
  for (const auto& t : types)
    ASSERT_TRUE(cd->register_impl(info_of(t, t + "/impl")).ok()) << t;
  ASSERT_TRUE(cd->set_pool("rs.pool0", 8).ok());
  ASSERT_TRUE(cd->set_pool("rs.pool1", 8).ok());
  uint64_t a0 = cd->acquire({{"rs.pool0", 1}}).value();
  uint64_t a1 = cd->acquire({{"rs.pool1", 2}}).value();

  auto fan = cd->watch("").value();

  ReshardOptions ro;
  ro.stats = stats;
  auto coord = ReshardCoordinator::create(*cluster, ro).value();
  ASSERT_TRUE(coord->split().ok());

  // Topology and steering doubled; the registered client re-homed.
  EXPECT_EQ(cluster->active_partitions(), 4u);
  ClusterMembership m = cluster->membership();
  EXPECT_EQ(m.partitions.size(), 4u);
  EXPECT_EQ(m.modulo, 4u);
  EXPECT_EQ(cd->partitions(), 4u);
  EXPECT_EQ(cd->partition_map().modulo(), 4u);

  // Every pre-split registration answers from its new home.
  for (const auto& t : types) {
    auto q = cd->query(t);
    ASSERT_TRUE(q.ok()) << t << ": " << q.error().to_string();
    ASSERT_EQ(q.value().size(), 1u) << t;
    EXPECT_EQ(q.value()[0].name, t + "/impl");
  }

  // The migrated catalogue actually lives on the re-homed partitions
  // (not answered by accident through the old ones).
  for (const auto& t : types) {
    size_t p = cd->partition_map().index_for_type(t);
    EXPECT_EQ(p, shard_pick(key_of(t), 4)) << t;
    auto entries = cluster->replica(p, 0)->state()->query(t);
    ASSERT_TRUE(entries.ok()) << t;
    ASSERT_EQ(entries.value().size(), 1u)
        << t << " missing on partition " << p;
  }

  // Allocations minted under the old modulo release cleanly across the
  // epoch bump: the id's bucket routes through the new home table, and
  // a bucket whose pool moved is forwarded by the old home.
  ASSERT_TRUE(cd->release(a0).ok());
  ASSERT_TRUE(cd->release(a1).ok());
  auto in_use = [&](const std::string& pool) {
    size_t p = cd->partition_map().index_for_pool(pool);
    return cluster->replica(p, 0)->state()->pool_in_use(pool);
  };
  Deadline dl = Deadline::after(seconds(5));
  while ((in_use("rs.pool0") != 0 || in_use("rs.pool1") != 0) && !dl.expired())
    sleep_for(ms(10));
  EXPECT_EQ(in_use("rs.pool0"), 0u);
  EXPECT_EQ(in_use("rs.pool1"), 0u);

  // Post-split mutations land on the new partitions and the pre-split
  // fan-in watch carries them: no stream was torn by the migration.
  ASSERT_TRUE(cd->register_impl(info_of("rs.after", "rs.after/impl")).ok());
  bool saw_after = false;
  dl = Deadline::after(seconds(5));
  while (!saw_after && !dl.expired()) {
    auto ev = fan->next(Deadline::after(ms(100)));
    if (ev.ok() && ev.value().name == "rs.after/impl") saw_after = true;
  }
  EXPECT_TRUE(saw_after) << "fan-in watch lost the post-split registration";
  EXPECT_GE(stats->reshard_fences.load(), 2u);
  EXPECT_GE(stats->reshard_installs.load(), 2u);
  EXPECT_GE(stats->reshard_cutovers.load(), 2u);
  cluster->stop();
}

// --- Live merge (and the aliased re-split) ---

TEST(ReshardTest, MergeHalvesPartitionsAndSplitRevives) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 2;
  cfg.replicas = 2;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  cfg.replica.server.coalesce_window = ms(1);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(200);
  rpc.retries = 6;
  auto cd = cluster->client("merge-cli", rpc).value();

  std::vector<std::string> types;
  for (int i = 0; i < 12; i++) types.push_back("rm.t" + std::to_string(i));
  for (const auto& t : types)
    ASSERT_TRUE(cd->register_impl(info_of(t, t + "/impl")).ok());

  ReshardOptions ro;
  ro.drain = ms(30);
  auto coord = ReshardCoordinator::create(*cluster, ro).value();
  ASSERT_TRUE(coord->split().ok());
  ASSERT_EQ(cluster->active_partitions(), 4u);

  // Mint an allocation under the modulo-4 steering so its namespace
  // names an upper bucket; the merge must keep it releasable.
  ASSERT_TRUE(cd->set_pool("rm.pool", 4).ok());
  uint64_t held = cd->acquire({{"rm.pool", 1}}).value();

  ASSERT_TRUE(coord->merge().ok());
  EXPECT_EQ(cluster->active_partitions(), 2u);
  ClusterMembership m = cluster->membership();
  EXPECT_EQ(m.partitions.size(), 2u);
  // The modulo never shrinks; the home table is the aliased identity.
  EXPECT_EQ(m.modulo, 4u);
  ASSERT_EQ(m.home.size(), 4u);
  EXPECT_EQ(m.home[2], 0u);
  EXPECT_EQ(m.home[3], 1u);
  EXPECT_EQ(cd->partitions(), 2u);

  // Everything folded back in and still answers.
  for (const auto& t : types) {
    auto q = cd->query(t);
    ASSERT_TRUE(q.ok()) << t << ": " << q.error().to_string();
    EXPECT_EQ(q.value().size(), 1u) << t;
  }
  // The upper-namespace allocation survives the fold and releases.
  ASSERT_TRUE(cd->release(held).ok());
  // Fresh acquires admit against the merged pool state.
  uint64_t again = cd->acquire({{"rm.pool", 4}}).value();
  ASSERT_TRUE(cd->release(again).ok());

  // A second split de-aliases the steering by reviving the retired
  // slots — the full round trip, not a one-way door.
  ASSERT_TRUE(coord->split().ok());
  EXPECT_EQ(cluster->active_partitions(), 4u);
  m = cluster->membership();
  EXPECT_EQ(m.modulo, 4u);
  for (size_t q = 0; q < m.home.size(); q++) EXPECT_EQ(m.home[q], q);
  for (const auto& t : types) {
    auto q = cd->query(t);
    ASSERT_TRUE(q.ok()) << t << ": " << q.error().to_string();
    EXPECT_EQ(q.value().size(), 1u) << t;
  }
  cluster->stop();
}

// --- Forward fallback for clients steering by a stale map ---

TEST(ReshardTest, StaleClientsForwardOneHopAfterCutover) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 2;
  cfg.replicas = 1;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  cfg.replica.server.coalesce_window = ms(1);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(200);
  rpc.retries = 6;

  // A client wired straight at the pre-split membership, bypassing the
  // cluster's client registry: it never hears about the new steering.
  ClusterDiscovery::Config stale_cfg;
  stale_cfg.partitions = cluster->all_servers();
  stale_cfg.transports = cluster->transports();
  stale_cfg.host_id = "stale-cli";
  stale_cfg.rpc = rpc;
  auto stale = ClusterDiscovery::connect(std::move(stale_cfg)).value();

  // Seed through the stale client while its map is current, keeping an
  // allocation whose bucket will move.
  std::string moved = key_in_bucket(2, 4, "fw.t");   // p0 now, p2 after
  std::string stayed = key_in_bucket(1, 4, "fw.s");  // p1 before and after
  ASSERT_TRUE(stale->register_impl(info_of(moved, moved + "/impl")).ok());
  ASSERT_TRUE(stale->register_impl(info_of(stayed, stayed + "/impl")).ok());
  std::string moved_pool = key_in_bucket(2, 4, "fw.pool");
  ASSERT_TRUE(stale->set_pool(moved_pool, 4).ok());
  uint64_t held = stale->acquire({{moved_pool, 1}}).value();

  auto coord = ReshardCoordinator::create(*cluster).value();
  ASSERT_TRUE(coord->split().ok());
  ASSERT_EQ(cluster->active_partitions(), 4u);
  // The stale client's map never moved.
  EXPECT_EQ(stale->partitions(), 2u);
  EXPECT_EQ(stale->partition_map().modulo(), 2u);

  // Reads, writes and releases against the moved bucket still answer:
  // the old home forwards one hop to the new one.
  auto q = stale->query(moved);
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  ASSERT_EQ(q.value().size(), 1u);
  EXPECT_EQ(q.value()[0].name, moved + "/impl");
  ASSERT_TRUE(
      stale->register_impl(info_of(moved, moved + "/impl2")).ok());
  EXPECT_EQ(stale->query(moved).value().size(), 2u);
  ASSERT_TRUE(stale->release(held).ok());
  // The forwarded mutation landed on the new home's replicated state.
  EXPECT_EQ(cluster->replica(2, 0)->state()->query(moved).value().size(), 2u);
  EXPECT_EQ(cluster->replica(2, 0)->state()->pool_in_use(moved_pool), 0u);
  // And it really went through the forward path.
  EXPECT_GE(cluster->replica(0, 0)->reshard_forwards(), 3u);
  // Unmoved buckets never pay the forward tax.
  ASSERT_TRUE(stale->query(stayed).ok());
  EXPECT_EQ(cluster->replica(1, 0)->reshard_forwards(), 0u);
  cluster->stop();
}

// --- Negotiation mid-split ---

class InfoChunnel final : public ChunnelImpl {
 public:
  explicit InfoChunnel(ImplInfo info) : info_(std::move(info)) {}
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext&) override { return inner; }

 private:
  ImplInfo info_;
};

std::string bound_impl(const ConnPtr& conn, const std::string& type) {
  auto* t = dynamic_cast<TransitionableConnection*>(conn.get());
  if (!t) return "";
  for (const auto& n : t->chain())
    if (n.type == type) return n.impl_name;
  return "";
}

// Negotiation looks a chain up with one batch per partition, and the
// reshard interceptor answers a batch per type. Mid-split, one type of
// the batch sits in a fenced range (answered from the frozen cut) and
// its partition-mate in a live one; the connection binds the
// discovery-provided implementation of every type, not degraded.
TEST(ReshardTest, NegotiatesWhileATypeRangeIsMidSplit) {
  auto net = MemNetwork::create();
  auto stats = std::make_shared<FaultStats>();
  // While set, the new partition 2 loses its acks to the coordinator, so
  // the split stalls after installing range 2 with that range still
  // fenced at partition 0 and the steering not yet pushed.
  auto hold = std::make_shared<std::atomic<bool>>(false);
  DiscoveryCluster::Config cfg;
  cfg.partitions = 2;
  cfg.replicas = 1;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  cfg.replica.server.coalesce_window = ms(1);
  cfg.replica.stats = stats;
  cfg.decorate = [hold](TransportPtr t,
                        const std::string& role) -> TransportPtr {
    if (role != "ctrl-p2-r0-member") return t;
    auto* f = new FaultInjectingTransport(std::move(t), {});
    f->set_send_filter([hold](const Addr& dst, BytesView) {
      return hold->load() &&
             dst.to_string().find("reshard-coord") != std::string::npos;
    });
    return TransportPtr(f);
  };
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();
  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(200);
  rpc.retries = 6;
  auto cd = cluster->client("neg-cli", rpc).value();

  // moved: bucket 2 of 4 (partition 0, then 2). home: bucket 0 (stays
  // on partition 0, so it shares moved's batch). other: partition 1.
  const std::vector<std::string> types = {key_in_bucket(2, 4, "mid.m"),
                                          key_in_bucket(0, 4, "mid.h"),
                                          key_in_bucket(1, 4, "mid.o")};
  auto world = testing_support::TestWorld::make();
  RuntimeConfig scfg;
  scfg.host_id = "h-srv";
  scfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-srv");
  scfg.discovery = cd;
  auto srv_rt = Runtime::create(std::move(scfg)).value();
  auto cli_rt = world.runtime("h-cli");
  std::vector<ChunnelSpec> chain;
  for (const auto& t : types) {
    // The server can instantiate t/net but only binds it when discovery
    // lists it; t/sw is the fallback a failed lookup would bind.
    ImplInfo net_impl = info_of(t, t + "/net");
    net_impl.priority = 10;
    ASSERT_TRUE(cd->register_impl(net_impl).ok()) << t;
    net_impl.factory_only = true;
    ASSERT_TRUE(
        srv_rt->register_chunnel(std::make_shared<InfoChunnel>(net_impl)).ok());
    ASSERT_TRUE(srv_rt
                    ->register_chunnel(
                        std::make_shared<InfoChunnel>(info_of(t, t + "/sw")))
                    .ok());
    chain.emplace_back(t);
  }
  auto listener = srv_rt->endpoint("srv", ChunnelDag::chain(chain))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto check_connect = [&](const char* when) {
    auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                    .value()
                    .connect(listener->addr(), Deadline::after(seconds(10)));
    ASSERT_TRUE(conn.ok()) << when << ": " << conn.error().to_string();
    auto srv = listener->accept(Deadline::after(seconds(10))).value();
    for (const auto& t : types)
      EXPECT_EQ(bound_impl(srv, t), t + "/net") << when << ": " << t;
    EXPECT_EQ(listener->degraded_connections(), 0u) << when;
    conn.value()->close();
    srv->close();
  };

  ReshardOptions ro;
  ro.stats = stats;
  ro.attempts = 200;  // rides out the held acks
  auto coord = ReshardCoordinator::create(*cluster, ro).value();
  hold->store(true);
  Result<void> split = err(Errc::internal, "split not run");
  std::thread splitter([&] { split = coord->split(); });
  Deadline dl = Deadline::after(seconds(10));
  while (stats->reshard_installs.load() == 0 && !dl.expired())
    sleep_for(ms(5));
  bool stalled = stats->reshard_installs.load() == 1 &&
                 cd->partition_map().modulo() == 2;
  EXPECT_TRUE(stalled) << "split did not stall between install and push";
  if (stalled) {
    uint64_t p0_before = cluster->replica(0, 0)->server().requests_served();
    check_connect("mid-split");
    EXPECT_EQ(cluster->replica(0, 0)->server().requests_served() - p0_before,
              1u)
        << "the fenced and the live type did not share one batch";
  }
  hold->store(false);
  splitter.join();
  ASSERT_TRUE(split.ok()) << split.error().to_string();
  ASSERT_EQ(cd->partition_map().modulo(), 4u);
  check_connect("after split");
  cluster->stop();
}

// --- RemoteDiscovery retry backoff resets on success (regression) ---

TEST(ReshardTest, RetryBackoffResetsAfterSuccessfulRpc) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  auto st = net->bind(Addr::mem("bo-srv", 1));
  ASSERT_TRUE(st.ok());
  DiscoveryServer server(std::move(st).value(), state);

  auto ct = net->bind(Addr::mem("bo-cli", 0));
  ASSERT_TRUE(ct.ok());
  FaultInjectingTransport::Options fo;
  fo.seed = 0x5EED;
  auto* faults = new FaultInjectingTransport(std::move(ct).value(), fo);
  RemoteDiscovery::Options opts;
  opts.rpc_timeout = ms(30);
  opts.retries = 3;
  opts.backoff = {ms(10), 2.0, ms(200), 0.0};
  RemoteDiscovery client(TransportPtr(faults), server.addr(), opts);

  EXPECT_EQ(client.backoff_step(), ms(10));
  ASSERT_TRUE(client.register_impl(info_of("bo", "bo/impl")).ok());
  EXPECT_EQ(client.backoff_step(), ms(10));

  // Black-hole the server: every attempt times out and the shared
  // backoff window escalates past the base.
  faults->partition(/*tx=*/true, /*rx=*/false);
  EXPECT_FALSE(client.query("bo").ok());
  EXPECT_GT(client.backoff_step(), ms(10));
  Duration escalated = client.backoff_step();
  EXPECT_FALSE(client.query("bo").ok());
  EXPECT_GE(client.backoff_step(), escalated);

  // Heal. The first successful RPC must reset the window to base —
  // a recovered server stops paying outage-sized retry delays.
  faults->partition(false, false);
  auto q = client.query("bo");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  EXPECT_EQ(q.value().size(), 1u);
  EXPECT_EQ(client.backoff_step(), ms(10));
}

// --- Chaos: split and merge under loss with a replica kill mid-way ---

TEST(ReshardChaosTest, SplitAndMergeSurviveLossAndReplicaKill) {
  uint64_t seed = 0xC0FFEE;
  if (const char* s = std::getenv("BERTHA_CHAOS_SEED"))
    seed = std::strtoull(s, nullptr, 0);
  auto net = MemNetwork::create();
  auto stats = std::make_shared<FaultStats>();

  DiscoveryCluster::Config cfg;
  cfg.partitions = 2;
  cfg.replicas = 3;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  cfg.replica.apply_timeout = ms(250);
  cfg.replica.server.coalesce_window = ms(2);
  cfg.replica.stats = stats;
  cfg.decorate = [seed](TransportPtr t,
                        const std::string& role) -> TransportPtr {
    if (role.find("-rpc") == std::string::npos) return t;
    FaultInjectingTransport::Options fo;
    fo.drop = 0.05;
    fo.seed = (std::hash<std::string>{}(role) ^ seed) | 1;
    return TransportPtr(new FaultInjectingTransport(std::move(t), fo));
  };
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(100);
  rpc.retries = 8;
  rpc.backoff = {ms(5), 2.0, ms(40), 0.3};
  rpc.backoff_seed = seed;
  rpc.stats = stats;
  auto wr = cluster->client("rc-wr", rpc).value();
  auto obs = cluster->client("rc-obs", rpc).value();
  auto fan = obs->watch("").value();

  // Writer: keeps registering under loss and across both migrations;
  // only acknowledged writes count. Reader: continuously queries what
  // has been acked — a range with no live home turns into a permanent
  // failure here.
  std::mutex acked_mu;
  std::vector<std::string> acked;
  std::atomic<bool> stop_load{false};
  std::atomic<uint64_t> read_failures{0};
  std::atomic<uint64_t> reads{0};
  std::thread writer([&] {
    for (int i = 0; !stop_load.load(); i++) {
      std::string t = "rc.w" + std::to_string(i);
      Deadline dl = Deadline::after(seconds(10));
      bool ok_write = false;
      while (!dl.expired() && !ok_write)
        ok_write = wr->register_impl(info_of(t, t + "/impl")).ok();
      if (ok_write) {
        std::lock_guard<std::mutex> lk(acked_mu);
        acked.push_back(t);
      }
      sleep_for(ms(10));
    }
  });
  std::thread reader([&] {
    size_t i = 0;
    while (!stop_load.load()) {
      std::string t;
      {
        std::lock_guard<std::mutex> lk(acked_mu);
        if (!acked.empty()) t = acked[i++ % acked.size()];
      }
      if (!t.empty()) {
        reads.fetch_add(1);
        auto q = obs->query(t);
        if (!q.ok() || q.value().empty()) read_failures.fetch_add(1);
      }
      sleep_for(ms(5));
    }
  });

  // Let some writes land on the 2-partition layout first.
  Deadline warm = Deadline::after(seconds(5));
  while (!warm.expired()) {
    {
      std::lock_guard<std::mutex> lk(acked_mu);
      if (acked.size() >= 6) break;
    }
    sleep_for(ms(20));
  }

  ReshardOptions ro;
  ro.ack_timeout = ms(500);
  ro.attempts = 20;
  ro.drain = ms(100);
  ro.stats = stats;
  auto coord = ReshardCoordinator::create(*cluster, ro).value();

  // Split 2 -> 4 with a source replica dying mid-migration: the
  // remaining majority keeps sequencing the phase ops.
  std::thread killer([&] {
    sleep_for(ms(30));
    cluster->kill_replica(0, 2);
  });
  auto split = coord->split();
  killer.join();
  ASSERT_TRUE(split.ok()) << split.error().to_string();
  ASSERT_EQ(cluster->active_partitions(), 4u);

  // Keep the load running on the split layout, then fold back.
  sleep_for(ms(300));
  auto merge = coord->merge();
  ASSERT_TRUE(merge.ok()) << merge.error().to_string();
  ASSERT_EQ(cluster->active_partitions(), 2u);
  sleep_for(ms(300));

  stop_load.store(true);
  writer.join();
  reader.join();

  // The dead replica never came back, yet nothing was lost: every
  // acknowledged registration answers from the merged layout.
  auto audit = cluster->client("rc-audit", rpc).value();
  std::vector<std::string> final_acked;
  {
    std::lock_guard<std::mutex> lk(acked_mu);
    final_acked = acked;
  }
  ASSERT_GE(final_acked.size(), 6u);
  for (const auto& t : final_acked) {
    auto q = audit->query(t);
    ASSERT_TRUE(q.ok()) << t << ": " << q.error().to_string();
    EXPECT_EQ(q.value().size(), 1u) << t;
  }

  // Readers saw no dark window: transient loss retries inside the RPC
  // budget, so a tiny residue is tolerated but a fenced-range outage
  // (every query failing for a phase) is not.
  EXPECT_GE(reads.load(), 20u);
  EXPECT_LT(read_failures.load(), reads.load() / 4)
      << "key ranges went unanswered during the migration";

  // The fan-in stream survived both migrations: its re-stamped seq
  // domain has no skips, and every acked registration shows at least
  // once (installs may snapshot-replay, so duplicates are fine).
  std::set<std::string> seen;
  uint64_t last_seq = 0;
  bool skipped = false;
  Deadline dl = Deadline::after(seconds(10));
  while (seen.size() < final_acked.size() && !dl.expired()) {
    auto ev = fan->next(Deadline::after(ms(100)));
    if (!ev.ok()) continue;
    if (last_seq != 0 && ev.value().seq != last_seq + 1) skipped = true;
    last_seq = ev.value().seq;
    if (ev.value().kind == WatchKind::impl_registered)
      seen.insert(ev.value().name);
  }
  EXPECT_FALSE(skipped) << "fan-in watch seq domain skipped";
  EXPECT_EQ(fan->dropped(), 0u);
  for (const auto& t : final_acked)
    EXPECT_TRUE(seen.count(t + "/impl")) << t << " never reached the watch";

  cluster->stop();
}

}  // namespace
}  // namespace bertha
