// Sharded, replicated discovery control plane: establishment latency
// with the catalogue served by a 2-partition x 3-replica cluster, across
// the full self-healing ladder — steady state, one replica dead, the
// dead replica restarted (peer-snapshot catch-up), and the active
// sequencer killed (view change to the standby candidate).
//
// The claims under test: a replica kill costs clients one RPC timeout
// (rotate + seq-resume), a replica restart converges by snapshot +
// suffix replay without touching the serving path, and a sequencer kill
// costs one view-change round — establishment keeps succeeding through
// all of it.
//
// BERTHA_CONTROL_GATE=1 turns the run into a pass/fail check: any
// failed establishment, a during-failover p99 above
// BERTHA_CONTROL_P99_MS (default 250), or a during-view-change worst
// establishment above BERTHA_CONTROL_VIEW_MAX_MS (default 1000) exits
// non-zero. CI runs this in the bench-smoke job.
#include <algorithm>
#include <atomic>
#include <thread>

#include "apps/ping.hpp"
#include "bench_util.hpp"
#include "control/cluster.hpp"
#include "control/reshard.hpp"
#include "util/clock.hpp"

using namespace bertha;
using namespace bertha::bench;

namespace {

struct Phase {
  Histogram::Summary connect_us;
  int failures = 0;
};

Phase measure(Endpoint& ep, const Addr& server, int n) {
  Phase ph;
  Histogram samples;
  for (int i = 0; i < n; i++) {
    auto run = ping_over_new_connection(ep, server, 32, 1,
                                        Deadline::after(seconds(10)));
    if (run.ok())
      samples.record(run.value().connect_time);
    else
      ph.failures++;
  }
  ph.connect_us = samples.summarize(1e3);
  return ph;
}

}  // namespace

int main() {
  print_header(
      "control-plane failover — establishment latency, steady vs one dead "
      "replica",
      "Bertha §4.2 discovery (HotNets '20), replicated via §3.2 ordered "
      "multicast");

  const int steady_conns = scaled(300, 40);
  const int failover_conns = scaled(100, 20);
  const bool gate = std::getenv("BERTHA_CONTROL_GATE") != nullptr;
  double p99_bound_ms = 250;
  if (const char* env = std::getenv("BERTHA_CONTROL_P99_MS"))
    p99_bound_ms = std::atof(env);
  double view_max_ms = 1000;
  if (const char* env = std::getenv("BERTHA_CONTROL_VIEW_MAX_MS"))
    view_max_ms = std::atof(env);

  auto net = MemNetwork::create();
  auto factory =
      std::make_shared<DefaultTransportFactory>(net, nullptr, "ctrl");

  DiscoveryCluster::Config ccfg;
  ccfg.partitions = 2;
  ccfg.replicas = 3;
  ccfg.sequencer_candidates = 2;  // standby for the view-change phase
  ccfg.transports = factory;
  ccfg.replica.apply_timeout = ms(250);
  ccfg.replica.sweep_period = ms(25);
  ccfg.replica.server.keepalive = ms(50);
  ccfg.tuning.view_silence_timeout = ms(120);
  ccfg.tuning.view_ack_timeout = ms(25);
  auto cluster = die_on_err(DiscoveryCluster::start(std::move(ccfg)),
                            "cluster");

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(50);
  rpc.retries = 5;
  rpc.backoff = {ms(2), 2.0, ms(20), 0.3};
  rpc.watch_failover_timeout = ms(250);

  auto make_rt = [&](const std::string& host) {
    RuntimeConfig cfg;
    cfg.host_id = host;
    cfg.transports =
        std::make_shared<DefaultTransportFactory>(net, nullptr, host);
    cfg.discovery =
        die_on_err(cluster->client(host + "-disc", rpc), "cluster client");
    auto rt = die_on_err(Runtime::create(std::move(cfg)), "runtime");
    die_on_err(register_builtin_chunnels(*rt), "builtins");
    return rt;
  };
  auto srv_rt = make_rt("bench-srv");
  auto cli_rt = make_rt("bench-cli");

  auto server = die_on_err(
      PingServer::start(srv_rt, wrap(ChunnelSpec("reliable")),
                        Addr::mem("bench-srv", 100)),
      "ping server");
  auto ep = die_on_err(cli_rt->endpoint("cli", ChunnelDag::empty()), "ep");

  Phase steady = measure(ep, server->addr(), steady_conns);

  // Kill the replica currently serving the partition the establishment
  // path hashes to ("reliable" queries), as seen by the server's client.
  auto srv_disc =
      std::dynamic_pointer_cast<ClusterDiscovery>(srv_rt->config().discovery);
  size_t part = srv_disc->partition_map().index_for_type("reliable");
  Addr active = srv_disc->partition_client(part).active_server();
  size_t victim = 0;
  const auto& servers = cluster->partition_servers(part);
  for (size_t r = 0; r < servers.size(); r++)
    if (servers[r] == active) victim = r;
  cluster->kill_replica(part, victim);

  Phase failover = measure(ep, server->addr(), failover_conns);

  // Phase 3: restart the killed replica. It catches up from a peer
  // snapshot + sequenced suffix off the serving path; we time the full
  // rejoin (boot -> installed -> converged with the group).
  Stopwatch rejoin_sw;
  die_on_err(cluster->restart_replica(part, victim), "restart_replica");
  if (!cluster->replica(part, victim)->wait_ready(seconds(30))) {
    std::fprintf(stderr, "restarted replica never became ready\n");
    return 1;
  }
  double ready_ms = rejoin_sw.elapsed_us() / 1000.0;
  auto converged = [&] {
    auto [e0, s0] = cluster->replica(part, 0)->state()->catalogue_snapshot();
    auto [e1, s1] =
        cluster->replica(part, victim)->state()->catalogue_snapshot();
    return s1 == s0 && e1.size() == e0.size();
  };
  Deadline conv_dl = Deadline::after(seconds(30));
  while (!converged() && !conv_dl.expired()) sleep_for(ms(5));
  double converge_ms = rejoin_sw.elapsed_us() / 1000.0;
  bool conv_ok = converged();
  Phase rejoined = measure(ep, server->addr(), failover_conns);

  // Phase 4: kill the active sequencer of the partition the
  // establishment path depends on. Replicas detect the sequenced-stream
  // silence (replicated sweeps double as keepalives), elect the standby
  // candidate, and re-propose in-flight ops. The election time IS the
  // mutation outage; establishments run right through it.
  cluster->kill_sequencer(part, 0);
  Stopwatch vc_sw;
  Phase viewchange = measure(ep, server->addr(), failover_conns);
  auto in_next_view = [&] {
    for (size_t r = 0; r < 3; r++)
      if (cluster->alive(part, r) &&
          cluster->replica(part, r)->current_view() >= 1)
        return true;
    return false;
  };
  Deadline vc_dl = Deadline::after(seconds(10));
  while (!in_next_view() && !vc_dl.expired()) sleep_for(ms(2));
  double election_ms = vc_sw.elapsed_us() / 1000.0;
  bool elected = in_next_view();
  // A post-election mutation on the affected partition ("reliable"
  // hashes there by construction) proves the new sequencer serves
  // writes.
  auto probe = die_on_err(cluster->client("vc-probe", rpc), "probe client");
  ImplInfo probe_info;
  probe_info.type = "reliable";
  probe_info.name = "reliable/vc-probe";
  probe_info.scope = Scope::host;
  probe_info.endpoints = EndpointConstraint::server;
  bool write_ok = probe->register_impl(probe_info).ok();
  double write_ms = vc_sw.elapsed_us() / 1000.0;

  // Phase 5: online repartitioning. Steady-state mutation baseline
  // first, then a live 2 -> 4 split followed by a 4 -> 2 merge while a
  // mutation loop keeps writing. Every mutation retries until it lands,
  // so its observed latency IS the write unavailability it sat through;
  // with BERTHA_RESHARD_GATE=1 the migration must keep the worst one
  // under BERTHA_RESHARD_UNAVAIL_MS (default 1000) and the
  // during-migration mutation p99 within BERTHA_RESHARD_P99_X (default
  // 4x) of the steady-state mutation p99.
  const bool reshard_gate = std::getenv("BERTHA_RESHARD_GATE") != nullptr;
  double reshard_p99_x = 4.0;
  if (const char* env = std::getenv("BERTHA_RESHARD_P99_X"))
    reshard_p99_x = std::atof(env);
  double reshard_unavail_ms = 1000;
  if (const char* env = std::getenv("BERTHA_RESHARD_UNAVAIL_MS"))
    reshard_unavail_ms = std::atof(env);

  auto wr = die_on_err(cluster->client("reshard-wr", rpc), "reshard writer");
  std::atomic<int> mut_id{0};
  std::atomic<int> mut_failures{0};
  auto mutate = [&](Histogram& out) {
    int i = mut_id.fetch_add(1);
    ImplInfo mi;
    mi.type = "rsb.t" + std::to_string(i % 64);
    mi.name = mi.type + "/m" + std::to_string(i);
    mi.scope = Scope::host;
    mi.endpoints = EndpointConstraint::server;
    Stopwatch sw;
    Deadline dl = Deadline::after(seconds(10));
    bool landed = false;
    while (!landed && !dl.expired()) landed = wr->register_impl(mi).ok();
    if (landed)
      out.record(sw.elapsed());
    else
      mut_failures.fetch_add(1);
  };

  Histogram steady_mut;
  const int mut_n = scaled(300, 50);
  for (int i = 0; i < mut_n; i++) mutate(steady_mut);
  Histogram::Summary steady_mut_s = steady_mut.summarize(1e3);

  Histogram migrate_mut;
  std::atomic<bool> reshard_done{false};
  std::thread mut_thread([&] {
    while (!reshard_done.load()) mutate(migrate_mut);
  });
  auto coord =
      die_on_err(ReshardCoordinator::create(*cluster), "reshard coordinator");
  Stopwatch split_sw;
  die_on_err(coord->split(), "split");
  double split_ms = split_sw.elapsed_us() / 1000.0;
  Stopwatch merge_sw;
  die_on_err(coord->merge(), "merge");
  double merge_ms = merge_sw.elapsed_us() / 1000.0;
  reshard_done.store(true);
  mut_thread.join();
  Histogram::Summary migrate_mut_s = migrate_mut.summarize(1e3);
  Phase resharded = measure(ep, server->addr(), failover_conns);

  size_t rotations = srv_disc->server_failovers();
  auto cli_disc =
      std::dynamic_pointer_cast<ClusterDiscovery>(cli_rt->config().discovery);
  rotations += cli_disc->server_failovers();
  uint64_t view_changes = 0, catchups = 0, skips = 0;
  for (size_t r = 0; r < 3; r++) {
    if (!cluster->alive(part, r)) continue;
    view_changes =
        std::max(view_changes, cluster->replica(part, r)->view_changes());
    catchups += cluster->replica(part, r)->catchups();
    skips += cluster->replica(part, r)->gaps_skipped();
  }

  std::printf("\n%-28s %8s %10s %10s %10s %10s %6s\n", "phase", "conns",
              "p50(us)", "p95(us)", "p99(us)", "max(us)", "fail");
  auto row = [](const char* name, int n, const Phase& ph) {
    std::printf("%-28s %8d %10.1f %10.1f %10.1f %10.1f %6d\n", name, n,
                ph.connect_us.p50, ph.connect_us.p95, ph.connect_us.p99,
                ph.connect_us.max, ph.failures);
  };
  row("steady (3/3 replicas)", steady_conns, steady);
  row("failover (replica killed)", failover_conns, failover);
  row("rejoined (after catch-up)", failover_conns, rejoined);
  row("view change (seq killed)", failover_conns, viewchange);
  row("resharded (split + merge)", failover_conns, resharded);
  std::printf("=> killed p%zu-r%zu mid-run; clients rotated %zu time(s); the\n"
              "   failover p99 absorbs one RPC timeout (%lldms) + retry\n",
              part, victim, rotations,
              static_cast<long long>(rpc.rpc_timeout.count() / 1000000));
  std::printf("=> restart: ready (snapshot installed) in %.1fms, converged\n"
              "   with the group in %.1fms (%llu catch-up(s), %llu skips)\n",
              ready_ms, converge_ms, static_cast<unsigned long long>(catchups),
              static_cast<unsigned long long>(skips));
  std::printf("=> sequencer kill: standby elected (view %llu) in %.1fms, "
              "first post-\n   election write landed at %.1fms; worst "
              "establishment during the\n   change %.1fms\n",
              static_cast<unsigned long long>(view_changes), election_ms,
              write_ms, viewchange.connect_us.max / 1000.0);
  std::printf("=> reshard: split 2->4 in %.1fms, merge 4->2 in %.1fms\n"
              "   mutations: steady p50/p99 %.1f/%.1fus (%zu), during "
              "migration\n   p50/p99 %.1f/%.1fus (%zu), worst "
              "time-to-land %.1fms, %d never landed\n",
              split_ms, merge_ms, steady_mut_s.p50, steady_mut_s.p99,
              steady_mut_s.count, migrate_mut_s.p50, migrate_mut_s.p99,
              migrate_mut_s.count, migrate_mut_s.max / 1000.0,
              mut_failures.load());

  if (gate) {
    bool ok = true;
    int fails = steady.failures + failover.failures + rejoined.failures +
                viewchange.failures;
    if (fails) {
      std::fprintf(stderr,
                   "GATE FAIL: %d establishment failures across phases "
                   "(want 0)\n",
                   fails);
      ok = false;
    }
    if (failover.connect_us.p99 > p99_bound_ms * 1000.0) {
      std::fprintf(stderr,
                   "GATE FAIL: during-failover p99 %.1fus exceeds %.0fms\n",
                   failover.connect_us.p99, p99_bound_ms);
      ok = false;
    }
    if (viewchange.connect_us.max > view_max_ms * 1000.0) {
      std::fprintf(stderr,
                   "GATE FAIL: during-view-change worst establishment "
                   "%.1fus exceeds %.0fms\n",
                   viewchange.connect_us.max, view_max_ms);
      ok = false;
    }
    if (!elected || !write_ok || write_ms > view_max_ms) {
      std::fprintf(stderr,
                   "GATE FAIL: view change did not restore writes within "
                   "%.0fms (elected=%d write_ok=%d at %.1fms)\n",
                   view_max_ms, elected ? 1 : 0, write_ok ? 1 : 0, write_ms);
      ok = false;
    }
    if (!conv_ok) {
      std::fprintf(stderr,
                   "GATE FAIL: restarted replica never converged\n");
      ok = false;
    }
    if (skips) {
      std::fprintf(stderr,
                   "GATE FAIL: %llu bounded skips (recovery must use "
                   "catch-up)\n",
                   static_cast<unsigned long long>(skips));
      ok = false;
    }
    if (!ok) return 1;
    std::printf("GATE PASS: zero failures, failover p99 %.1fus <= %.0fms, "
                "view-change max %.1fus <= %.0fms, catch-up converged\n",
                failover.connect_us.p99, p99_bound_ms,
                viewchange.connect_us.max, view_max_ms);
  }

  if (reshard_gate) {
    bool ok = true;
    if (mut_failures.load() > 0) {
      std::fprintf(stderr,
                   "RESHARD GATE FAIL: %d mutation(s) never landed "
                   "(writes unavailable > 10s)\n",
                   mut_failures.load());
      ok = false;
    }
    if (resharded.failures > 0) {
      std::fprintf(stderr,
                   "RESHARD GATE FAIL: %d establishment failures after the "
                   "split + merge (want 0)\n",
                   resharded.failures);
      ok = false;
    }
    if (migrate_mut_s.count > 0) {
      if (migrate_mut_s.p99 > reshard_p99_x * steady_mut_s.p99) {
        std::fprintf(stderr,
                     "RESHARD GATE FAIL: during-migration mutation p99 "
                     "%.1fus exceeds %.1fx steady p99 %.1fus\n",
                     migrate_mut_s.p99, reshard_p99_x, steady_mut_s.p99);
        ok = false;
      }
      if (migrate_mut_s.max > reshard_unavail_ms * 1000.0) {
        std::fprintf(stderr,
                     "RESHARD GATE FAIL: worst mutation time-to-land "
                     "%.1fms exceeds %.0fms\n",
                     migrate_mut_s.max / 1000.0, reshard_unavail_ms);
        ok = false;
      }
    }
    if (cluster->active_partitions() != 2) {
      std::fprintf(stderr,
                   "RESHARD GATE FAIL: %zu partitions active after merge "
                   "(want 2)\n",
                   cluster->active_partitions());
      ok = false;
    }
    if (!ok) return 1;
    std::printf("RESHARD GATE PASS: mutation p99 %.1fus <= %.1fx steady "
                "%.1fus, worst %.1fms <= %.0fms, zero stuck writes\n",
                migrate_mut_s.p99, reshard_p99_x, steady_mut_s.p99,
                migrate_mut_s.max / 1000.0, reshard_unavail_ms);
  }
  return 0;
}
