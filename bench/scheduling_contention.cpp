// §6 "Scheduling and Placement" ablation.
//
// "if two programs can benefit from offloading functionality to a P4
// switch, but the switch only has capacity for one, the Bertha runtime
// must choose between these two applications."
//
// Two replicated services want the switch sequencer; the switch holds
// one slot. Group A installs first and gets in-network ordering; group
// B is refused at install time, falls back to a software sequencer, and
// pays the extra hop. When group A releases its slot, B's operator can
// re-install and B's *new* connections bind the switch — existing code
// unchanged. The harness measures commit latency for each phase.
//
// A second section exercises per-connection admission on the SimNic
// crypto-engine pool: N+1 concurrent connections over an encrypt
// pipeline, where exactly N bind encrypt/nic and the rest fall back to
// encrypt/sw.
#include "apps/kvserver.hpp"
#include "apps/rsm.hpp"
#include "bench_util.hpp"
#include "chunnels/shard.hpp"
#include "chunnels/ordered_mcast.hpp"
#include "sim/simnic.hpp"
#include "sim/simswitch.hpp"

using namespace bertha;
using namespace bertha::bench;

namespace {

struct Group {
  std::vector<std::unique_ptr<RsmReplica>> replicas;
  std::vector<Addr> ctrls;
};

Group start_group(const std::string& prefix, const std::string& group_name,
                  const std::vector<Addr>& members,
                  std::shared_ptr<SimNet> sim, DiscoveryPtr discovery) {
  Group g;
  for (size_t i = 0; i < members.size(); i++) {
    std::string node = prefix + std::to_string(i);
    RuntimeConfig cfg;
    cfg.host_id = node;
    cfg.transports =
        std::make_shared<DefaultTransportFactory>(nullptr, sim, node);
    cfg.discovery = discovery;
    auto rt = Runtime::create(std::move(cfg)).value();
    die_on_err(register_builtin_chunnels(*rt), "builtins");

    RsmReplicaConfig rcfg;
    rcfg.rt = rt;
    rcfg.listen_addr = Addr::sim(node, 8000);
    rcfg.member_addr = members[i];
    rcfg.group = group_name;
    rcfg.replier = i == 0;
    g.replicas.push_back(die_on_err(RsmReplica::start(std::move(rcfg)),
                                    "replica"));
    g.ctrls.push_back(g.replicas.back()->control_addr());
  }
  return g;
}

Histogram::Summary measure_commits(std::shared_ptr<Runtime> rt,
                                   const std::vector<Addr>& ctrls, int ops) {
  auto client = die_on_err(
      RsmClient::connect(rt, ctrls, Deadline::after(seconds(10))), "connect");
  Histogram lat;
  for (int i = 0; i < ops; i++) {
    KvRequest op;
    op.op = KvOp::put;
    op.id = static_cast<uint64_t>(i + 1);
    op.key = "k";
    op.value = "v";
    Stopwatch sw;
    if (client->execute(op, Deadline::after(seconds(10))).ok())
      lat.record(sw.elapsed());
  }
  client->close();
  return lat.summarize(1e3);
}

}  // namespace

int main() {
  print_header("§6 ablation — offload capacity contention",
               "Bertha §6 'Scheduling and Placement'");
  const int ops = scaled(600, 50);

  SimNet::Config net_cfg;
  net_cfg.default_latency = us(100);
  auto sim = SimNet::create(net_cfg);
  auto discovery = std::make_shared<DiscoveryState>();

  SimSwitch::Config sw_cfg;
  sw_cfg.sequencer_slots = 1;  // room for exactly one group
  auto sw = die_on_err(SimSwitch::create(sim, discovery, sw_cfg), "switch");

  std::vector<Addr> members_a = {Addr::sim("a0", 7000), Addr::sim("a1", 7000),
                                 Addr::sim("a2", 7000)};
  std::vector<Addr> members_b = {Addr::sim("b0", 7000), Addr::sim("b1", 7000),
                                 Addr::sim("b2", 7000)};

  // Group A wins the slot.
  (void)die_on_err(sw->install_sequencer_group("grp-a", 7100, members_a),
                   "install A");
  // Group B is refused: the switch is full.
  auto refused = sw->install_sequencer_group("grp-b", 7100, members_b);
  std::printf("group B switch install: %s\n",
              refused.ok() ? "UNEXPECTEDLY OK"
                           : refused.error().to_string().c_str());
  // B's operator falls back to a software sequencer.
  RuntimeConfig seq_cfg;
  seq_cfg.host_id = "seqhost";
  seq_cfg.transports =
      std::make_shared<DefaultTransportFactory>(nullptr, sim, "seqhost");
  seq_cfg.discovery = discovery;
  auto seq_rt = Runtime::create(std::move(seq_cfg)).value();
  auto soft = die_on_err(
      SoftwareSequencer::start(seq_rt->transports(),
                               Addr::sim("seqhost", 7100), members_b),
      "soft sequencer");
  die_on_err(soft->register_with(*discovery, "grp-b"), "register soft");

  Group group_a = start_group("a", "grp-a", members_a, sim, discovery);
  Group group_b = start_group("b", "grp-b", members_b, sim, discovery);

  auto make_client_rt = [&](const std::string& node) {
    RuntimeConfig cfg;
    cfg.host_id = node;
    cfg.transports =
        std::make_shared<DefaultTransportFactory>(nullptr, sim, node);
    cfg.discovery = discovery;
    auto rt = Runtime::create(std::move(cfg)).value();
    die_on_err(register_builtin_chunnels(*rt), "builtins");
    return rt;
  };

  auto a1 = measure_commits(make_client_rt("ca"), group_a.ctrls, ops);
  auto b1 = measure_commits(make_client_rt("cb"), group_b.ctrls, ops);
  std::printf("\nphase 1 (A holds the switch slot):\n");
  std::printf("  group A (switch):   p50=%7.1fus p95=%7.1fus\n", a1.p50, a1.p95);
  std::printf("  group B (software): p50=%7.1fus p95=%7.1fus  (+%.0fus from "
              "the extra hop)\n",
              b1.p50, b1.p95, b1.p50 - a1.p50);

  // Group A finishes; the slot frees; B re-installs and *new*
  // connections bind the switch.
  die_on_err(sw->remove_sequencer_group("grp-a", 7100), "remove A");
  // Sequence continuity: the switch takes over from the software
  // sequencer's next sequence number (the view-change duty).
  soft->stop();
  (void)die_on_err(sw->install_sequencer_group("grp-b", 7200, members_b,
                                               soft->sequenced()),
                   "install B");
  auto b2 = measure_commits(make_client_rt("cb2"), group_b.ctrls, ops);
  std::printf("\nphase 2 (A released; B re-installed on the switch):\n");
  std::printf("  group B (switch):   p50=%7.1fus p95=%7.1fus  (recovered "
              "%.0fus, no code changes)\n",
              b2.p50, b2.p95, b1.p50 - b2.p50);

  // --- per-connection NIC engine admission ---
  std::printf("\nNIC crypto-engine admission (pool capacity 2, 4 concurrent "
              "connections):\n");
  auto nic_disc = std::make_shared<DiscoveryState>();
  SimNic::Config nic_cfg;
  nic_cfg.crypto_engines = 2;
  nic_cfg.pcie_per_kib = us(0);
  nic_cfg.pcie_setup = us(0);
  auto nic = die_on_err(SimNic::create(nic_disc, nic_cfg), "nic");
  die_on_err(nic->advertise_offloads(), "advertise");

  auto rt = real_runtime("nic-host", nic_disc);
  auto listener = die_on_err(rt->endpoint("enc", wrap(ChunnelSpec("encrypt")))
                                 .value()
                                 .listen(Addr::udp("127.0.0.1", 0)),
                             "listen");
  std::vector<ConnPtr> conns;
  for (int i = 0; i < 4; i++) {
    auto conn = die_on_err(rt->endpoint("enc-cli", ChunnelDag::empty())
                               .value()
                               .connect(listener->addr(),
                                        Deadline::after(seconds(10))),
                           "connect");
    conns.push_back(std::move(conn));
    std::printf("  after connection %d: %llu/%llu engines in use\n", i + 1,
                static_cast<unsigned long long>(
                    nic_disc->pool_in_use(nic->crypto_pool())),
                static_cast<unsigned long long>(
                    nic_disc->pool_capacity(nic->crypto_pool())));
  }
  std::printf("  => first 2 connections bound encrypt/nic; the rest fell "
              "back to encrypt/sw\n");
  for (auto& c : conns) c->close();

  // --- in-switch sharding (the paper's Fig-1 "P4 Sharding
  //     Implementation"): steering happens in the network, zero steering
  //     hop and zero server CPU, vs the host XDP dispatcher which adds a
  //     hop through a server thread. Both on the same 100us SimNet. ---
  std::printf("\nin-switch sharding vs host dispatcher (SimNet, 100us links, "
              "thin client):\n");
  const int shard_ops = scaled(1500, 100);
  for (int use_switch = 1; use_switch >= 0; use_switch--) {
    auto disc = std::make_shared<DiscoveryState>();
    auto sw2 = die_on_err(SimSwitch::create(sim, disc, SimSwitch::Config{}),
                          "switch2");
    auto mk = [&](const std::string& node, bool builtins) {
      RuntimeConfig cfg;
      cfg.host_id = node;
      cfg.transports =
          std::make_shared<DefaultTransportFactory>(nullptr, sim, node);
      cfg.discovery = disc;
      auto rt2 = Runtime::create(std::move(cfg)).value();
      if (builtins) die_on_err(register_builtin_chunnels(*rt2), "builtins");
      return rt2;
    };
    std::string srv_node = use_switch ? "kvsrv-sw" : "kvsrv-xdp";
    auto srv_rt = mk(srv_node, true);
    auto cli_rt = mk(use_switch ? "kvcli-sw" : "kvcli-xdp", false);
    // Thin client: no client-push fallback, so policy picks the best
    // server/network implementation.
    die_on_err(register_shard_chunnels(*cli_rt, false, true, true),
               "client shard chunnels");

    auto backend = die_on_err(
        KvBackend::start(srv_rt->transports(), Addr::sim(srv_node, 0),
                         srv_node, 3),
        "backend");
    ShardArgs sargs;
    sargs.shards = backend->shard_addrs();
    sargs.field_offset = kKvShardFieldOffset;
    sargs.field_len = kKvShardFieldLen;
    ChunnelArgs args;
    args.set("shards", format_addr_list(sargs.shards));
    args.set_u64("field_offset", sargs.field_offset);
    args.set_u64("field_len", sargs.field_len);
    args.set("instance", "kv-bench");

    Addr vip;
    if (use_switch)
      vip = die_on_err(install_switch_shard_offload(*sw2, *disc, "kv-vip",
                                                    80, sargs, "kv-bench"),
                       "install shard program");

    auto listener = die_on_err(
        srv_rt->endpoint("kv", wrap(ChunnelSpec("shard", args)))
            .value()
            .listen(Addr::sim(srv_node, 9000)),
        "listen");
    auto conn = die_on_err(cli_rt->endpoint("cli", ChunnelDag::empty())
                               .value()
                               .connect(listener->addr(),
                                        Deadline::after(seconds(10))),
                           "connect");
    Histogram lat;
    for (int i = 0; i < shard_ops; i++) {
      KvRequest req;
      req.op = KvOp::put;
      req.id = static_cast<uint64_t>(i + 1);
      req.key = "key-" + std::to_string(i % 64);
      req.value = "v";
      Msg m;
      m.payload = encode_kv_request(req);
      Stopwatch sw3;
      if (!conn->send(std::move(m)).ok()) break;
      if (conn->recv(Deadline::after(seconds(5))).ok())
        lat.record(sw3.elapsed());
    }
    Histogram::Summary su = lat.summarize(1e3);
    uint64_t host_steered = 0;
    for (const auto& impl : srv_rt->registry().lookup_type("shard"))
      if (auto* xdp = dynamic_cast<ShardXdpChunnel*>(impl.get()))
        host_steered += xdp->packets_steered();
    std::printf("  %-22s p50=%7.1fus p95=%7.1fus  switch-steered=%llu "
                "server-steered=%llu\n",
                use_switch ? "shard/switch (P4)" : "shard/xdp (host)", su.p50,
                su.p95,
                static_cast<unsigned long long>(
                    use_switch ? sw2->steered(vip) : 0),
                static_cast<unsigned long long>(host_steered));
    conn->close();
    backend->stop();
  }
  std::printf("  => per-RPC latency is comparable at idle (the host hop is\n"
              "     intra-machine), but in-network steering involves ZERO\n"
              "     server CPU per request — the steering stage that becomes\n"
              "     Fig 5's bottleneck under load simply does not exist\n");
  for (auto& r : group_a.replicas) r->stop();
  for (auto& r : group_b.replicas) r->stop();
  return 0;
}
