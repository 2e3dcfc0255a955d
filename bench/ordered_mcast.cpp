// §3.2 "Network-Assisted Consensus": ordered multicast via an in-switch
// sequencer vs a host software sequencer.
//
// Three RSM replicas on a SimNet with 100us links. With the switch
// sequencer, a client operation travels client -> members (one link,
// stamped in transit). With the software fallback it travels client ->
// sequencer -> members (two links plus a host on the critical path).
// The client-observed commit latency should show roughly that one-hop
// difference; throughput of the software path is additionally capped by
// the sequencer process.
#include "apps/rsm.hpp"
#include "bench_util.hpp"
#include "chunnels/ordered_mcast.hpp"
#include "sim/simswitch.hpp"

using namespace bertha;
using namespace bertha::bench;

namespace {

struct McastResult {
  Histogram::Summary latency_us;
  double tput = 0;
};

McastResult run(bool use_switch, int ops) {
  SimNet::Config net_cfg;
  net_cfg.default_latency = us(100);
  auto sim = SimNet::create(net_cfg);
  auto discovery = std::make_shared<DiscoveryState>();
  auto make_rt = [&](const std::string& node) {
    RuntimeConfig cfg;
    cfg.host_id = node;
    cfg.transports = std::make_shared<DefaultTransportFactory>(nullptr, sim,
                                                               node);
    cfg.discovery = discovery;
    auto rt = Runtime::create(cfg).value();
    die_on_err(register_builtin_chunnels(*rt), "builtins");
    return rt;
  };

  std::vector<Addr> members = {Addr::sim("r0", 7000), Addr::sim("r1", 7000),
                               Addr::sim("r2", 7000)};
  std::shared_ptr<SimSwitch> sw;
  std::unique_ptr<SoftwareSequencer> soft;
  std::shared_ptr<Runtime> seq_rt;
  if (use_switch) {
    sw = die_on_err(SimSwitch::create(sim, discovery, SimSwitch::Config{}),
                    "switch");
    (void)die_on_err(sw->install_sequencer_group("grp", 7100, members),
                     "install group");
  } else {
    seq_rt = make_rt("seqhost");
    soft = die_on_err(SoftwareSequencer::start(seq_rt->transports(),
                                               Addr::sim("seqhost", 7100),
                                               members),
                      "sequencer");
    die_on_err(soft->register_with(*discovery, "grp"), "register sequencer");
  }

  std::vector<std::unique_ptr<RsmReplica>> replicas;
  std::vector<Addr> ctrls;
  for (int i = 0; i < 3; i++) {
    RsmReplicaConfig cfg;
    cfg.rt = make_rt("r" + std::to_string(i));
    cfg.listen_addr = Addr::sim("r" + std::to_string(i), 8000);
    cfg.member_addr = members[static_cast<size_t>(i)];
    cfg.group = "grp";
    cfg.replier = i == 0;
    replicas.push_back(die_on_err(RsmReplica::start(std::move(cfg)),
                                  "replica"));
    ctrls.push_back(replicas.back()->control_addr());
  }

  auto cli_rt = make_rt("c0");
  auto client = die_on_err(
      RsmClient::connect(cli_rt, ctrls, Deadline::after(seconds(10))),
      "connect");

  McastResult result;
  Histogram lat;
  Stopwatch wall;
  for (int i = 0; i < ops; i++) {
    KvRequest op;
    op.op = KvOp::put;
    op.id = static_cast<uint64_t>(i + 1);
    op.key = "k" + std::to_string(i % 16);
    op.value = "v";
    Stopwatch sw2;
    auto rsp = client->execute(op, Deadline::after(seconds(10)));
    if (rsp.ok()) lat.record(sw2.elapsed());
  }
  result.tput =
      ops / std::chrono::duration<double>(wall.elapsed()).count();
  result.latency_us = lat.summarize(1e3);

  client->close();
  for (auto& rep : replicas) rep->stop();
  return result;
}

}  // namespace

int main() {
  print_header("§3.2 — ordered multicast: switch sequencer vs software",
               "Bertha Listing 2 / NOPaxos-style network ordering");
  const int ops = scaled(2000, 100);

  McastResult hw = run(/*use_switch=*/true, ops);
  McastResult sw = run(/*use_switch=*/false, ops);

  std::printf("%-22s %9s %9s %9s %10s\n", "sequencer", "p50(us)", "p95(us)",
              "p99(us)", "commits/s");
  std::printf("%-22s %9.1f %9.1f %9.1f %10.0f\n", "switch (in-network)",
              hw.latency_us.p50, hw.latency_us.p95, hw.latency_us.p99,
              hw.tput);
  std::printf("%-22s %9.1f %9.1f %9.1f %10.0f\n", "software (fallback)",
              sw.latency_us.p50, sw.latency_us.p95, sw.latency_us.p99,
              sw.tput);
  std::printf("=> the software path pays ~one extra 100us link + a host on "
              "the critical path (p50 gap: %.0fus)\n",
              sw.latency_us.p50 - hw.latency_us.p50);
  return 0;
}
