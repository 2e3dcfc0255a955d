// §5 claim: "Establishing a Bertha connection requires two additional
// IPC round trips to query the discovery service and negotiate the
// connection mechanism. However, subsequent messages on an established
// connection do not encounter additional latency."
//
// This harness quantifies both halves:
//  1. connection setup: raw UDP round trip vs Bertha connect with an
//     *in-process* discovery handle vs Bertha connect where the server
//     consults a real discovery daemon over a unix socket (the
//     deployment §4.2 describes),
//  2. established-connection overhead: per-message RTT on a negotiated
//     Bertha connection vs the raw transport (the 11-byte header parse
//     is the only difference).
#include <thread>

#include "apps/ping.hpp"
#include "bench_util.hpp"
#include "net/uds.hpp"
#include "net/udp.hpp"

using namespace bertha;
using namespace bertha::bench;

namespace {

Histogram::Summary measure_connects(Endpoint& ep, const Addr& server, int n) {
  Histogram samples;
  for (int i = 0; i < n; i++) {
    auto run = ping_over_new_connection(ep, server, 32, 1,
                                        Deadline::after(seconds(10)));
    if (run.ok()) samples.record(run.value().connect_time);
  }
  return samples.summarize(1e3);
}

}  // namespace

int main() {
  print_header("negotiation & discovery overhead at connection establishment",
               "Bertha §5 'two additional IPC round trips' claim");
  const int conns = scaled(800, 50);

  // --- baseline: one raw UDP round trip (what a minimal handshake costs).
  {
    auto srv = die_on_err(UdpTransport::bind(Addr::udp("127.0.0.1", 0)), "srv");
    auto cli = die_on_err(UdpTransport::bind(Addr::udp("127.0.0.1", 0)), "cli");
    std::thread echo([&] {
      for (;;) {
        auto p = srv->recv();
        if (!p.ok()) return;
        (void)srv->send_to(p.value().src, p.value().payload);
      }
    });
    Histogram rtt;
    Bytes b(32, 1);
    for (int i = 0; i < conns; i++) {
      Stopwatch sw;
      (void)cli->send_to(srv->local_addr(), b);
      if (cli->recv(Deadline::after(seconds(5))).ok())
        rtt.record(sw.elapsed());
    }
    std::printf("raw UDP round trip:                 p50=%7.1fus p95=%7.1fus\n",
                rtt.summarize(1e3).p50, rtt.summarize(1e3).p95);
    srv->close();
    echo.join();
  }

  // --- bertha connect, in-process discovery.
  {
    auto discovery = std::make_shared<DiscoveryState>();
    auto rt = real_runtime("neg-host", discovery);
    auto server = die_on_err(PingServer::start(rt, wrap(ChunnelSpec("reliable")),
                                               Addr::udp("127.0.0.1", 0)),
                             "server");
    auto ep = die_on_err(rt->endpoint("cli", ChunnelDag::empty()), "ep");
    Histogram::Summary s = measure_connects(ep, server->addr(), conns);
    std::printf("bertha connect (local discovery):   p50=%7.1fus p95=%7.1fus\n",
                s.p50, s.p95);
  }

  // --- bertha connect, discovery daemon over a unix socket: the
  //     negotiation handler pays one real IPC round trip per connection,
  //     a batched lookup of every chunnel type in the chain.
  {
    auto state = std::make_shared<DiscoveryState>();
    auto daemon_sock = die_on_err(
        UdsTransport::bind(Addr::uds("neg-bench-disc-" + make_unique_id())),
        "daemon sock");
    DiscoveryServer daemon(std::move(daemon_sock), state);
    auto client_sock =
        die_on_err(UdsTransport::bind(Addr::uds("")), "disc client sock");
    auto remote = std::make_shared<RemoteDiscovery>(std::move(client_sock),
                                                    daemon.addr());

    RuntimeConfig cfg;
    cfg.host_id = "neg-host";
    cfg.transports = std::make_shared<DefaultTransportFactory>();
    cfg.discovery = remote;
    auto rt = Runtime::create(cfg).value();
    die_on_err(register_builtin_chunnels(*rt), "builtins");

    auto server = die_on_err(PingServer::start(rt, wrap(ChunnelSpec("reliable")),
                                               Addr::udp("127.0.0.1", 0)),
                             "server");
    auto ep = die_on_err(rt->endpoint("cli", ChunnelDag::empty()), "ep");
    Histogram::Summary s = measure_connects(ep, server->addr(), conns);
    std::printf("bertha connect (discovery daemon):  p50=%7.1fus p95=%7.1fus "
                "(%llu daemon requests)\n",
                s.p50, s.p95,
                static_cast<unsigned long long>(daemon.requests_served()));
  }

  // --- established connection: per-message overhead vs raw transport.
  {
    auto discovery = std::make_shared<DiscoveryState>();
    auto rt = real_runtime("neg-host", discovery);
    auto server = die_on_err(
        PingServer::start(rt, ChunnelDag::empty(), Addr::udp("127.0.0.1", 0)),
        "server");
    auto ep = die_on_err(rt->endpoint("cli", ChunnelDag::empty()), "ep");
    auto conn = die_on_err(
        ep.connect(server->addr(), Deadline::after(seconds(10))), "connect");
    Histogram rtts;
    for (int i = 0; i < conns * 3; i++) {
      auto d = ping_once(*conn, 32, Deadline::after(seconds(5)));
      if (d.ok()) rtts.record(d.value());
    }
    std::printf("established bertha conn, per msg:   p50=%7.1fus p95=%7.1fus "
                "(vs raw UDP above: framing only)\n",
                rtts.summarize(1e3).p50, rtts.summarize(1e3).p95);
    conn->close();
  }
  return 0;
}
