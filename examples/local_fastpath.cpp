// local_fastpath: the paper's Listing 1 — container-to-container
// communication that transparently uses unix-socket IPC when both ends
// share a host, and the UDP network path otherwise.
//
// The program runs the same ping exchange twice: once between two
// "containers" on one host (the connection silently rebases onto a unix
// socket after negotiation) and once across "hosts" (stays on UDP), and
// prints the measured round-trip latencies so the fast path's advantage
// is visible.
//
// Run: ./local_fastpath
#include <cstdio>

#include "apps/ping.hpp"
#include "chunnels/builtin.hpp"
#include "net/factory.hpp"
#include "util/stats.hpp"

using namespace bertha;

namespace {

Histogram::Summary measure(const std::string& server_host,
                           const std::string& client_host,
                           std::shared_ptr<DiscoveryState> discovery) {
  auto make_runtime = [&](const std::string& host) {
    RuntimeConfig cfg;
    cfg.host_id = host;
    cfg.transports = std::make_shared<DefaultTransportFactory>();
    cfg.discovery = discovery;
    auto rt = Runtime::create(cfg).value();
    (void)register_builtin_chunnels(*rt);
    return rt;
  };
  auto server_rt = make_runtime(server_host);
  auto client_rt = make_runtime(client_host);

  // Listing 1: bertha::new("container-app", wrap!(local_or_remote()))
  auto server = PingServer::start(server_rt,
                                  wrap(ChunnelSpec("local_or_remote")),
                                  Addr::udp("127.0.0.1", 0))
                    .value();
  auto ep = client_rt->endpoint("container-client", ChunnelDag::empty())
                .value();
  auto conn =
      ep.connect(server->addr(), Deadline::after(seconds(10))).value();

  Histogram rtts;
  for (int i = 0; i < 2000; i++) {
    auto rtt = ping_once(*conn, 64, Deadline::after(seconds(10)));
    if (rtt.ok()) rtts.record(rtt.value());
  }
  conn->close();
  server->stop();
  return rtts.summarize(1e3);
}

}  // namespace

int main() {
  auto discovery = std::make_shared<DiscoveryState>();

  std::printf("same host (connection rebased onto a unix socket):\n");
  Histogram::Summary local = measure("host-a", "host-a", discovery);
  std::printf("  %s us\n", local.to_string().c_str());

  std::printf("different hosts (stays on the UDP network path):\n");
  Histogram::Summary remote = measure("host-a", "host-b", discovery);
  std::printf("  %s us\n", remote.to_string().c_str());

  std::printf(
      "local fast path is %.2fx faster at the median — with identical "
      "application code on both runs\n",
      remote.p50 / local.p50);
  return 0;
}
