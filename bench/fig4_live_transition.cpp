// Figure 4, live variant: transitioning an *established* connection.
//
// fig4_dynamic_resolution reproduces the paper's experiment by
// re-resolving per connection: new connections pick up the local
// instance once it registers. This harness shows the stronger property
// the renegotiation subsystem adds (core/renegotiation.hpp): a single
// long-lived connection steps down in latency when the unix-socket fast
// path library "loads" mid-run — no reconnect, no dropped message.
//
// The server starts with only the passthrough local_or_remote impl, so
// traffic flows over UDP. Halfway through, LocalFastPathChunnel is
// registered and announced via discovery; the transition controller's
// watch fires, renegotiates the live connection, and cuts it over to
// the unix socket at an epoch boundary while the RPC loop keeps
// running.
//
// Reported: RTT percentiles per step (the step-down), the bound impl
// over time, message drops (must be 0), cutover delay (offer sent ->
// old chain drained), and watch overhead (events before/after the
// transition settles).
#include <cstdlib>
#include <future>
#include <thread>

#include "bench_util.hpp"
#include "chunnels/common.hpp"
#include "chunnels/localfastpath.hpp"
#include "core/renegotiation.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

using namespace bertha;
using namespace bertha::bench;

namespace {

// The impl bound for `type` in a live connection's chain ("" if absent).
std::string bound_impl(const ConnPtr& conn, const std::string& type) {
  auto* t = dynamic_cast<TransitionableConnection*>(conn.get());
  if (!t) return "";
  for (const auto& n : t->chain())
    if (n.type == type) return n.impl_name;
  return "";
}

std::shared_ptr<Runtime> fig4_runtime(DiscoveryPtr disc, TracerPtr tracer) {
  RuntimeConfig cfg;
  cfg.host_id = "fig4-host";  // client and server share the host
  cfg.transports = std::make_shared<DefaultTransportFactory>();
  cfg.discovery = std::move(disc);
  cfg.tracer = std::move(tracer);
  TransitionTuning t;
  t.offer_retry = ms(25);
  t.sweep_period = ms(10);
  cfg.transition_tuning = t;
  return Runtime::create(std::move(cfg)).value();
}

}  // namespace

int main() {
  print_header("Fig 4 (live) — in-place transition to the local fast path",
               "Bertha Fig. 4 (HotNets '20), one connection, no reconnect");

  const int total_secs = scaled(8, 4);
  const int fastpath_start_sec = total_secs / 2;
  const auto step = ms(200);
  const int pings_per_step = 20;
  const std::string payload(64, 'p');

  // BERTHA_TRACE=1: share one enabled tracer across both runtimes and
  // dump a span summary of the run (the cutover trace) at the end.
  TracerPtr tracer;
  if (const char* env = std::getenv("BERTHA_TRACE"); env && env[0] == '1') {
    Tracer::Options to;
    to.sample_every = 0;  // control-plane spans only; skip per-message paths
    tracer = std::make_shared<Tracer>(to);
  }

  auto disc = std::make_shared<DiscoveryState>();
  auto srv_rt = fig4_runtime(disc, tracer);
  die_on_err(srv_rt->register_chunnel(std::make_shared<PassthroughChunnel>(
                 "local_or_remote", "local_or_remote/none")),
             "register passthrough");
  auto cli_rt = fig4_runtime(disc, tracer);
  die_on_err(register_builtin_chunnels(*cli_rt), "client builtins");

  auto listener = die_on_err(
      srv_rt->endpoint("srv", wrap(ChunnelSpec("local_or_remote")))
          .value()
          .listen(Addr::udp("127.0.0.1", 0)),
      "listen");
  auto conn = die_on_err(cli_rt->endpoint("cli", ChunnelDag::empty())
                             .value()
                             .connect(listener->addr(),
                                      Deadline::after(seconds(5))),
                         "connect");

  // Echo loop on the server side of the one connection under test.
  std::promise<ConnPtr> accepted;
  std::thread echo([&] {
    auto srv = listener->accept(Deadline::after(seconds(5)));
    if (!srv.ok()) {
      std::fprintf(stderr, "accept: %s\n", srv.error().to_string().c_str());
      std::exit(1);
    }
    ConnPtr c = std::move(srv).value();
    accepted.set_value(c);
    for (;;) {
      auto m = c->recv();
      if (!m.ok()) return;
      if (!c->send(std::move(m).value()).ok()) return;
    }
  });
  ConnPtr srv_conn = accepted.get_future().get();

  std::printf("%6s  %-22s  %10s  %10s\n", "t(s)", "bound impl", "p50(us)",
              "p95(us)");
  Stopwatch wall;
  bool fastpath_started = false;
  uint64_t sent = 0, drops = 0;
  uint64_t watch_events_at_switch = 0;
  double switch_seen_at = -1;
  while (wall.elapsed() < seconds(total_secs)) {
    if (!fastpath_started && wall.elapsed() >= seconds(fastpath_start_sec)) {
      // The fast path library loads: register and announce. The client
      // loop below does not change; the controller does the rest.
      auto fp = std::make_shared<LocalFastPathChunnel>();
      ImplInfo info = fp->info();
      die_on_err(srv_rt->register_chunnel(std::move(fp)), "register fastpath");
      die_on_err(disc->register_impl(info), "announce fastpath");
      fastpath_started = true;
    }

    Histogram rtts;
    for (int i = 0; i < pings_per_step; i++) {
      Stopwatch rtt;
      sent++;
      if (!conn->send(Msg::of(payload)).ok() ||
          !conn->recv(Deadline::after(seconds(5))).ok()) {
        drops++;
        continue;
      }
      rtts.record(rtt.elapsed());
    }
    std::string impl = bound_impl(srv_conn, "local_or_remote");
    if (switch_seen_at < 0 && impl == "local_or_remote/uds") {
      switch_seen_at =
          std::chrono::duration<double>(wall.elapsed()).count();
      watch_events_at_switch = srv_rt->transitions().stats().watch_events;
    }
    Histogram::Summary s = rtts.summarize(1e3);
    std::printf("%6.1f  %-22s  %10.1f  %10.1f\n",
                std::chrono::duration<double>(wall.elapsed()).count(),
                impl.c_str(), s.p50, s.p95);
    sleep_for(step);
  }

  auto stats = srv_rt->transitions().stats();
  std::printf("\n");
  std::printf("rpcs sent:            %llu  (drops: %llu)\n",
              (unsigned long long)sent, (unsigned long long)drops);
  if (switch_seen_at >= 0)
    std::printf("fast path bound at:   t=%.1fs (announced at t=%ds)\n",
                switch_seen_at, fastpath_start_sec);
  std::printf("transitions:          completed=%llu offers=%llu "
              "forced=%llu drained_msgs=%llu\n",
              (unsigned long long)stats.completed,
              (unsigned long long)stats.offers_sent,
              (unsigned long long)stats.forced_cutovers,
              (unsigned long long)stats.drained_msgs);
  std::printf("cutover delay:        %.1f us (offer sent -> old chain "
              "drained)\n",
              stats.max_cutover_ns / 1e3);
  std::printf("watch overhead:       %llu events total, %llu after the "
              "transition settled\n",
              (unsigned long long)stats.watch_events,
              (unsigned long long)(stats.watch_events -
                                   watch_events_at_switch));
  std::printf("=> one established connection, zero drops: latency steps down "
              "in place when the fast path registers\n");

  conn->close();
  srv_conn->close();
  listener->close();
  if (echo.joinable()) echo.join();

  if (tracer) {
    std::printf("\n--- trace (BERTHA_TRACE=1) ---\n%s",
                export_text_summary(tracer->collect()).c_str());
  }
  return drops == 0 ? 0 : 1;
}
