// Figure 4: dynamic name resolution.
//
// "When the client starts, the only server running is placed on a
// remote machine. ... At t = 4 sec., an instance of the server is
// started locally; subsequent client connections choose the local
// instance and communicate using UNIX domain sockets. As a result, the
// subsequent requests have lower latency."
//
// The client resolves the service name through the Bertha discovery
// service *on every connection* and never changes: the latency drop at
// t=4s comes entirely from the directory update plus the
// local_or_remote chunnel switching to the unix socket.
//
// To make the remote/local contrast visible on one machine, the
// "remote" instance applies a small per-message service delay standing
// in for cross-machine network latency (DESIGN.md §1.4); the structure
// of the experiment — re-resolution per connection, zero client-side
// changes — is the paper's.
#include <thread>

#include "apps/ping.hpp"
#include "bench_util.hpp"
#include "chunnels/directory.hpp"

using namespace bertha;
using namespace bertha::bench;

namespace {

// An echo server that injects a fixed delay per request (the stand-in
// for the remote machine's network distance).
class DelayedEchoServer {
 public:
  DelayedEchoServer(std::shared_ptr<Runtime> rt, Duration delay) {
    listener_ = die_on_err(rt->endpoint("echo",
                                        wrap(ChunnelSpec("local_or_remote")))
                               .value()
                               .listen(Addr::udp("127.0.0.1", 0)),
                           "listen");
    accept_thread_ = std::thread([this, delay] {
      for (;;) {
        auto conn = listener_->accept();
        if (!conn.ok()) return;
        std::lock_guard<std::mutex> lk(mu_);
        workers_.emplace_back([c = std::move(conn).value(), delay] {
          for (;;) {
            auto m = c->recv();
            if (!m.ok()) return;
            if (delay > Duration::zero()) sleep_for(delay);
            if (!c->send(std::move(m).value()).ok()) return;
          }
        });
      }
    });
  }

  ~DelayedEchoServer() {
    listener_->close();
    if (accept_thread_.joinable()) accept_thread_.join();
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& w : workers_)
      if (w.joinable()) w.join();
  }

  const Addr& addr() const { return listener_->addr(); }

 private:
  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<std::thread> workers_;
};

}  // namespace

int main() {
  print_header("Fig 4 — dynamic name resolution over time",
               "Bertha Fig. 4 (HotNets '20), per-connection re-resolution");

  const int total_secs = scaled(8, 4);
  const int local_start_sec = total_secs / 2;
  const auto step = ms(200);
  const Duration remote_penalty = us(300);  // simulated network distance

  auto discovery = std::make_shared<DiscoveryState>();
  ServiceDirectory directory(discovery);

  // The remote instance, up from the start.
  auto remote_rt = real_runtime("remote-host", discovery);
  DelayedEchoServer remote(remote_rt, remote_penalty);
  die_on_err(directory.register_instance(
                 "echo-svc", {remote.addr(), "remote-host", 10}),
             "register remote");

  auto client_rt = real_runtime("client-host", discovery);
  auto ep = die_on_err(client_rt->endpoint("fig4-cli", ChunnelDag::empty()),
                       "endpoint");

  std::unique_ptr<PingServer> local;  // started mid-run
  std::shared_ptr<Runtime> local_rt;

  std::printf("%6s  %-12s  %10s  %10s\n", "t(s)", "instance", "p50(us)",
              "p95(us)");
  Stopwatch wall;
  bool local_started = false;
  while (wall.elapsed() < seconds(total_secs)) {
    if (!local_started &&
        wall.elapsed() >= seconds(local_start_sec)) {
      // t = 4s: a local instance appears and registers itself. The
      // client code below does not change.
      local_rt = real_runtime("client-host", discovery);
      local = die_on_err(PingServer::start(local_rt,
                                           wrap(ChunnelSpec("local_or_remote")),
                                           Addr::udp("127.0.0.1", 0)),
                         "local server");
      die_on_err(directory.register_instance(
                     "echo-svc", {local->addr(), "client-host", 10}),
                 "register local");
      local_started = true;
    }

    // Resolve -> connect -> 3 RPCs -> close. Every iteration.
    auto inst = directory.resolve("echo-svc", "client-host");
    if (!inst.ok()) continue;
    Histogram rtts;
    auto run = ping_over_new_connection(ep, inst.value().addr, 64, 3,
                                        Deadline::after(seconds(5)));
    if (run.ok())
      for (auto d : run.value().rtts) rtts.record(d);
    Histogram::Summary s = rtts.summarize(1e3);
    std::printf("%6.1f  %-12s  %10.1f  %10.1f\n",
                std::chrono::duration<double>(wall.elapsed()).count(),
                inst.value().host_id.c_str(), s.p50, s.p95);
    sleep_for(step);
  }
  std::printf("=> latency steps down once the local instance registers; the "
              "client re-resolves per connection and needed no changes\n");
  return 0;
}
