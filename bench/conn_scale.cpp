// Connection-scale soak: one listener carrying 100k..1M connections.
//
// An open-loop YCSB-style driver in three phases:
//   ramp    — establish N connections through ONE listener (mem
//             transport; clients spread over several mem hosts because
//             one host has ~25k ephemeral ports), recording per-connect
//             establish latency.
//   sustain — park the fleet and measure what idle costs: bytes per
//             idle connection (per-binary counting operator new),
//             threads added by the second half of the ramp (must be
//             zero: keepalives ride the shared timer wheel), and
//             connections per core from getrusage CPU over a wall
//             window. A sampled echo pass measures p99 echo RTT.
//   churn   — close and re-establish a slice of the fleet at a paced
//             open-loop rate, recording churn establish latency; the
//             server table must end exactly at N live entries.
//
// BERTHA_BENCH_QUICK=1 shrinks the fleet for smoke runs.
//
// BERTHA_SCALE_GATE=1 turns the run into a CI gate:
//   BERTHA_SCALE_CONNS        fleet size            (default 100000)
//   BERTHA_SCALE_P99_MS       establish p99 budget  (default 5 ms)
//   BERTHA_SCALE_MEM_PER_CONN idle bytes/conn cap   (default 16384)
// exit nonzero if the fleet fails to establish, establish p99 blows the
// budget, idle memory exceeds the cap, or idle connections add threads.
//
// --udp: multi-process mode over loopback UDP — this binary re-execs
// itself (/proc/self/exe) as client processes, each holding a slice of
// the fleet against the parent's single listener, proving the scale
// path crosses a real socket and a real process boundary.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/runtime.hpp"
#include "net/memchan.hpp"

// --- counting allocator hooks (per-binary, io_test technique, extended
// with a size header so frees decrement and the counter tracks LIVE
// bytes — the idle fleet's true heap footprint, not churn volume) ------

static std::atomic<int64_t> g_live_bytes{0};

namespace {
constexpr size_t kAllocHdr = 16;  // keeps max_align_t alignment

void* counted_alloc(size_t n) {
  void* base = std::malloc(n + kAllocHdr);
  if (!base) throw std::bad_alloc();
  *static_cast<uint64_t*>(base) = n;
  g_live_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  return static_cast<char*>(base) + kAllocHdr;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  char* base = static_cast<char*>(p) - kAllocHdr;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*reinterpret_cast<uint64_t*>(base)),
      std::memory_order_relaxed);
  std::free(base);
}
}  // namespace

void* operator new(size_t n) { return counted_alloc(n); }
void* operator new[](size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, size_t) noexcept { counted_free(p); }
void operator delete[](void* p, size_t) noexcept { counted_free(p); }

using namespace bertha;
using namespace bertha::bench;

namespace {

int env_int(const char* name, int dflt) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : dflt;
}

// Threads in this process, from /proc/self/stat field 20 (num_threads).
int process_threads() {
  FILE* f = std::fopen("/proc/self/stat", "r");
  if (!f) return -1;
  char buf[1024];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  char* p = std::strrchr(buf, ')');  // comm may contain spaces
  if (!p) return -1;
  int field = 2;
  long threads = -1;
  for (p++; *p && field <= 20; p++) {
    if (*p == ' ') {
      field++;
      if (field == 20) threads = std::strtol(p + 1, nullptr, 10);
    }
  }
  return static_cast<int>(threads);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::shared_ptr<Runtime> mem_runtime(const std::shared_ptr<MemNetwork>& mem,
                                     const DiscoveryPtr& disc,
                                     const std::string& host) {
  RuntimeConfig cfg;
  cfg.host_id = host;
  cfg.transports = std::make_shared<DefaultTransportFactory>(mem, nullptr, host);
  cfg.discovery = disc;
  auto rt = die_on_err(Runtime::create(std::move(cfg)), "runtime");
  die_on_err(register_builtin_chunnels(*rt), "builtins");
  return rt;
}

struct GateCheck {
  const char* what;
  bool ok;
  std::string detail;
};

// ---------------------------------------------------------------------
// mem-transport soak (the default mode)
// ---------------------------------------------------------------------

int run_mem_soak() {
  const bool gate = std::getenv("BERTHA_SCALE_GATE") != nullptr;
  const int conns =
      env_int("BERTHA_SCALE_CONNS", scaled(100000, 5000));
  const double p99_budget_ms = env_int("BERTHA_SCALE_P99_MS", 5);
  const int mem_budget = env_int("BERTHA_SCALE_MEM_PER_CONN", 16384);
  const int churn_pct = env_int("BERTHA_SCALE_CHURN_PCT", 10);
  const int churn_rate = env_int("BERTHA_SCALE_CHURN_RATE", 5000);  // conns/s
  const int sustain_ms = scaled(2000, 500);

  print_header("conn_scale: one listener, open-loop connection soak",
               "scale harness (timer wheel + sharded tables)");
  std::printf("fleet=%d churn=%d%% @%d/s sustain=%dms gate=%d\n\n", conns,
              churn_pct, churn_rate, sustain_ms, gate);

  auto mem = MemNetwork::create();
  auto disc = std::make_shared<DiscoveryState>();
  auto srv_rt = mem_runtime(mem, disc, "h-srv");
  // ~25k ephemeral ports per mem host: shard the client fleet.
  const int cli_hosts = conns / 20000 + 1;
  std::vector<std::shared_ptr<Runtime>> cli_rts;
  std::vector<Endpoint> cli_eps;
  for (int h = 0; h < cli_hosts; h++) {
    cli_rts.push_back(mem_runtime(mem, disc, "h-cli-" + std::to_string(h)));
    cli_eps.push_back(
        die_on_err(cli_rts.back()->endpoint("cli", ChunnelDag::empty()),
                   "client endpoint"));
  }

  // Keepalive armed on every connection (a wheel entry each) but with
  // periods far past the run: idle must cost the entry, not traffic.
  ChunnelArgs args;
  args.set("interval_us", "30000000");
  args.set("dead_after_us", "120000000");
  auto listener =
      die_on_err(die_on_err(srv_rt->endpoint(
                                "srv", wrap(ChunnelSpec("keepalive", args))),
                            "server endpoint")
                     .listen(Addr::mem("h-srv", 100)),
                 "listen");

  std::vector<ConnPtr> client, server;
  client.reserve(conns);
  server.reserve(conns);
  Histogram establish_ns;
  int opened = 0;
  auto open_one = [&]() {
    auto& ep = cli_eps[opened % cli_hosts];
    Stopwatch sw;
    auto c = die_on_err(
        ep.connect(listener->addr(), Deadline::after(seconds(10))), "connect");
    establish_ns.record(sw.elapsed());
    client.push_back(std::move(c));
    server.push_back(die_on_err(
        listener->accept(Deadline::after(seconds(10))), "accept"));
    opened++;
  };

  // --- ramp --------------------------------------------------------
  Stopwatch ramp_sw;
  const int half = conns / 2;
  for (int i = 0; i < half; i++) open_one();
  sleep_for(ms(100));  // let shared machinery (wheel, demux) settle
  const int threads_half = process_threads();
  const int64_t bytes_half = g_live_bytes.load();

  for (int i = half; i < conns; i++) open_one();
  const double ramp_s =
      std::chrono::duration<double>(ramp_sw.elapsed()).count();
  const int threads_full = process_threads();
  const int64_t bytes_full = g_live_bytes.load();

  const int added_threads = threads_full - threads_half;
  const double bytes_per_conn =
      static_cast<double>(bytes_full - bytes_half) / (conns - half);
  auto est = establish_ns.summarize(1e3);

  std::printf("ramp:    %d conns in %.1fs (%.0f conn/s)\n", conns, ramp_s,
              conns / ramp_s);
  std::printf("         establish p50=%.0fus p95=%.0fus p99=%.0fus\n", est.p50,
              est.p95, est.p99);
  std::printf("idle:    %.0f bytes/conn, %+d threads for +%d conns\n",
              bytes_per_conn, added_threads, conns - half);

  if (listener->connections_live() != static_cast<uint64_t>(conns)) {
    std::fprintf(stderr, "FATAL: %llu live entries for %d connections\n",
                 (unsigned long long)listener->connections_live(), conns);
    return 1;
  }

  // --- sustain -----------------------------------------------------
  const double cpu0 = cpu_seconds();
  Stopwatch wall;
  sleep_for(ms(sustain_ms));
  const double cpu_used = cpu_seconds() - cpu0;
  const double wall_s = std::chrono::duration<double>(wall.elapsed()).count();
  const double cores = std::max(cpu_used / wall_s, 1e-4);
  std::printf("sustain: %.4f cores for %d idle conns -> %.0f conns/core\n",
              cores, conns, conns / cores);

  // Sampled echo across the parked fleet: client sends, the matching
  // server conn echoes, client measures the round trip.
  Histogram echo_ns;
  const int samples = std::min(conns, 512);
  for (int s = 0; s < samples; s++) {
    int i = static_cast<int>(
        (static_cast<int64_t>(s) * conns) / samples);  // spread the fleet
    Msg m;
    m.payload = {'p', 'i', 'n', 'g'};
    Stopwatch sw;
    if (!client[i]->send(std::move(m)).ok()) continue;
    auto got = server[i]->recv(Deadline::after(seconds(2)));
    if (!got.ok()) continue;
    if (!server[i]->send(std::move(got).value()).ok()) continue;
    if (!client[i]->recv(Deadline::after(seconds(2))).ok()) continue;
    echo_ns.record(sw.elapsed());
  }
  auto echo = echo_ns.summarize(1e3);
  std::printf("echo:    p50=%.0fus p99=%.0fus over %llu sampled conns\n",
              echo.p50, echo.p99, static_cast<unsigned long long>(echo.count));

  // --- churn -------------------------------------------------------
  const int churn_n = conns * churn_pct / 100;
  Histogram churn_est_ns;
  Stopwatch churn_sw;
  for (int i = 0; i < churn_n; i++) {
    client[i]->close();
    server[i]->close();
    auto& ep = cli_eps[i % cli_hosts];
    Stopwatch sw;
    auto c = die_on_err(
        ep.connect(listener->addr(), Deadline::after(seconds(10))),
        "churn connect");
    churn_est_ns.record(sw.elapsed());
    client[i] = std::move(c);
    server[i] = die_on_err(listener->accept(Deadline::after(seconds(10))),
                           "churn accept");
    // Open-loop pacing: issue at the target rate, not as-fast-as-possible.
    const double due_s = static_cast<double>(i + 1) / churn_rate;
    const double now_s =
        std::chrono::duration<double>(churn_sw.elapsed()).count();
    if (due_s > now_s)
      sleep_for(Duration(static_cast<int64_t>((due_s - now_s) * 1e9)));
  }
  auto churn_est = churn_est_ns.summarize(1e3);
  std::printf("churn:   %d reconnects, establish p50=%.0fus p99=%.0fus\n",
              churn_n, churn_est.p50, churn_est.p99);

  // The table must converge back to exactly the live fleet (stale
  // entries from the churned generation are swept by the wheel).
  Deadline settle = Deadline::after(seconds(10));
  while (listener->connections_live() != static_cast<uint64_t>(conns) &&
         !settle.expired())
    sleep_for(ms(10));
  const uint64_t live = listener->connections_live();
  std::printf("table:   %llu live entries (expect %d), %llu accepted total\n",
              (unsigned long long)live, conns,
              (unsigned long long)listener->connections_accepted());

  // --- gate --------------------------------------------------------
  std::vector<GateCheck> checks;
  checks.push_back({"fleet live", live == static_cast<uint64_t>(conns),
                    std::to_string(live) + "/" + std::to_string(conns)});
  checks.push_back({"establish p99", est.p99 <= p99_budget_ms * 1000.0,
                    std::to_string(est.p99 / 1000.0) + "ms <= " +
                        std::to_string(p99_budget_ms) + "ms"});
  checks.push_back({"idle bytes/conn",
                    bytes_per_conn <= static_cast<double>(mem_budget),
                    std::to_string(static_cast<long>(bytes_per_conn)) +
                        " <= " + std::to_string(mem_budget)});
  checks.push_back({"idle threads", added_threads == 0,
                    std::to_string(added_threads) + " added"});
  bool all_ok = true;
  std::printf("\n");
  for (const auto& c : checks) {
    std::printf("%-7s %-16s %s\n", c.ok ? "PASS" : "FAIL", c.what,
                c.detail.c_str());
    all_ok = all_ok && c.ok;
  }
  if (gate && !all_ok) {
    std::printf("GATE FAIL\n");
    return 1;
  }
  if (gate) std::printf("GATE PASS\n");

  // Teardown stays in-scope so leaked-thread/channel bugs crash here,
  // not silently at _exit.
  for (auto& c : client) c->close();
  for (auto& s : server) s->close();
  return 0;
}

// ---------------------------------------------------------------------
// --udp: multi-process mode over loopback
// ---------------------------------------------------------------------

int run_udp_client(const char* host, int port, int n, int hold_ms) {
  auto rt = real_runtime("udp-cli-" + std::to_string(getpid()), nullptr);
  auto ep = die_on_err(rt->endpoint("cli", ChunnelDag::empty()), "endpoint");
  std::vector<ConnPtr> held;
  held.reserve(n);
  for (int i = 0; i < n; i++) {
    auto c = ep.connect(Addr::udp(host, static_cast<uint16_t>(port)),
                        Deadline::after(seconds(10)));
    if (!c.ok()) {
      std::fprintf(stderr, "child %d connect %d: %s\n", getpid(), i,
                   c.error().to_string().c_str());
      return 1;
    }
    held.push_back(std::move(c).value());
  }
  sleep_for(ms(hold_ms));
  for (auto& c : held) c->close();
  return 0;
}

int run_udp_parent(const char* self_path) {
  const int kids = scaled(4, 2);
  const int per_kid = scaled(2500, 250);
  const int hold_ms = scaled(2000, 500);
  print_header("conn_scale --udp: multi-process fleet over loopback",
               "scale harness (timer wheel + sharded tables)");

  auto rt = real_runtime("udp-srv", nullptr);
  ChunnelArgs args;
  args.set("interval_us", "30000000");
  args.set("dead_after_us", "120000000");
  auto listener =
      die_on_err(die_on_err(rt->endpoint(
                                "srv", wrap(ChunnelSpec("keepalive", args))),
                            "endpoint")
                     .listen(Addr::udp("127.0.0.1", 0)),
                 "listen");
  const Addr& addr = listener->addr();
  std::printf("listener %s, %d children x %d conns\n", addr.to_string().c_str(),
              kids, per_kid);

  std::vector<pid_t> pids;
  for (int k = 0; k < kids; k++) {
    pid_t pid = fork();
    if (pid == 0) {
      std::string port = std::to_string(addr.port);
      std::string n = std::to_string(per_kid);
      std::string hold = std::to_string(hold_ms);
      execl(self_path, "conn_scale", "--udp-client", addr.host.c_str(),
            port.c_str(), n.c_str(), hold.c_str(), (char*)nullptr);
      _exit(127);  // execl failed
    }
    pids.push_back(pid);
  }

  const int total = kids * per_kid;
  std::vector<ConnPtr> server;
  server.reserve(total);
  Histogram accept_ns;
  Stopwatch ramp;
  for (int i = 0; i < total; i++) {
    Stopwatch sw;
    server.push_back(
        die_on_err(listener->accept(Deadline::after(seconds(30))), "accept"));
    accept_ns.record(sw.elapsed());
  }
  const double ramp_s = std::chrono::duration<double>(ramp.elapsed()).count();
  auto acc = accept_ns.summarize(1e3);
  std::printf("accepted %d conns in %.1fs (%.0f/s), accept p99=%.0fus\n",
              total, ramp_s, total / ramp_s, acc.p99);
  std::printf("live=%llu across %d processes\n",
              (unsigned long long)listener->connections_live(), kids);

  bool kids_ok = true;
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    kids_ok = kids_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  if (!kids_ok || listener->connections_live() != 0u) {
    // Children closed everything on exit; the table must drain.
    Deadline settle = Deadline::after(seconds(10));
    while (listener->connections_live() != 0u && !settle.expired())
      sleep_for(ms(10));
  }
  std::printf("children %s, table drained to %llu\n",
              kids_ok ? "clean" : "FAILED",
              (unsigned long long)listener->connections_live());
  return kids_ok && listener->connections_live() == 0u ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 6 && std::strcmp(argv[1], "--udp-client") == 0) {
    return run_udp_client(argv[2], std::atoi(argv[3]), std::atoi(argv[4]),
                          std::atoi(argv[5]));
  }
  if (argc >= 2 && std::strcmp(argv[1], "--udp") == 0) {
    return run_udp_parent("/proc/self/exe");
  }
  return run_mem_soak();
}
