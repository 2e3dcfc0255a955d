// bertha_bench: one workload per process, one JSON result on the last
// line of stdout.
//
//   bertha_bench --workload <rpc_small|rpc_bulk|connect_churn|kv_ycsb>
//                --seed <n> [--duration 20] [--trace <out.json>]
//   bertha_bench --selftest
//
// Untraced, a run reports the end-to-end metrics. It sets the workload up
// kRounds times, each time from scratch, and measures each set-up in
// kRoundSlices slices, each followed by a slice of a bare socketpair echo
// (IpcEcho). Every timing is the median, over the run's slice pairs, of
// the workload's number divided by the echo's, so that a machine that runs
// slower for a while slows both sides of a ratio alike. Set-up time is the
// median over the kRounds set-ups, and peak RSS is read once, after the
// first set-up and a fixed number of operations. With --trace it reports
// the per-layer metrics instead: it alternates traced and untraced slices
// of the workload, then runs the datapath ladder, the connect and
// discovery probes and the sharded-KV probes, and writes the spans it
// recorded as Chrome trace JSON. See README.md for what each metric means.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/uds.hpp"
#include "rigs.hpp"

using namespace bench;
using bertha::Errc;
using bertha::seconds;

namespace {

constexpr double kWarmS = 2.0;
// Fresh set-ups per untraced run. Where the scheduler puts a set-up's
// threads moved its slices by up to 20%, so the run takes the median over
// many set-ups, and the median of their set-up times is setup_s, which
// samples the host's speed across the whole run.
constexpr int kRounds = 10;
constexpr double kRoundWarmS = 0.25;
// Slices per round, each followed by an IPC echo slice. The machine's
// speed drifts over seconds, so the two sides of a ratio must be measured
// close together.
constexpr int kRoundSlices = 4;
constexpr double kSliceWarmS = 0.02;
constexpr double kIpcSliceS = 0.1;
// rpc_bulk sends one message at a time, like rpc_small. With more in
// flight its numbers depended on where the scheduler put the pipeline's
// threads (README.md, "Design choices").
constexpr size_t kBulkSize = 16384;
const std::vector<std::string> kFullChain = {"keepalive", "encrypt", "frame",
                                             "local_or_remote"};
const std::vector<std::string> kWorkloads = {"rpc_small", "rpc_bulk",
                                             "connect_churn", "kv_ycsb"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double duration = 20;
  std::string trace_path;  // empty: untraced run
  bool selftest = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: bertha_bench --workload <rpc_small|rpc_bulk|"
               "connect_churn|kv_ycsb> --seed <n> [--duration <s>] "
               "[--trace <out.json>]\n"
               "       bertha_bench --selftest\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; i++) {
    std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--duration") {
      a.duration = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.duration > 0) || a.duration > 600) return false;
    } else if (k == "--trace") {
      a.trace_path = v;
    } else {
      return false;
    }
  }
  if (a.selftest) return true;
  for (const auto& w : kWorkloads)
    if (w == a.workload) return true;
  return false;
}

// --- sessions: a set-up system plus the load it runs ----------------------

struct Inputs {
  explicit Inputs(uint64_t s) : seed(s), payloads(s), values(s) {}
  uint64_t seed;
  Payloads payloads;
  KvValues values;
};

class Session {
 public:
  virtual ~Session() = default;
  virtual int load_threads() const { return 1; }
  virtual void load(int i, const std::atomic<int>& phase, LoopStats& st) = 0;
};

// One echo client, one message at a time, over a Bertha connection or a
// raw transport pair.
class EchoSession final : public Session {
 public:
  EchoSession(const Inputs& in, const std::vector<std::string>& chain,
              size_t size)
      : rpc_(start_rpc_rig(chain)),
        client_(conn_echo_client(rpc_->conn, in.payloads, size)) {}
  EchoSession(const Inputs& in, const Addr& raw_like, size_t size)
      : raw_(RawEcho::start(raw_like)),
        client_(raw_echo_client(*raw_, in.payloads, size)) {}
  void load(int, const std::atomic<int>& phase, LoopStats& st) override {
    closed_loop(*client_, 1, next_op, phase, st);
  }
  Client& client() { return *client_; }
  uint64_t echoed() const {
    return rpc_ ? rpc_->server->echoed() : raw_->echoed();
  }
  uint64_t next_op = 1;

 private:
  std::unique_ptr<RpcRig> rpc_;  // one of rpc_ and raw_
  std::unique_ptr<RawEcho> raw_;
  std::unique_ptr<Client> client_;
};

// One 64 B message at a time over a bare socketpair.
class IpcSession final : public Session {
 public:
  explicit IpcSession(const Inputs& in)
      : rig_(std::make_unique<IpcEcho>()),
        client_(ipc_echo_client(*rig_, in.payloads, 64)) {}
  void load(int, const std::atomic<int>& phase, LoopStats& st) override {
    closed_loop(*client_, 1, next_op_, phase, st);
  }

 private:
  std::unique_ptr<IpcEcho> rig_;
  std::unique_ptr<Client> client_;
  uint64_t next_op_ = 1;
};

class ChurnSession final : public Session {
 public:
  explicit ChurnSession(const Inputs& in)
      : in_(in), rig_(start_churn_rig(kFullChain)) {}
  void load(int, const std::atomic<int>& phase, LoopStats& st) override {
    churn_loop(*rig_, in_.payloads, 64, next_op_, phase, st);
  }
  ChurnRig& rig() { return *rig_; }

 private:
  const Inputs& in_;
  std::unique_ptr<ChurnRig> rig_;
  uint64_t next_op_ = 1;
};

class KvSession final : public Session {
 public:
  static constexpr int kConns = 2;
  static constexpr int kDepth = 16;

  KvSession(const Inputs& in, ShardImpl impl)
      : rig_(start_kv_rig(impl, kConns)) {
    auto r = kv_preload(*rig_, in.values);
    if (!r.ok()) {
      std::fprintf(stderr, "bertha_bench: kv preload: %s\n",
                   r.error().to_string().c_str());
      std::_Exit(1);
    }
    for (int i = 0; i < kConns; i++) {
      clients_.push_back(kv_client(rig_->conns[static_cast<size_t>(i)],
                                   in.values, in.seed * 16 + static_cast<uint64_t>(i),
                                   kDepth));
      // Op ids of the two connections never meet.
      next_op_[i] = (static_cast<uint64_t>(i) + 1) << 40;
    }
  }
  int load_threads() const override { return kConns; }
  void load(int i, const std::atomic<int>& phase, LoopStats& st) override {
    closed_loop(*clients_[static_cast<size_t>(i)], kDepth, next_op_[i], phase,
                st);
  }
  KvRig& rig() { return *rig_; }

 private:
  std::unique_ptr<KvRig> rig_;
  std::vector<std::unique_ptr<Client>> clients_;
  uint64_t next_op_[kConns] = {};
};

std::unique_ptr<Session> start_session(const std::string& workload,
                                       const Inputs& in) {
  if (workload == "rpc_small")
    return std::make_unique<EchoSession>(in, kFullChain, 64);
  if (workload == "rpc_bulk")
    return std::make_unique<EchoSession>(in, kFullChain, kBulkSize);
  if (workload == "connect_churn") return std::make_unique<ChurnSession>(in);
  return std::make_unique<KvSession>(in, ShardImpl::xdp);
}

// Operations the first round runs before it measures, about 2 s of each
// workload on a 4-vCPU x86 VM. Peak RSS is read right after them, so that
// it measures a fixed amount of work: connect_churn's heap grows with every
// connection (README.md, "Observations"), and after a fixed time it would
// grow with the speed of the connect path.
uint64_t warm_ops(const std::string& workload) {
  if (workload == "rpc_small") return 70000;
  if (workload == "rpc_bulk") return 30000;
  if (workload == "connect_churn") return 8000;
  return 400000;
}

// --- phases ----------------------------------------------------------------

// What a session's load threads saw over one or more measured windows.
struct PhaseResult {
  std::vector<std::unique_ptr<LoopStats>> stats;  // one per load thread
  ProcCounters proc;  // summed over the measured windows
  int threads_peak = 0;

  uint64_t done() const {
    uint64_t n = 0;
    for (const auto& s : stats) n += s->done;
    return n;
  }
  // Forgets the windows so far, keeping the sample buffers.
  void clear() {
    for (auto& s : stats) s->clear();
    proc = {};
    threads_peak = 0;
  }
  double rate() const { return static_cast<double>(done()) / proc.wall_s(); }
  double per_op(double total) const {
    return total / static_cast<double>(std::max<uint64_t>(done(), 1));
  }
  std::vector<float> lat() const {
    std::vector<const Reservoir*> rs;
    for (const auto& s : stats) rs.push_back(&s->lat_ns);
    return merge_samples(rs);
  }
  std::vector<float> sends() const {
    std::vector<const Reservoir*> rs;
    for (const auto& s : stats) rs.push_back(&s->send_ns);
    return merge_samples(rs);
  }
};

// The run's attempted and failed operations and its first wrong output,
// over every phase and probe.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string wrong;
};
Tally g_tally;

void sleep_s(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// How long a window warms up before it measures: `s` seconds or, made by
// Warm::answered, until the load threads have answered a number of
// operations between them.
struct Warm {
  // Implicit, so that a number of seconds can stand for a Warm.
  Warm(double sec) : s(sec) {}
  static Warm answered(uint64_t n) {
    Warm w(0);
    w.ops = n;
    return w;
  }
  double s;
  uint64_t ops = 0;
};

// A warm-up by count gives up after this long: a load thread that saw a
// wrong output or a broken connection has stopped answering.
constexpr double kWarmLimitS = 60;

// Runs the session's load threads through the warm-up, then `measure_s`
// measured seconds, adding what they saw to `r`; calling it again with the
// same `r` adds another window. `at_start`/`at_end` run at the edges of
// the measured window, for counters the loops do not keep.
void run_window(Session& s, Warm warm, double measure_s, PhaseResult& r,
                const std::function<void()>& at_start = {},
                const std::function<void()>& at_end = {}) {
  while (r.stats.size() < static_cast<size_t>(s.load_threads()))
    r.stats.push_back(std::make_unique<LoopStats>(0x5eed + r.stats.size()));
  uint64_t attempted = 0, failed = 0;
  for (const auto& st : r.stats) {
    attempted += st->attempted;
    failed += st->failed;
  }
  auto answered = [&] {
    uint64_t n = 0;
    for (const auto& st : r.stats) n += st->answered.load(std::memory_order_relaxed);
    return n;
  };
  const uint64_t warm_until = answered() + warm.ops;
  std::atomic<int> phase{kWarm};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < r.stats.size(); i++)
    threads.emplace_back([&, i] {
      s.load(static_cast<int>(i), phase, *r.stats[i]);
    });
  if (warm.ops > 0) {
    int64_t give_up = now_ns() + static_cast<int64_t>(kWarmLimitS * 1e9);
    while (answered() < warm_until && now_ns() < give_up) sleep_s(1e-3);
  } else {
    sleep_s(warm.s);
  }
  if (at_start) at_start();
  ProcCounters c0 = ProcCounters::read();
  phase.store(kMeasure, std::memory_order_release);
  int64_t end = c0.wall_ns + static_cast<int64_t>(measure_s * 1e9);
  for (int64_t t = now_ns(); t < end; t = now_ns()) {
    sleep_s(std::min(0.1, static_cast<double>(end - t) / 1e9));
    r.threads_peak = std::max(r.threads_peak, proc_threads());
  }
  r.proc += ProcCounters::read() - c0;
  if (at_end) at_end();
  phase.store(kStop, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (const auto& st : r.stats) {
    g_tally.attempted += st->attempted;
    g_tally.failed += st->failed;
    if (g_tally.wrong.empty()) g_tally.wrong = st->wrong;
  }
  g_tally.attempted -= attempted;
  g_tally.failed -= failed;
}

PhaseResult run_phase(Session& s, Warm warm, double measure_s) {
  PhaseResult r;
  run_window(s, warm, measure_s, r);
  return r;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double p_us(std::vector<float> v, double q) { return quantile(v, q) / 1e3; }
double p_ns(std::vector<float> v, double q) { return quantile(v, q); }

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "", v[i]);
    s += buf;
  }
  return s + "]";
}

// --- end-to-end run --------------------------------------------------------

// The median of x[i] / y[i].
double median_ratio(const std::vector<double>& x, const std::vector<double>& y) {
  std::vector<double> q;
  for (size_t i = 0; i < x.size() && i < y.size(); i++) q.push_back(x[i] / y[i]);
  return median(std::move(q));
}

void end_to_end(const Args& a, const Inputs& in, std::vector<Metric>& out,
                std::string& detail) {
  std::vector<double> setups;
  // One entry per slice: the workload's numbers, then the IPC echo's.
  std::vector<double> rate, p50, p90, p99, cpu, ipc_rate, ipc_p50, ipc_p90,
      ipc_cpu;
  double rss = 0;
  uint64_t samples = 0;
  const double slice_s = a.duration / (kRounds * kRoundSlices);
  for (int i = 0; i < kRounds; i++) {
    IpcSession ipc(in);
    int64_t t0 = now_ns();
    auto s = start_session(a.workload, in);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    PhaseResult r, ir;
    for (int k = 0; k < kRoundSlices; k++) {
      bool first = i == 0 && k == 0;
      Warm warm = first ? Warm::answered(warm_ops(a.workload))
                        : Warm(k == 0 ? kRoundWarmS : kSliceWarmS);
      r.clear();
      ir.clear();
      run_window(*s, warm, slice_s, r, [&] {
        if (first) rss = peak_rss_mb();
      });
      run_window(ipc, kSliceWarmS, kIpcSliceS, ir);
      auto lat = r.lat();
      auto ipc_lat = ir.lat();
      samples += r.done();
      rate.push_back(r.rate());
      p50.push_back(p_us(lat, 0.50));
      p90.push_back(p_us(lat, 0.90));
      p99.push_back(p_us(lat, 0.99));
      cpu.push_back(r.per_op(r.proc.cpu_us));
      ipc_rate.push_back(ir.rate());
      ipc_p50.push_back(p_us(ipc_lat, 0.50));
      ipc_p90.push_back(p_us(ipc_lat, 0.90));
      ipc_cpu.push_back(ir.per_op(ir.proc.cpu_us));
    }
  }
  out.push_back({"setup_s", median(setups), "s"});
  out.push_back({"ops_vs_ipc", median_ratio(rate, ipc_rate), "x"});
  out.push_back({"lat_p50_vs_ipc", median_ratio(p50, ipc_p50), "x"});
  // The tail is p90 against the echo's p90: p99 moved with how busy the
  // shared host was, by 15% from run to run and 2x between sets of runs
  // (README.md, "Design choices"), so it is reported but not bounded.
  out.push_back({"lat_p90_vs_ipc", median_ratio(p90, ipc_p90), "x"});
  out.push_back({"cpu_vs_ipc", median_ratio(cpu, ipc_cpu), "x"});
  out.push_back({"peak_rss_mb", rss, "MiB"});
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "\"lat_samples\":%llu,\"ops_per_s\":%.6g,\"lat_p50_us\":%.6g,"
                "\"lat_p90_us\":%.6g,\"lat_p99_us\":%.6g,"
                "\"lat_p99_vs_ipc\":%.6g,\"cpu_us_per_op\":%.6g,"
                "\"ipc_rtt_p50_us\":%.6g,",
                static_cast<unsigned long long>(samples), median(rate),
                median(p50), median(p90), median(p99),
                median_ratio(p99, ipc_p50), median(cpu), median(ipc_p50));
  detail += buf;
  detail += "\"setup_samples_s\":" + json_list(setups);
}

// --- traced run: per-layer metrics -----------------------------------------

// Phase lengths of a traced run, scaled by --duration so that a traced
// run measures about as long as an untraced one.
struct Timing {
  double rung_s;       // per ladder rung and per KV rung, over all slices
  double warm_s;       // before each slice
  double main_slice_s;
  int main_pairs;      // untraced + traced slices of the workload
  explicit Timing(double d)
      : rung_s(std::max(0.2, 0.1 * d)),
        warm_s(std::clamp(0.005 * d, 0.02, 0.1)),
        main_slice_s(std::min(1.0, d / 4)),
        main_pairs(std::max(1, static_cast<int>(std::lround(0.15 * d)))) {}
};

// Rungs and the two KV implementations are measured in interleaved
// slices, so a drift in how fast the machine runs hits all of them alike
// and cancels out of their differences.
constexpr int kSlices = 4;

struct Rung {
  const char* layer;
  const char* phase;  // span category
  std::vector<std::string> chain;  // empty: raw unix-socket pair
};

const std::vector<Rung> kLadder = {
    {"net", "rung.net", {}},
    {"core", "rung.core", {"local_or_remote"}},
    {"chunnels.frame", "rung.frame", {"frame", "local_or_remote"}},
    {"chunnels.encrypt", "rung.encrypt", {"encrypt", "frame", "local_or_remote"}},
    {"chunnels.keepalive", "rung.keepalive", kFullChain},
};

// Sends one message at a time. For each, waits until the server's echo
// counter shows the reply was sent and then past the library's own
// receive handoff, and times recv() with the reply already waiting. Also
// counts the allocations of each whole round trip. Returns the p50 of
// the recv time and the median allocation count (odd n: a whole number).
struct OneAtATime {
  double recv_busy_ns;
  double allocs;
};
OneAtATime one_at_a_time(EchoSession& s, int n) {
  Reservoir busy(static_cast<size_t>(n), 11);
  std::vector<double> allocs;
  Tracer& tr = tracer();
  for (int i = 0; i < n; i++) {
    uint64_t op = s.next_op++;
    uint64_t echoed = s.echoed();
    uint64_t a0 = allocs_total();
    g_tally.attempted++;
    if (!s.client().send(op).ok()) {
      g_tally.failed++;
      continue;
    }
    int64_t give_up = now_ns() + 1'000'000'000;
    while (s.echoed() == echoed && now_ns() < give_up) std::this_thread::yield();
    sleep_s(100e-6);
    int64_t t0 = now_ns();
    auto r = s.client().recv(Deadline::after(seconds(1)));
    int64_t t1 = now_ns();
    uint64_t a1 = allocs_total();
    if (!r.ok() || r.value() != op) {
      g_tally.failed++;
      if (!r.ok() && r.error().code == Errc::protocol_error)
        g_tally.wrong = r.error().message;
      continue;
    }
    busy.add(static_cast<double>(t1 - t0));
    allocs.push_back(static_cast<double>(a1 - a0));
    if (tr.sampled(op)) tr.record("recv_waiting", t0, t1, op, tr.new_id());
  }
  std::vector<float> v(busy.data(), busy.data() + busy.size());
  return {quantile(v, 0.5), median(std::move(allocs))};
}

// Each rung runs the same request stream through one more layer; a
// layer's metrics are its rung minus the rung below (`net` is absolute).
void ladder(const std::string& workload, const Inputs& in, const Timing& tm,
            std::vector<Metric>& out) {
  const size_t size = workload == "rpc_bulk" ? kBulkSize : 64;
  std::vector<std::unique_ptr<EchoSession>> sessions;
  for (const Rung& rung : kLadder) {
    if (rung.chain.empty())
      sessions.push_back(std::make_unique<EchoSession>(in, Addr::uds(""), size));
    else
      sessions.push_back(std::make_unique<EchoSession>(in, rung.chain, size));
  }
  std::vector<PhaseResult> results(kLadder.size());
  for (int slice = 0; slice < kSlices; slice++) {
    for (size_t i = 0; i < kLadder.size(); i++) {
      tracer().set_phase(kLadder[i].phase);
      run_window(*sessions[i], tm.warm_s, tm.rung_s / kSlices, results[i]);
    }
  }
  static const char* kNames[6][2] = {
      {"rtt_p50_us", "us"},        {"send_busy_ns", "ns"},
      {"recv_busy_ns", "ns"},      {"cpu_us_per_msg", "us"},
      {"allocs_per_msg", "count"}, {"vcsw_per_msg", "count"}};
  double prev[6] = {0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < kLadder.size(); i++) {
    tracer().set_phase(kLadder[i].phase);
    const PhaseResult& r = results[i];
    OneAtATime one = one_at_a_time(*sessions[i], 301);
    double cur[6] = {
        p_us(r.lat(), 0.5),          p_ns(r.sends(), 0.5),
        one.recv_busy_ns,            r.per_op(r.proc.cpu_us),
        one.allocs,                  r.per_op(r.proc.vcsw),
    };
    for (int k = 0; k < 6; k++) {
      out.push_back({std::string(kLadder[i].layer) + "." + kNames[k][0],
                     cur[k] - prev[k], kNames[k][1]});
      prev[k] = cur[k];
    }
  }
}

// Sequential connects, so that no connect straddles a count: discovery
// RPCs served per connect, and the median allocations of one connect.
struct ConnectCounts {
  double rpcs;
  double allocs;
};
ConnectCounts connect_counts(ChurnRig& rig, int n) {
  uint64_t served = rig.daemon->requests_served();
  std::vector<double> allocs;
  for (int i = 0; i < n; i++) {
    g_tally.attempted++;
    uint64_t a0 = allocs_total();
    auto c = rig.client->connect(rig.server->addr(), Deadline::after(seconds(2)));
    uint64_t a1 = allocs_total();
    if (!c.ok()) {
      g_tally.failed++;
      continue;
    }
    c.value()->close();
    allocs.push_back(static_cast<double>(a1 - a0));
  }
  double made = static_cast<double>(std::max<size_t>(allocs.size(), 1));
  return {static_cast<double>(rig.daemon->requests_served() - served) / made,
          median(std::move(allocs))};
}

double query_p50_us(ChurnRig& rig, int n) {
  auto sock = bertha::UdsTransport::bind(Addr::uds(""));
  if (!sock.ok()) return std::nan("");
  bertha::RemoteDiscovery client(std::move(sock).value(), rig.daemon->addr());
  Reservoir q(static_cast<size_t>(n), 13);
  Tracer& tr = tracer();
  for (int i = 0; i < n; i++) {
    const std::string& type = kFullChain[static_cast<size_t>(i) % kFullChain.size()];
    g_tally.attempted++;
    int64_t t0 = now_ns();
    auto r = client.query(type);
    int64_t t1 = now_ns();
    if (!r.ok()) {
      g_tally.failed++;
      continue;
    }
    q.add(static_cast<double>(t1 - t0));
    uint64_t op = static_cast<uint64_t>(i);
    if (tr.sampled(op)) tr.record("query", t0, t1, op, tr.new_id());
  }
  std::vector<float> v(q.data(), q.data() + q.size());
  return quantile(v, 0.5) / 1e3;
}

double raw_rtt_p50_us(const Inputs& in, const Addr& like, size_t size,
                      double secs) {
  EchoSession s(in, like, size);
  return p_us(run_phase(s, 0.05, secs).lat(), 0.5);
}

void churn_probes(const Inputs& in, const Timing& tm, std::vector<Metric>& out) {
  tracer().set_phase("churn");
  ChurnSession s(in);
  PhaseResult r = run_phase(s, tm.warm_s, tm.rung_s);
  double connect_p50 = p_us(r.lat(), 0.5);
  ConnectCounts counts = connect_counts(s.rig(), 101);
  tracer().set_phase("query");
  double query = query_p50_us(s.rig(), 1000);
  double uds_rtt = raw_rtt_p50_us(in, Addr::uds(""), 64, 0.3);
  int64_t give_up = now_ns() + 2'000'000'000;
  while (s.rig().server->listener().connections_live() != 0 && now_ns() < give_up)
    sleep_s(0.01);
  out.push_back({"core.connect.discovery_rpcs", counts.rpcs, "count"});
  out.push_back({"core.discovery.query_p50_us", query, "us"});
  out.push_back({"core.connect.self_p50_us",
                 connect_p50 - counts.rpcs * query - uds_rtt, "us"});
  out.push_back({"core.connect.allocs", counts.allocs, "count"});
  out.push_back({"core.connect.vcsw", r.per_op(r.proc.vcsw), "count"});
  out.push_back({"core.connect.cpu_us", r.per_op(r.proc.cpu_us), "us"});
  out.push_back({"core.listener.live_after",
                 static_cast<double>(s.rig().server->listener().connections_live()),
                 "count"});
}

// In-process probes of the KV application layers on the op sequence the
// first KV connection issues with this seed.
void kv_app_probes(const Inputs& in, std::vector<Metric>& out) {
  constexpr size_t kOps = 100000;
  bertha::KvStore store;
  for (size_t i = 0; i < kKvRecords; i++) {
    std::string key = bertha::YcsbGenerator::key_for(i);
    store.put(key, in.values.make(key, i + 1));
  }
  bertha::YcsbGenerator gen(ycsb_config(in.seed * 16));
  std::vector<bertha::KvRequest> reqs;
  reqs.reserve(kOps);
  for (size_t i = 0; i < kOps; i++) {
    bertha::KvRequest req = gen.next();
    if (req.op != bertha::KvOp::get) req.value = in.values.make(req.key, req.id);
    reqs.push_back(std::move(req));
  }
  size_t sink = 0, gets = 0, puts = 0;
  int64_t t0 = now_ns();
  for (const auto& req : reqs) {
    if (req.op != bertha::KvOp::get) continue;
    auto v = store.get(req.key);
    sink += v ? v->size() : 0;
    gets++;
  }
  int64_t t1 = now_ns();
  for (const auto& req : reqs) {
    if (req.op == bertha::KvOp::get) continue;
    store.put(req.key, req.value);
    puts++;
  }
  int64_t t2 = now_ns();
  for (const auto& req : reqs) {
    auto dreq = bertha::decode_kv_request(bertha::encode_kv_request(req));
    bertha::KvResponse rsp;
    rsp.id = req.id;
    if (dreq.ok() && dreq.value().op == bertha::KvOp::get)
      rsp.value = in.values.make(req.key, req.id);
    auto drsp = bertha::decode_kv_response(bertha::encode_kv_response(rsp));
    sink += drsp.ok() ? drsp.value().value.size() : 0;
  }
  int64_t t3 = now_ns();
  // Keeps the compiler from dropping the timed loops.
  if (sink == 1) std::fprintf(stderr, "bertha_bench: kv probes saw no data\n");
  auto per = [](int64_t ns, size_t n) {
    return static_cast<double>(ns) / static_cast<double>(std::max<size_t>(n, 1));
  };
  out.push_back({"apps.kvstore.get_ns", per(t1 - t0, gets), "ns"});
  out.push_back({"apps.kvstore.put_ns", per(t2 - t1, puts), "ns"});
  out.push_back({"apps.kvproto.codec_ns", per(t3 - t2, kOps), "ns"});
}

// shard/xdp against shard/client-push on the same seed: the dispatcher's
// cost is their difference.
void kv_probes(const Inputs& in, const Timing& tm, std::vector<Metric>& out) {
  const ShardImpl impls[2] = {ShardImpl::xdp, ShardImpl::client_push};
  const char* phases[2] = {"kv.xdp", "kv.client-push"};
  std::unique_ptr<KvSession> sessions[2];
  for (int k = 0; k < 2; k++) sessions[k] = std::make_unique<KvSession>(in, impls[k]);
  PhaseResult results[2];
  // The xdp rig's steering and per-shard counters, summed over its
  // measured windows: subtracted at each window's start, added at its end.
  KvRig& xdp = sessions[0]->rig();
  double steered = 0;
  std::vector<double> served(kKvShards);
  auto count = [&](double sign) {
    steered += sign * static_cast<double>(xdp.xdp->packets_steered());
    for (size_t i = 0; i < kKvShards; i++)
      served[i] += sign * static_cast<double>(xdp.backend->shard(i).requests_served());
  };
  for (int slice = 0; slice < kSlices; slice++) {
    for (int k = 0; k < 2; k++) {
      tracer().set_phase(phases[k]);
      std::function<void()> at_start, at_end;
      if (k == 0) {
        at_start = [&] { count(-1); };
        at_end = [&] { count(+1); };
      }
      run_window(*sessions[k], tm.warm_s, tm.rung_s / kSlices, results[k],
                 at_start, at_end);
    }
  }
  uint64_t attempted = 0;
  for (const auto& st : results[0].stats) attempted += st->attempted;
  double total = 0, max = 0;
  for (double d : served) {
    total += d;
    max = std::max(max, d);
  }
  tracer().set_phase("net.udp");
  out.push_back({"chunnels.shard.steered_per_req",
                 steered / static_cast<double>(std::max<uint64_t>(attempted, 1)),
                 "ratio"});
  out.push_back({"chunnels.shard.dispatch_cpu_us_per_op",
                 results[0].per_op(results[0].proc.cpu_us) -
                     results[1].per_op(results[1].proc.cpu_us),
                 "us"});
  out.push_back({"chunnels.shard.dispatch_p50_us",
                 p_us(results[0].lat(), 0.5) - p_us(results[1].lat(), 0.5), "us"});
  kv_app_probes(in, out);
  out.push_back({"apps.kv.shard_skew",
                 total > 0 ? max / (total / kKvShards) : 0.0, "ratio"});
  out.push_back({"net.udp.rtt_p50_us",
                 raw_rtt_p50_us(in, Addr::udp("127.0.0.1", 0), 128, 0.3), "us"});
}

void traced(const Args& a, const Inputs& in, std::vector<Metric>& out,
            std::string& detail) {
  Timing tm(a.duration);
  Tracer& tr = tracer();
  int64_t t0 = now_ns();
  auto s = start_session(a.workload, in);
  double setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  // The workload itself, in alternating untraced and traced slices.
  tr.set_phase("main");
  PhaseResult plain, traced_r;
  for (int i = 0; i < 2 * tm.main_pairs; i++) {
    bool on = i % 2 == 1;
    tr.set_on(on);
    run_window(*s, i == 0 ? kWarmS : tm.warm_s, tm.main_slice_s,
               on ? traced_r : plain);
  }
  s.reset();
  auto lat = plain.lat();
  double ops = static_cast<double>(std::max<uint64_t>(plain.done(), 1));
  out.push_back({"proc.cpu_cores", plain.proc.cpu_us / 1e6 / plain.proc.wall_s(), "cores"});
  out.push_back({"proc.threads_peak",
                 static_cast<double>(std::max(plain.threads_peak, traced_r.threads_peak)),
                 "count"});
  out.push_back({"proc.allocs_per_op", plain.proc.allocs / ops, "count"});
  out.push_back({"proc.vcsw_per_op", plain.proc.vcsw / ops, "count"});
  out.push_back({"proc.ivcsw_per_op", plain.proc.ivcsw / ops, "count"});
  out.push_back({"lat.p99_us", p_us(lat, 0.99), "us"});
  out.push_back({"lat.p999_us", p_us(lat, 0.999), "us"});
  out.push_back({"trace.overhead_pct",
                 (plain.rate() - traced_r.rate()) / plain.rate() * 100, "%"});

  // Layer probes, traced.
  tr.set_on(true);
  ladder(a.workload, in, tm, out);
  churn_probes(in, tm, out);
  kv_probes(in, tm, out);
  tr.set_on(false);

  bool wrote = tr.write_chrome_json(a.trace_path);
  if (!wrote)
    std::fprintf(stderr, "bertha_bench: cannot write %s\n", a.trace_path.c_str());
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"lat_samples\":%zu,\"setup_s\":%.6f,\"trace_file\":\"%s\","
                "\"trace_spans\":%zu",
                lat.size(), setup_s, wrote ? a.trace_path.c_str() : "",
                tr.spans());
  detail += buf;
}

// --- self-test -------------------------------------------------------------

// Feeds the output checkers one good and one corrupted input each; they
// must accept the first and reject the second.
int selftest() {
  Payloads p(7);
  Bytes echo = p.make(42, 64);
  bool echo_ok = p.check(echo, 64) == 42u;
  echo[37] ^= 0x01;
  bool echo_rejected = !p.check(echo, 64).has_value();

  KvValues values(7);
  std::string key = bertha::YcsbGenerator::key_for(5);
  std::string other = bertha::YcsbGenerator::key_for(6);
  bool kv_ok = KvValues::embeds_key(values.make(key, 1), key);
  bool kv_rejected = !KvValues::embeds_key(values.make(other, 1), key);

  std::printf("selftest: good echo %s, corrupted echo %s, good kv value %s, "
              "wrong kv value %s\n",
              echo_ok ? "accepted" : "REJECTED",
              echo_rejected ? "rejected" : "ACCEPTED",
              kv_ok ? "accepted" : "REJECTED",
              kv_rejected ? "rejected" : "ACCEPTED");
  return echo_ok && echo_rejected && kv_ok && kv_rejected ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage();
    return 2;
  }
  if (a.selftest) return selftest();

  Inputs in(a.seed);
  std::vector<Metric> metrics;
  std::string detail;
  if (a.trace_path.empty())
    end_to_end(a, in, metrics, detail);
  else
    traced(a, in, metrics, detail);

  bool correct = g_tally.wrong.empty() && g_tally.attempted > 0;
  if (!correct)
    std::fprintf(stderr, "bertha_bench: wrong output: %s\n", g_tally.wrong.c_str());
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "bertha_bench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }

  std::printf("# detail {\"workload\":\"%s\",\"seed\":%llu,\"duration_s\":%g,"
              "\"traced\":%s,\"fail_frac\":%.9g,%s}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.duration, a.trace_path.empty() ? "false" : "true",
              static_cast<double>(g_tally.failed) /
                  static_cast<double>(std::max<uint64_t>(g_tally.attempted, 1)),
              detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(g_tally.attempted),
              static_cast<unsigned long long>(g_tally.failed));
  for (size_t i = 0; i < metrics.size(); i++)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
