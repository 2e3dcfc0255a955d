// Figure 5: sharded key-value store under YCSB load.
//
// "We measure the p95 latency over ... YCSB requests (workload A,
// read-heavy) with a uniform distribution of keys. We evaluate
// performance in four scenarios:" Client Push / Server Accelerated /
// Mixed / Server Fallback. Two load-generating clients, one server
// with three shards (threads), exactly as in §5.
//
// Which implementation each connection binds is decided purely by what
// each process registered plus the default policy — the scenarios below
// differ ONLY in registration, never in client/server code (the
// paper's point).
//
// Open-loop load: each client paces requests with a token bucket and a
// separate receiver thread matches responses by request id, so queueing
// delay shows up as p95/p99 inflation and losses once a steering stage
// saturates.
#include <mutex>
#include <thread>
#include <unordered_map>

#include "apps/kvserver.hpp"
#include "apps/ycsb.hpp"
#include "bench_util.hpp"
#include "util/rate_limiter.hpp"

using namespace bertha;
using namespace bertha::bench;

namespace {

struct ClientKind {
  bool client_push;  // registers the shard/client-push fallback
};

struct Scenario {
  const char* name;
  bool server_xdp;
  bool server_fallback;
  ClientKind clients[2];
};

struct LoadResult {
  uint64_t sent = 0;
  uint64_t received = 0;
  double send_secs = 0;  // wall time of the paced sending phase
  Histogram latency;
};

// One open-loop client: sender paced at `rate` req/s for `duration`,
// receiver matches ids.
void run_client(LoadResult& r, Connection& conn, double rate,
                Duration duration, uint64_t seed,
                KeyDistribution dist = KeyDistribution::uniform) {
  YcsbConfig wl;
  wl.workload = YcsbWorkload::a;
  wl.distribution = dist;
  wl.record_count = 1000;
  wl.value_size = 100;
  wl.seed = seed;
  YcsbGenerator gen(wl);

  std::mutex mu;
  std::unordered_map<uint64_t, TimePoint> in_flight;
  std::atomic<uint64_t> sent{0}, received{0};
  std::atomic<bool> done{false};

  std::thread receiver([&] {
    for (;;) {
      auto reply = conn.recv(Deadline::after(ms(100)));
      if (!reply.ok()) {
        if (done.load()) return;
        continue;
      }
      auto rsp = decode_kv_response(reply.value().payload);
      if (!rsp.ok()) continue;
      TimePoint t0;
      {
        std::lock_guard<std::mutex> lk(mu);
        auto it = in_flight.find(rsp.value().id);
        if (it == in_flight.end()) continue;
        t0 = it->second;
        in_flight.erase(it);
      }
      r.latency.record(now() - t0);
      received.fetch_add(1, std::memory_order_relaxed);
    }
  });

  TokenBucket bucket(rate, std::max(rate / 100.0, 1.0));
  Stopwatch wall;
  while (wall.elapsed() < duration) {
    bucket.acquire();
    KvRequest req = gen.next();
    Msg m;
    m.payload = encode_kv_request(req);
    {
      std::lock_guard<std::mutex> lk(mu);
      in_flight[req.id] = now();
    }
    if (!conn.send(std::move(m)).ok()) break;
    sent.fetch_add(1, std::memory_order_relaxed);
  }
  double send_secs = std::chrono::duration<double>(wall.elapsed()).count();
  sleep_for(ms(200));  // drain
  done.store(true);
  receiver.join();

  r.send_secs = send_secs;
  r.sent = sent.load();
  r.received = received.load();
}

// Latency over both clients' requests, in microseconds.
Histogram::Summary combined_us(const LoadResult (&results)[2]) {
  Histogram all;
  for (const auto& r : results) all.merge(r.latency);
  return all.summarize(1e3);
}

}  // namespace

int main() {
  print_header(
      "Fig 5 — sharded KV store: p95 latency vs offered load, 4 scenarios",
      "Bertha Fig. 5 (HotNets '20), shard chunnel / YCSB-A uniform");

  const Scenario scenarios[] = {
      {"client-push", true, true, {{true}, {true}}},
      {"server-xdp", true, true, {{false}, {false}}},
      {"mixed", true, true, {{true}, {false}}},
      {"server-fallback", false, true, {{false}, {false}}},
  };
  std::vector<double> total_rates;
  if (quick_mode())
    total_rates = {5000, 20000};
  else
    total_rates = {10000, 25000, 50000, 100000, 200000};
  const Duration duration = quick_mode() ? ms(400) : ms(1200);

  std::printf("%-16s %10s %10s %9s %9s %9s %7s\n", "scenario", "offered/s",
              "achieved", "p50(us)", "p95(us)", "p99(us)", "loss%");

  for (const Scenario& sc : scenarios) {
    for (double rate : total_rates) {
      auto discovery = std::make_shared<DiscoveryState>();
      auto srv_rt = real_runtime("kv-server-host", discovery, false);
      die_on_err(register_shard_chunnels(*srv_rt, false, sc.server_xdp,
                                         sc.server_fallback),
                 "server chunnels");

      auto backend = die_on_err(
          KvBackend::start(srv_rt->transports(), Addr::udp("127.0.0.1", 0),
                           "kv-server-host", 3),
          "backend");

      ChunnelArgs args;
      args.set("shards", format_addr_list(backend->shard_addrs()));
      args.set_u64("field_offset", kKvShardFieldOffset);
      args.set_u64("field_len", kKvShardFieldLen);
      auto listener = die_on_err(
          srv_rt->endpoint("my-kv-srv", wrap(ChunnelSpec("shard", args)))
              .value()
              .listen(Addr::udp("127.0.0.1", 0)),
          "listen");

      // Preload: place records directly into the owning shard's store.
      {
        ShardArgs sargs = ShardArgs::from(args).value();
        YcsbConfig wl;
        wl.record_count = 1000;
        YcsbGenerator gen(wl);
        for (uint64_t i = 0; i < wl.record_count; i++) {
          KvRequest put = gen.load_request(i);
          size_t shard = sargs.pick(encode_kv_request(put));
          backend->shard(shard).store().put(put.key, put.value);
        }
      }

      // Two clients, each at half the offered load.
      LoadResult results[2];
      std::thread client_threads[2];
      for (int c = 0; c < 2; c++) {
        client_threads[c] = std::thread([&, c] {
          auto cli_rt = real_runtime("client-" + std::to_string(c), discovery,
                                     false);
          die_on_err(register_shard_chunnels(*cli_rt,
                                             sc.clients[c].client_push,
                                             sc.server_xdp, sc.server_fallback),
                     "client chunnels");
          auto conn = die_on_err(
              cli_rt->endpoint("kv-client", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(10))),
              "connect");
          run_client(results[c], *conn, rate / 2.0, duration,
                     1000 + static_cast<uint64_t>(c));
          conn->close();
        });
      }
      for (auto& t : client_threads) t.join();

      uint64_t sent = 0, received = 0;
      for (const auto& r : results) {
        sent += r.sent;
        received += r.received;
      }
      Histogram::Summary lat = combined_us(results);
      double dur_s = std::max(results[0].send_secs, results[1].send_secs);
      double loss = sent ? 100.0 * static_cast<double>(sent - received) /
                               static_cast<double>(sent)
                         : 0.0;
      std::printf("%-16s %10.0f %10.0f %9.1f %9.1f %9.1f %6.2f%%\n", sc.name,
                  rate, static_cast<double>(received) / dur_s, lat.p50,
                  lat.p95, lat.p99, loss);

      backend->stop();
    }
    std::printf("\n");
  }
  std::printf(
      "=> expected shape: client-push sustains the highest load at flat p95;\n"
      "   server-xdp close behind until its steering thread saturates; mixed\n"
      "   in between; server-fallback inflates earliest (single in-app\n"
      "   dispatcher doing full parses)\n\n");

  // --- ablation: key-distribution skew (uniform vs zipfian) ---
  // The paper uses uniform keys; under zipfian skew hot keys concentrate
  // on single shards, so the same offered load produces shard imbalance
  // and earlier tail inflation even on the best (client-push) path.
  std::printf("key-distribution ablation (client-push, fixed offered load):\n");
  std::printf("%-10s %10s %9s %9s   per-shard requests\n", "keys",
              "achieved", "p50(us)", "p95(us)");
  const double ablation_rate = quick_mode() ? 10000 : 50000;
  for (KeyDistribution dist :
       {KeyDistribution::uniform, KeyDistribution::zipfian}) {
    auto discovery = std::make_shared<DiscoveryState>();
    auto srv_rt = real_runtime("kv-server-host", discovery, false);
    die_on_err(register_shard_chunnels(*srv_rt, false, true, true),
               "server chunnels");
    auto backend = die_on_err(
        KvBackend::start(srv_rt->transports(), Addr::udp("127.0.0.1", 0),
                         "kv-server-host", 3),
        "backend");
    ChunnelArgs args;
    args.set("shards", format_addr_list(backend->shard_addrs()));
    args.set_u64("field_offset", kKvShardFieldOffset);
    args.set_u64("field_len", kKvShardFieldLen);
    auto listener = die_on_err(
        srv_rt->endpoint("my-kv-srv", wrap(ChunnelSpec("shard", args)))
            .value()
            .listen(Addr::udp("127.0.0.1", 0)),
        "listen");

    LoadResult results[2];
    std::thread client_threads[2];
    for (int c = 0; c < 2; c++) {
      client_threads[c] = std::thread([&, c] {
        auto cli_rt =
            real_runtime("client-" + std::to_string(c), discovery, false);
        die_on_err(register_shard_chunnels(*cli_rt, true, true, true),
                   "client chunnels");
        auto conn = die_on_err(
            cli_rt->endpoint("kv-client", ChunnelDag::empty())
                .value()
                .connect(listener->addr(), Deadline::after(seconds(10))),
            "connect");
        run_client(results[c], *conn, ablation_rate / 2.0, duration,
                   2000 + static_cast<uint64_t>(c), dist);
        conn->close();
      });
    }
    for (auto& t : client_threads) t.join();
    Histogram::Summary lat = combined_us(results);
    double dur_s = std::max(results[0].send_secs, results[1].send_secs);
    uint64_t received = results[0].received + results[1].received;
    std::printf("%-10s %10.0f %9.1f %9.1f   ",
                dist == KeyDistribution::uniform ? "uniform" : "zipfian",
                static_cast<double>(received) / dur_s, lat.p50, lat.p95);
    for (size_t i = 0; i < backend->size(); i++)
      std::printf("s%zu=%llu ", i,
                  static_cast<unsigned long long>(
                      backend->shard(i).requests_served()));
    std::printf("\n");
    backend->stop();
  }
  std::printf("=> zipfian skew concentrates hot keys on single shards: the\n"
              "   same offered load shows shard imbalance and a fatter tail\n");
  return 0;
}
