// Datapath I/O batching: mmsg syscall batching vs scalar send/recv.
//
// A windowed echo harness: the client pushes a window of `batch`
// datagrams at an echo server and drains the echoes, repeatedly. In
// batched mode each window is one send_batch + a few recv_batch calls
// (sendmmsg/recvmmsg on UDP); in unbatched mode it is 2*batch scalar
// syscalls. On loopback the round trip is syscall-dominated, so the
// pps ratio isolates exactly what the io runtime buys.
//
// Variants are interleaved across repetitions and each variant is
// scored by its best (noise-free) repetition, the same convention as
// the tracing-overhead gate: shared machines jitter both variants up
// by more than the effect under test.
//
// BERTHA_IO_GATE=1 turns the run into a CI gate: exit nonzero unless
// batched UDP pps >= 1.5x unbatched at batch 32.
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/memchan.hpp"
#include "net/udp.hpp"

using namespace bertha;
using namespace bertha::bench;

namespace {

constexpr size_t kPayload = 64;

struct RunResult {
  double pps = 0;       // echoed datagrams per second, client side
  double p95_us = 0;    // per-window round-trip p95
  uint64_t lost = 0;    // windows abandoned on a recv timeout
};

// Echo server: batched mode drains/replies with recv_batch/send_batch,
// unbatched mode with scalar recv/send_to — the contrast under test is
// the whole path, both directions.
void echo_loop(Transport& t, bool batched, size_t batch,
               std::atomic<bool>& stop) {
  std::vector<Datagram> slots(batch);
  while (!stop.load(std::memory_order_relaxed)) {
    if (batched) {
      auto r = t.recv_batch(std::span<Datagram>(slots),
                            Deadline::after(ms(50)));
      if (!r.ok()) {
        if (r.error().code == Errc::timed_out) continue;
        return;
      }
      size_t n = r.value();
      for (size_t i = 0; i < n; i++) slots[i].dst = slots[i].src;
      (void)t.send_batch(std::span<const Datagram>(slots.data(), n));
    } else {
      auto r = t.recv(Deadline::after(ms(50)));
      if (!r.ok()) {
        if (r.error().code == Errc::timed_out) continue;
        return;
      }
      (void)t.send_to(r.value().src, r.value().payload);
    }
  }
}

RunResult run_client(Transport& t, const Addr& server, bool batched,
                     size_t batch, int windows) {
  Bytes payload(kPayload, 0x42);
  std::vector<Datagram> out(batch);
  for (Datagram& d : out) {
    d.dst = server;
    d.payload.assign(payload);
  }
  std::vector<Datagram> in(batch);

  Histogram rtt;
  uint64_t echoed = 0, lost = 0;
  Stopwatch wall;
  for (int w = 0; w < windows; w++) {
    Stopwatch round;
    size_t got = 0;
    if (batched) {
      if (!t.send_batch(std::span<const Datagram>(out)).ok()) break;
      while (got < batch) {
        auto r = t.recv_batch(
            std::span<Datagram>(in.data() + got, batch - got),
            Deadline::after(ms(250)));
        if (!r.ok()) break;  // dropped window tail: abandon the round
        got += r.value();
      }
    } else {
      bool sent_ok = true;
      for (size_t i = 0; i < batch && sent_ok; i++)
        sent_ok = t.send_to(server, payload).ok();
      if (!sent_ok) break;
      while (got < batch) {
        auto r = t.recv(Deadline::after(ms(250)));
        if (!r.ok()) break;
        got++;
      }
    }
    echoed += got;
    if (got == batch)
      rtt.record(round.elapsed());
    else
      lost++;
  }
  double secs = std::chrono::duration<double>(wall.elapsed()).count();
  RunResult res;
  res.pps = secs > 0 ? static_cast<double>(echoed) / secs : 0;
  res.p95_us = rtt.summarize(1e3).p95;
  res.lost = lost;
  return res;
}

struct Fixture {
  TransportPtr server;
  TransportPtr client;
  std::shared_ptr<MemNetwork> net;  // keeps mem endpoints alive
};

Fixture make_fixture(bool udp) {
  Fixture f;
  if (udp) {
    f.server = die_on_err(UdpTransport::bind(Addr::udp("127.0.0.1", 0)),
                          "udp bind server");
    f.client = die_on_err(UdpTransport::bind(Addr::udp("127.0.0.1", 0)),
                          "udp bind client");
  } else {
    f.net = MemNetwork::create();
    f.server = die_on_err(f.net->bind(Addr::mem("echo-srv", 1)),
                          "mem bind server");
    f.client = die_on_err(f.net->bind(Addr::mem("echo-cli", 1)),
                          "mem bind client");
  }
  return f;
}

RunResult measure(bool udp, bool batched, size_t batch, int windows) {
  Fixture f = make_fixture(udp);
  std::atomic<bool> stop{false};
  std::thread server(
      [&] { echo_loop(*f.server, batched, batch, stop); });
  RunResult res =
      run_client(*f.client, f.server->local_addr(), batched, batch, windows);
  stop.store(true);
  server.join();
  f.client->close();
  f.server->close();
  return res;
}

}  // namespace

int main() {
  print_header(
      "io batching — mmsg syscall batching vs scalar send/recv (echo pps)",
      "Bertha §4 datapath (HotNets '20), io reactor + Transport batch I/O");

  const int windows = scaled(600, 60);
  const int reps = scaled(5, 2);
  const size_t batches[] = {1, 8, 32};
  const bool gate = std::getenv("BERTHA_IO_GATE") != nullptr;

  std::printf("%-6s %6s %-10s %12s %10s %6s   (best of %d reps, %d windows, %zuB)\n",
              "net", "batch", "mode", "pps", "p95(us)", "lost", reps, windows,
              kPayload);

  double udp32_batched = 0, udp32_unbatched = 0;
  for (bool udp : {true, false}) {
    for (size_t batch : batches) {
      RunResult best[2];  // [0]=unbatched, [1]=batched
      for (int rep = 0; rep < reps; rep++) {
        // Interleave variants within each repetition so machine noise
        // lands on both equally.
        for (int v = 0; v < 2; v++) {
          RunResult r = measure(udp, v == 1, batch, windows);
          if (r.pps > best[v].pps) best[v] = r;
        }
      }
      for (int v = 0; v < 2; v++)
        std::printf("%-6s %6zu %-10s %12.0f %10.1f %6llu\n",
                    udp ? "udp" : "mem", batch,
                    v ? "batched" : "unbatched", best[v].pps, best[v].p95_us,
                    static_cast<unsigned long long>(best[v].lost));
      if (udp && batch == 32) {
        udp32_unbatched = best[0].pps;
        udp32_batched = best[1].pps;
      }
    }
    std::printf("\n");
  }

  double ratio = udp32_unbatched > 0 ? udp32_batched / udp32_unbatched : 0;
  std::printf("=> udp batch=32: batched/unbatched = %.2fx (sendmmsg/recvmmsg\n"
              "   collapse 64 syscalls per window into ~4); mem shows the\n"
              "   smaller bulk-dequeue win since there is no syscall to skip\n",
              ratio);
  if (gate && ratio < 1.5) {
    std::fprintf(stderr,
                 "io batching gate: %.2fx < 1.5x required at udp batch=32\n",
                 ratio);
    return 1;
  }
  return 0;
}
