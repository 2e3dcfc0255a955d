// Runtime statistics: the fault-tolerance counters, and the one latency
// histogram that benches, tracing and the metrics registry record into.
//
// The benchmark harnesses report the same statistics as the paper's
// figures: Fig 3 uses p5/p25/p50/p75/p95 box stats, Fig 5 uses p95.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/clock.hpp"

namespace bertha {

// Fault-tolerance counters shared across the discovery/negotiation fault
// path: RemoteDiscovery (retries, heartbeats), DiscoveryState/Server
// (leases, dedup) and CachingDiscovery (degraded mode). One instance per
// runtime, exposed via Runtime::fault_stats(); all fields are atomics so
// any thread may bump them.
struct FaultStats {
  std::atomic<uint64_t> rpc_retries{0};     // resends after an RPC timeout
  std::atomic<uint64_t> rpc_failures{0};    // RPCs that exhausted retries
  std::atomic<uint64_t> dedup_hits{0};      // replays served from the cache
  std::atomic<uint64_t> lease_grants{0};
  std::atomic<uint64_t> lease_renewals{0};
  std::atomic<uint64_t> lease_expiries{0};  // owners reaped by the sweeper
  std::atomic<uint64_t> heartbeats_sent{0};
  std::atomic<uint64_t> lease_recoveries{0};  // re-registers after lost lease
  std::atomic<uint64_t> degraded_entries{0};
  std::atomic<uint64_t> degraded_exits{0};
  std::atomic<uint64_t> catalogue_hits{0};  // degraded queries from cache
  // Server-push watch streams (RemoteDiscovery subscriptions).
  std::atomic<uint64_t> watch_batches{0};       // pushed batches applied
  std::atomic<uint64_t> watch_resubscribes{0};  // seq gaps -> resume sent
  std::atomic<uint64_t> watch_snapshots{0};     // snapshot batches applied
  // Multi-server failover (replicated discovery control plane).
  std::atomic<uint64_t> server_failovers{0};  // rotations to the next replica
  // Control-plane self-healing (src/control/replica).
  std::atomic<uint64_t> view_changes{0};  // sequencer views adopted
  std::atomic<uint64_t> catchups{0};      // peer snapshots installed
  std::atomic<uint64_t> gap_misses{0};    // fetches past the resend log
  // Online repartitioning (src/control/reshard).
  std::atomic<uint64_t> reshard_fences{0};    // ranges frozen at a source
  std::atomic<uint64_t> reshard_installs{0};  // payloads ingested at a dest
  std::atomic<uint64_t> reshard_cutovers{0};  // ranges flipped to forwarding
  std::atomic<uint64_t> reshard_forwards{0};  // stale requests forwarded
};

using FaultStatsPtr = std::shared_ptr<FaultStats>;

// Latency histogram: log-linear over non-negative integers (callers
// record nanoseconds by convention). Values below 32 get one bucket
// each; above that, every octave [2^k, 2^(k+1)) splits into 32 equal
// buckets, so values below 64 are exact. A percentile reports the midpoint of the bucket that holds
// the value at that rank, so it is within 1/64 (1.6%) of the exact
// value. 1,920 buckets cover all of uint64_t in a fixed 15 KiB; count,
// sum, min and max are exact.
//
// Lock-free: record() is two relaxed fetch_adds plus a load each for
// min and max (a CAS only on a new extreme), with no lock and no
// allocation, so any number of threads may record into one histogram
// while another summarizes or merges it.
class Histogram {
 public:
  static constexpr int kSubBits = 5;  // 32 buckets per octave
  static constexpr size_t kBuckets = size_t{64 - kSubBits + 1} << kSubBits;

  // Box stats (Fig 3's p5..p95) plus the tail every gate reads. Empty
  // histogram: all zero.
  struct Summary {
    uint64_t count = 0;
    double mean = 0;
    double min = 0;
    double p5 = 0;
    double p25 = 0;
    double p50 = 0;
    double p75 = 0;
    double p95 = 0;
    double p99 = 0;
    double p999 = 0;
    double max = 0;

    // "count=100 mean=1.20 p50=1.10 p99=2.00 p99.9=2.20 max=2.30"
    std::string to_string() const;
  };

  void record(uint64_t v);
  // Nanoseconds; a negative duration records 0.
  void record(Duration d) {
    record(d.count() > 0 ? static_cast<uint64_t>(d.count()) : uint64_t{0});
  }
  // Adds every value `other` holds, as if each had been recorded here.
  void merge(const Histogram& other);

  uint64_t count() const;
  // The value at rank max(1, ceil(q/100 * count)) in sorted order, to
  // within the bucket error and clamped to [min, max]. q in [0,100].
  double percentile(double q) const;
  // Every value divided by `unit`: summarize(1e3) reports a histogram of
  // nanoseconds in microseconds.
  Summary summarize(double unit = 1) const;

 private:
  // out[j] = the qs[j]-th percentile (qs ascending) of n recorded
  // values, from one pass over the buckets, clamped to [min, max].
  void quantiles(const double* qs, double* out, size_t k, uint64_t n) const;

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

using HistogramPtr = std::shared_ptr<Histogram>;

}  // namespace bertha
