// MetricsRegistry: one snapshot call for every counter in the runtime.
//
// Two ways in:
//  - Owned instruments: counter()/gauge() hand out shared atomics and
//    histogram() a lock-free latency Histogram (util/stats.hpp) that the
//    caller records into directly. All show up in snapshot() under their
//    name.
//  - Providers: attach_provider() registers a closure that folds an
//    existing stats structure (FaultStats, TransitionStats, telemetry
//    cells) into the snapshot at snapshot() time. This is how legacy
//    ad-hoc counters migrate without churning their call sites — the
//    original accessors remain the source of truth and the registry is
//    a thin aggregation view over them.
//
// Thread-safety: instruments are atomics; lookup and snapshotting take
// the registry mutex, so hot paths look an instrument up once and keep
// it. Providers must be safe to call from any thread (they read atomics
// / take their own locks).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace bertha {

class MetricsRegistry {
 public:
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram::Summary> histograms;
  };

  // A provider folds externally-owned stats into the snapshot. It must
  // capture shared ownership of whatever it reads.
  using Provider = std::function<void(Snapshot&)>;

  using CounterPtr = std::shared_ptr<std::atomic<uint64_t>>;
  using GaugePtr = std::shared_ptr<std::atomic<int64_t>>;

  // Returns the named instrument, creating it on first use. Stable for
  // the registry's lifetime; bump a counter with fetch_add, record into
  // a histogram with record().
  CounterPtr counter(const std::string& name);
  GaugePtr gauge(const std::string& name);
  HistogramPtr histogram(const std::string& name);

  // `name` is only for diagnostics/replacement: re-attaching under the
  // same name replaces the previous provider.
  void attach_provider(const std::string& name, Provider p);

  Snapshot snapshot() const;

  // "name value" lines, sorted; histograms as name{<Summary::to_string>}.
  std::string to_string() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, CounterPtr> counters_;
  std::map<std::string, GaugePtr> gauges_;
  std::map<std::string, HistogramPtr> histograms_;
  std::map<std::string, Provider> providers_;
};

using MetricsPtr = std::shared_ptr<MetricsRegistry>;

class Tracer;

// Standard providers for the runtime's pre-existing counter structures.
// Each captures shared ownership; the original accessors remain the
// source of truth. (The transition-stats provider lives in
// core/renegotiation.{hpp,cpp} next to its types.)
void attach_fault_stats_provider(MetricsRegistry& m, FaultStatsPtr stats);
void attach_tracer_provider(MetricsRegistry& m, std::shared_ptr<Tracer> tracer);

// Null-safe counter bump for optional registries.
inline void metrics_add(const MetricsPtr& m, const std::string& name,
                        uint64_t delta = 1) {
  if (m) m->counter(name)->fetch_add(delta, std::memory_order_relaxed);
}

}  // namespace bertha
