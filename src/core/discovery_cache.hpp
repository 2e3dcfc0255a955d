// CachingDiscovery: degraded-mode decorator over any DiscoveryClient.
//
// The paper's premise is that host-software fallbacks always exist, so an
// unreachable discovery service must not fail connection establishment.
// This wrapper keeps the last-known catalogue per chunnel type; while the
// inner client reports transient failures (unavailable / timed_out /
// connection_failed) queries are served from that cache — or, with a cold
// cache, as an empty success so negotiation binds the locally registered
// software fallbacks. The wrapper marks itself degraded() (negotiation
// records this on the connection), probes the service in the background,
// and on recovery injects a synthetic impl_registered watch event so the
// transition controller re-runs full negotiation and upgrades degraded
// connections automatically.
//
// Degraded-mode writes: unleased register_impl mutations issued while the
// service is unreachable are queued (latest-wins per type+name), folded
// into the cached catalogue so degraded queries see them, and replayed on
// the degraded -> healthy edge — the unleased analogue of the lease
// heartbeat's lost-lease replay. Each replayed mutation emits a trace
// span (discovery.replay_write).
#pragma once

#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/discovery.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace bertha {

// The `name` on the synthetic recovery event delivered to unfiltered
// watchers when the service comes back.
inline constexpr const char* kDiscoveryRecoveredEvent =
    "(discovery-recovered)";

class CachingDiscovery final : public DiscoveryClient {
 public:
  struct Options {
    // Background probe period while degraded.
    Duration probe_period = ms(100);
    // Chunnel type the recovery probe queries (any type works; the probe
    // only cares whether the service answers).
    std::string probe_type = "probe";
    // Optional observability: degraded entry/exit + queued/replayed write
    // spans, and queued_writes/replayed_writes counters.
    TracerPtr tracer;
    MetricsPtr metrics;
  };

  CachingDiscovery(DiscoveryPtr inner, Options opts,
                   FaultStatsPtr stats = nullptr);
  explicit CachingDiscovery(DiscoveryPtr inner)
      : CachingDiscovery(std::move(inner), Options{}, nullptr) {}
  ~CachingDiscovery() override;

  Result<void> register_impl(const ImplInfo& info) override;
  Result<void> unregister_impl(const std::string& type,
                               const std::string& name) override;
  Result<std::vector<ImplInfo>> query(const std::string& type) override;
  // One batch to the inner client; its answer refreshes the per-type
  // cache, which serves every type while the service is unreachable.
  Result<ImplsByType> query_types(
      const std::vector<std::string>& types) override;
  Result<uint64_t> acquire(const std::vector<ResourceReq>& reqs) override;
  Result<void> release(uint64_t alloc_id) override;
  Result<void> set_pool(const std::string& pool, uint64_t capacity) override;
  // Returns a local watcher that receives the inner client's events (when
  // the inner watch is supported) plus the synthetic recovery event.
  // Unlike RemoteDiscovery, an empty filter is accepted: the inner watch
  // is then skipped and the watcher sees recovery events only.
  Result<WatcherPtr> watch(const std::string& type_filter) override;

  bool degraded() const override;
  DiscoveryClient& inner() { return *inner_; }

  // Writes queued for replay on recovery (degraded mode only).
  size_t pending_writes() const;

 private:
  struct PendingWrite {
    ImplInfo info;
  };
  static bool transient(const Error& e) {
    return e.code == Errc::unavailable || e.code == Errc::timed_out ||
           e.code == Errc::connection_failed;
  }
  // Updates the degraded state machine from an inner-call outcome;
  // delivers the recovery event on a degraded -> healthy edge. Call with
  // mu_ NOT held.
  void note(bool healthy);
  // The degraded answer for one type: its cached catalogue, or an empty
  // one when the cache is cold. mu_ held.
  std::vector<ImplInfo> cached_locked(const std::string& type);
  void probe_loop();
  void forward_loop(WatcherPtr inner_w, WatcherPtr local);
  // Folds a forwarded event batch into the cached catalogue so a
  // degraded -> recovered client is caught up by the stream's seq-resume
  // instead of re-priming every type with fresh queries.
  void apply_events(const std::vector<WatchEvent>& events);

  DiscoveryPtr inner_;
  Options opts_;
  FaultStatsPtr stats_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<ImplInfo>> catalogue_;
  std::vector<PendingWrite> pending_writes_;
  bool degraded_ = false;
  uint64_t seq_ = 0;
  std::vector<std::weak_ptr<DiscoveryWatcher>> watchers_;
  std::vector<std::pair<WatcherPtr, std::thread>> forwarders_;
  bool stopping_ = false;
  std::condition_variable probe_cv_;
  std::thread probe_thread_;
};

}  // namespace bertha
