// Shared helpers for the benchmark harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "chunnels/builtin.hpp"
#include "core/endpoint.hpp"
#include "net/factory.hpp"
#include "util/stats.hpp"

namespace bertha::bench {

// BERTHA_BENCH_QUICK=1 shrinks every harness for smoke runs.
inline bool quick_mode() { return std::getenv("BERTHA_BENCH_QUICK") != nullptr; }

inline int scaled(int full, int quick) { return quick_mode() ? quick : full; }

// A runtime over the real OS transports (udp + unix sockets).
inline std::shared_ptr<Runtime> real_runtime(
    const std::string& host_id, DiscoveryPtr discovery,
    bool builtins = true) {
  RuntimeConfig cfg;
  cfg.host_id = host_id;
  cfg.transports = std::make_shared<DefaultTransportFactory>();
  cfg.discovery = std::move(discovery);
  auto rt = Runtime::create(std::move(cfg)).value();
  if (builtins) {
    auto r = register_builtin_chunnels(*rt);
    if (!r.ok()) {
      std::fprintf(stderr, "register_builtin_chunnels: %s\n",
                   r.error().to_string().c_str());
      std::exit(1);
    }
  }
  return rt;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

// Box-stat row in the format Fig 3 plots (values in microseconds).
inline void print_box_row(const char* series, size_t payload,
                          const Histogram::Summary& s) {
  std::printf("%-22s %8zuB  p5=%8.1f p25=%8.1f p50=%8.1f p75=%8.1f p95=%8.1f  (n=%llu)\n",
              series, payload, s.p5, s.p25, s.p50, s.p75, s.p95,
              static_cast<unsigned long long>(s.count));
}

template <typename T>
T die_on_err(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, r.error().to_string().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

inline void die_on_err(Result<void> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, r.error().to_string().c_str());
    std::exit(1);
  }
}

}  // namespace bertha::bench
