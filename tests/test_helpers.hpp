// Shared fixtures for integration-style tests: runtimes wired to an
// in-memory network (fast, deterministic) or to real OS sockets.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "chunnels/builtin.hpp"
#include "core/endpoint.hpp"
#include "net/factory.hpp"

namespace bertha::testing_support {

struct TestWorld {
  std::shared_ptr<MemNetwork> mem;
  std::shared_ptr<SimNet> sim;
  std::shared_ptr<DiscoveryState> discovery;

  static TestWorld make(uint64_t seed = 1) {
    TestWorld w;
    MemNetwork::Config mcfg;
    mcfg.seed = seed;
    w.mem = MemNetwork::create(mcfg);
    SimNet::Config scfg;
    scfg.seed = seed;
    scfg.default_latency = us(200);
    w.sim = SimNet::create(scfg);
    w.discovery = std::make_shared<DiscoveryState>();
    return w;
  }

  // A runtime on host `host_id`, sharing this world's networks and
  // discovery. Registers the builtin chunnels unless told otherwise.
  std::shared_ptr<Runtime> runtime(const std::string& host_id,
                                   bool builtins = true,
                                   PolicyPtr policy = nullptr) {
    RuntimeConfig cfg;
    cfg.host_id = host_id;
    cfg.transports =
        std::make_shared<DefaultTransportFactory>(mem, sim, host_id);
    cfg.discovery = discovery;
    cfg.policy = std::move(policy);
    // Lossy-network tests drive establishment through real packet loss;
    // generous retries keep the handshake's failure probability
    // negligible (p_loss_per_attempt^11) without masking real bugs.
    cfg.handshake_timeout = ms(300);
    cfg.handshake_retries = 10;
    auto rt = Runtime::create(std::move(cfg));
    EXPECT_TRUE(rt.ok()) << rt.error().to_string();
    auto runtime = rt.value();
    if (builtins) {
      auto reg = register_builtin_chunnels(*runtime);
      EXPECT_TRUE(reg.ok()) << reg.error().to_string();
    }
    return runtime;
  }
};

// Threads in this process, from /proc/self/stat field 20 (num_threads).
inline int process_threads() {
  FILE* f = std::fopen("/proc/self/stat", "r");
  if (!f) return -1;
  char buf[1024];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Field 2 (comm) may contain spaces; parse from the closing paren.
  char* p = std::strrchr(buf, ')');
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

}  // namespace bertha::testing_support
