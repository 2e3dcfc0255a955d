// Endpoints, listeners, and connection establishment (paper §3.1, §4).
//
// Endpoint is the Bertha socket equivalent: it pairs a name with a
// Chunnel DAG. A server endpoint listen()s and accept()s negotiated
// connections; a client endpoint connect()s to one server or (for
// chunnels like ordered multicast) to a list of endpoints.
#pragma once

#include <memory>
#include <vector>

#include "core/connection.hpp"
#include "core/negotiation.hpp"
#include "core/runtime.hpp"

namespace bertha {

class Listener;

class Endpoint {
 public:
  Endpoint(std::shared_ptr<Runtime> rt, std::string name,
           std::vector<ChunnelSpec> chain)
      : rt_(std::move(rt)), name_(std::move(name)), chain_(std::move(chain)) {}

  const std::string& name() const { return name_; }
  const std::vector<ChunnelSpec>& chain() const { return chain_; }

  // Server side: bind `addr`, run chunnel on_listen hooks, start
  // demultiplexing. The listener owns the socket; destroy it to stop.
  Result<std::unique_ptr<Listener>> listen(const Addr& addr);

  // Client side: establish a negotiated connection (one Hello/Accept
  // round trip; the server side consults discovery during it).
  Result<ConnPtr> connect(const Addr& server,
                          Deadline deadline = Deadline::never());

  // Multi-endpoint connect (Listing 2: ordered multicast passes the
  // consensus group's addresses). Negotiates with every endpoint over
  // one local transport; send() fans out, recv() returns from any.
  Result<ConnPtr> connect(const std::vector<Addr>& servers,
                          Deadline deadline = Deadline::never());

 private:
  std::shared_ptr<Runtime> rt_;
  std::string name_;
  std::vector<ChunnelSpec> chain_;
};

// Accepts negotiated connections. Thread-safe.
class Listener {
 public:
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // The primary bound address.
  const Addr& addr() const;

  // Next fully-negotiated, chunnel-wrapped connection.
  Result<ConnPtr> accept(Deadline deadline = Deadline::never());

  // Stops demux, closes every connection, releases resources.
  void close();

  uint64_t connections_accepted() const;

  // Connections currently bound to degraded chains (negotiated while the
  // discovery service was unreachable, so only local software fallbacks
  // were considered). Drops back to 0 once renegotiation upgrades them.
  uint64_t degraded_connections() const;

  // Entries in the (lock-striped) server connection table. Bounded by
  // the number of live connections plus in-flight transition epochs;
  // returns to zero after every connection closes — the churn regression
  // tests assert exactly that.
  uint64_t connections_live() const;

  class Impl;  // public: constructed via make_shared in Endpoint::listen

 private:
  friend class Endpoint;
  explicit Listener(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

// Builds a chunnel stack around a base connection by instantiating each
// negotiated node from the registry (outermost = chain[0]). A node whose
// factory is absent locally becomes a passthrough — its work happens at
// the other end or in the network. Exposed for chunnel tests.
Result<ConnPtr> build_stack(Runtime& rt,
                            const std::vector<NegotiatedNode>& chain,
                            ConnPtr base, WrapContext base_ctx);

// Per-hop tracing wrappers. build_stack inserts them only when the
// runtime's tracer is enabled at build time, so a disabled tracer costs
// the data path nothing at all. The path wrapper (outermost) starts a
// sampled path.send / path.recv span and installs its context as the
// thread's ambient context; each hop wrapper then records a child span
// for its layer iff an ambient context is active. Exposed for the
// tracing micro-benchmarks. When a HopLatencyStats cell is supplied the
// hop wrapper additionally records every message's latency into the
// lock-free streaming histograms (trace/hop_stats.hpp).
ConnPtr wrap_hop_trace(ConnPtr inner, TracerPtr tracer, std::string hop_name,
                       HopLatencyStats::CellPtr cell = nullptr);
ConnPtr wrap_path_trace(ConnPtr inner, TracerPtr tracer);

}  // namespace bertha
