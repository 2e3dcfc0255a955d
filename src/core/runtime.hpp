// The Bertha runtime (paper §4.1).
//
// A Runtime owns the process-local chunnel Registry, a handle to the
// discovery service, the operator policy, and the transport factory.
// Applications create Endpoints from it:
//
//   auto rt = Runtime::create({...}).value();
//   rt->register_chunnel(std::make_shared<ReliableChunnel>());   // fallback
//   auto ep = rt->endpoint("my-kv-srv",
//                          wrap(ChunnelSpec("shard", args),
//                               ChunnelSpec("reliable"))).value();
//   auto listener = ep.listen(Addr::udp("127.0.0.1", 4242)).value();
//
// which is the C++ rendering of Listing 4/5's
//   bertha::new("my-kv-srv", wrap!(shard(...) |> reliable())).listen(..)
#pragma once

#include <memory>
#include <string>

#include "core/dag.hpp"
#include "core/discovery.hpp"
#include "core/optimizer.hpp"
#include "core/policy.hpp"
#include "core/renegotiation.hpp"
#include "io/reactor.hpp"
#include "net/transport.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace bertha {

class Endpoint;

// Datapath I/O runtime knobs (src/io/). Listeners demux through one
// shared epoll reactor (io/reactor.hpp) instead of one blocking thread
// per transport. Per-connection keepalive beats, dead-peer deadlines and
// discovery lease heartbeats arm entries on the reactor's timer wheel
// (io/timer_wheel.hpp), so 100k idle connections cost one tick thread,
// not 100k parked threads.
struct IoOptions {
  int reactor_workers = 2;
  size_t rx_batch = 32;  // datagrams per recv_batch / handler call
  Duration wheel_tick = ms(10);
  size_t wheel_slots = 512;
};

// Control-plane recovery knobs (src/control/ replicas and the
// ordered_mcast sequencer). Tests and latency-sensitive deployments
// tighten the timeouts; the defaults favour stability over detection
// speed.
struct ControlTuning {
  // Sequenced-traffic silence before a replica starts a view-change
  // round against the sequencer. Zero disables failure detection
  // (single-sequencer deployments). Replicated sweeps double as
  // sequencer keepalives, so with sweeps on, silence means failure.
  Duration view_silence_timeout = ms(250);
  // Grace a view-change initiator waits collecting acks past the
  // majority before activating the new sequencer — lets stragglers
  // raise the agreed resume seq.
  Duration view_ack_timeout = ms(50);
  // Per-peer wait for a catch-up snapshot response before trying the
  // next peer.
  Duration catchup_timeout = ms(250);
  // Sequencer resend-log bound: stamped packets retained for gap
  // fetches. Fetches past this horizon come back as misses and trigger
  // a peer catch-up.
  size_t sequencer_resend_log = 4096;
  // Push-silence watchdog poll period for discovery clients; zero
  // derives watch_failover_timeout / 2 (see RemoteDiscovery::Options).
  Duration watchdog_interval = Duration::zero();
};

struct RuntimeConfig {
  // Identity used for scope decisions (host-local fast paths) and, by
  // convention, as this process's SimNet node name. Defaults to the OS
  // hostname.
  std::string host_id;
  // Unique per process; defaults to pid + random.
  std::string process_id;

  // Required: how this runtime binds datagram endpoints.
  std::shared_ptr<TransportFactory> transports;

  // Discovery service handle; defaults to a fresh in-process
  // DiscoveryState (i.e. no external offloads visible).
  DiscoveryPtr discovery;

  // Alternative to `discovery`: the replica set of a remote discovery
  // service (e.g. one partition of the src/control/ cluster). When
  // `discovery` is null and this is non-empty, create() binds a client
  // transport of the first server's family and builds a failover
  // RemoteDiscovery over the whole list with `discovery_rpc` (stats and
  // tracer are threaded in automatically). For a *sharded* cluster,
  // build a ClusterDiscovery (src/control/cluster.hpp) and pass it as
  // `discovery` instead.
  std::vector<Addr> discovery_servers;
  RemoteDiscovery::Options discovery_rpc;

  // Operator implementation-selection policy; defaults to DefaultPolicy.
  PolicyPtr policy;

  // Optional §6 DAG optimizer. When set, listeners rewrite tentatively
  // negotiated pipelines (reorder / merge) before binding; operators add
  // merge rules matching the combined offloads their hardware exposes.
  std::shared_ptr<DagOptimizer> optimizer;

  // Deployment attestation secret (§6 "Deployment Concerns"). When
  // non-empty, servers stamp every Accept with a keyed digest of the
  // negotiated chain and clients verify it, refusing connections whose
  // chain was not attested with the same secret.
  std::string attestation_secret;

  // Connection-establishment handshake parameters.
  Duration handshake_timeout = ms(1000);
  int handshake_retries = 4;

  // Live-renegotiation timing (core/renegotiation.hpp). Tests tighten
  // these; production deployments mostly care about drain_timeout.
  TransitionTuning transition_tuning;

  // Fault-tolerance counters (RPC retries, lease expiries, degraded-mode
  // entries/exits). Defaults to a fresh FaultStats; share one instance
  // across runtimes to aggregate.
  FaultStatsPtr fault_stats;

  // Tracing (src/trace/). Defaults to a disabled tracer (inert spans, no
  // allocation); pass an enabled Tracer to capture cross-layer spans.
  // create() threads it into the transition controller and, where the
  // discovery handle is runtime-owned, the discovery client.
  TracerPtr tracer;

  // Unified metrics (src/trace/metrics.hpp). Defaults to a fresh
  // registry; create() attaches providers exposing fault_stats and the
  // transition controller's stats so one snapshot covers the runtime.
  // With tracing on, every connection stack records each hop's latency
  // into the registry's hop.send.<impl> / hop.recv.<impl> histograms,
  // which runtimes sharing one registry share too.
  MetricsPtr metrics;

  // Batched I/O runtime (src/io/).
  IoOptions io;

  // Control-plane recovery tuning. create() folds watchdog_interval
  // into discovery_rpc when a bootstrap RemoteDiscovery is built from
  // discovery_servers; DiscoveryCluster (src/control/) consumes the
  // rest.
  ControlTuning control;
};

class Runtime : public std::enable_shared_from_this<Runtime> {
 public:
  // Validates the config and fills defaults.
  static Result<std::shared_ptr<Runtime>> create(RuntimeConfig cfg);

  // The analogue of bertha::register_chunnel (Listing 5 line 2):
  // makes an implementation instantiable by this process and therefore
  // offered during negotiation.
  Result<void> register_chunnel(ChunnelImplPtr impl);

  // Creates a connection endpoint with a Chunnel DAG (bertha::new).
  // The DAG must validate and be a chain (branch/merge chunnel types
  // embed sub-graphs in their args).
  Result<Endpoint> endpoint(std::string name, ChunnelDag dag);

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  DiscoveryClient& discovery() { return *cfg_.discovery; }
  const RuntimeConfig& config() const { return cfg_; }
  TransportFactory& transports() { return *cfg_.transports; }

  // Live-renegotiation controller (paper follow-on, see
  // core/renegotiation.hpp). Listeners attach themselves on listen();
  // its watch/sweep thread starts lazily with the first listener.
  TransitionController& transitions() { return *transitions_; }

  // Fault-tolerance counters (util/stats.hpp). Never null after create().
  FaultStats& fault_stats() { return *cfg_.fault_stats; }
  const FaultStatsPtr& fault_stats_ptr() const { return cfg_.fault_stats; }

  // Tracing + metrics. Never null after create() (the tracer defaults to
  // disabled, the registry to empty-with-providers).
  const TracerPtr& tracer() const { return cfg_.tracer; }
  const MetricsPtr& metrics() const { return cfg_.metrics; }

  // Shared rx reactor (src/io/), created lazily by the first listener.
  // Null when creation failed (listen() then reports the error).
  ReactorPtr reactor();

  // Shared timer wheel for connection liveness deadlines: the reactor's
  // wheel, so one tick thread serves the whole datapath. Null without a
  // reactor; callers then use TimerWheel::process_default().
  TimerWheelPtr timer_wheel();

  ~Runtime();

 private:
  explicit Runtime(RuntimeConfig cfg)
      : cfg_(std::move(cfg)),
        transitions_(std::make_unique<TransitionController>(
            cfg_.transition_tuning, cfg_.tracer)) {}

  RuntimeConfig cfg_;
  Registry registry_;
  std::unique_ptr<TransitionController> transitions_;

  std::mutex reactor_mu_;
  ReactorPtr reactor_;  // guarded by reactor_mu_
};

// Returns a process-unique random identifier (hex).
std::string make_unique_id();

}  // namespace bertha
