// Discovery (paper §4.2).
//
// Two related pieces:
//
//  * Registry — the per-process table of chunnel implementation
//    *factories* (code this process can instantiate). Applications
//    register fallbacks at launch (Listing 5 line 2); chunnel libraries
//    register their accelerated variants.
//
//  * The Bertha discovery service — tracks which implementations are
//    available *in the deployment* (including network offloads this
//    process didn't register) and owns resource pools (switch slots,
//    NIC engines). The runtime queries it during connection
//    establishment; this is one of the two extra round trips Fig 3
//    measures when it runs as a real server (DiscoveryServer /
//    RemoteDiscovery below).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/chunnel.hpp"
#include "core/discovery_wire.hpp"
#include "io/batch.hpp"
#include "net/transport.hpp"
#include "trace/trace.hpp"
#include "util/backoff.hpp"
#include "util/queue.hpp"
#include "util/rand.hpp"
#include "util/stats.hpp"

namespace bertha {

// --- Local factory registry ---

class Registry {
 public:
  // Registers (and init()s) an implementation factory. Fails with
  // already_exists on a duplicate (type, name).
  Result<void> register_impl(ChunnelImplPtr impl);
  Result<void> unregister_impl(const std::string& type, const std::string& name);

  // Factory lookup for stack construction; not_found if this process
  // cannot instantiate (type, name).
  Result<ChunnelImplPtr> lookup(const std::string& type,
                                const std::string& name) const;
  std::vector<ChunnelImplPtr> lookup_type(const std::string& type) const;
  std::vector<ImplInfo> infos_for(const std::string& type) const;
  std::vector<std::string> types() const;
  bool has(const std::string& type, const std::string& name) const;

 private:
  mutable std::mutex mu_;
  // type -> (name -> impl)
  std::unordered_map<std::string,
                     std::unordered_map<std::string, ChunnelImplPtr>>
      impls_;
};

// --- Watch API ---
//
// The live-renegotiation subsystem (core/renegotiation.hpp) needs to
// *notice* deployment changes — an offload registering, a registration
// being revoked, a resource slot coming free — without polling the whole
// table. Watchers are bounded queues of WatchEvents; a slow consumer
// drops events (and counts them) rather than blocking the service.

enum class WatchKind : uint8_t {
  impl_registered = 1,    // new impl, or metadata update of an existing one
  impl_unregistered = 2,  // registration revoked
  pool_freed = 3,         // capacity released into a resource pool
};

struct WatchEvent {
  WatchKind kind{};
  // Per-source total order. Events from one DiscoveryState carry strictly
  // increasing seq; a gap at the consumer means the watcher dropped.
  uint64_t seq = 0;
  std::string type;              // impl events: chunnel type
  std::string name;              // impl events: impl name
  std::optional<ImplInfo> info;  // impl_registered: the registered entry
  std::string pool;              // pool_freed: pool name
  uint64_t available = 0;        // pool_freed: free capacity afterwards
};

template <>
struct Serde<WatchEvent> {
  static void put(Writer& w, const WatchEvent& ev) {
    w.put_u8(static_cast<uint8_t>(ev.kind));
    w.put_varint(ev.seq);
    w.put_string(ev.type);
    w.put_string(ev.name);
    serde_put(w, ev.info);
    w.put_string(ev.pool);
    w.put_varint(ev.available);
  }
  static Result<WatchEvent> get(Reader& r) {
    WatchEvent ev;
    BERTHA_TRY_ASSIGN(kind, r.get_u8());
    if (kind < 1 || kind > 3)
      return err(Errc::protocol_error, "bad watch event kind");
    ev.kind = static_cast<WatchKind>(kind);
    BERTHA_TRY_ASSIGN(seq, r.get_varint());
    BERTHA_TRY_ASSIGN(type, r.get_string());
    BERTHA_TRY_ASSIGN(name, r.get_string());
    BERTHA_TRY_ASSIGN(info, serde_get<std::optional<ImplInfo>>(r));
    BERTHA_TRY_ASSIGN(pool, r.get_string());
    BERTHA_TRY_ASSIGN(avail, r.get_varint());
    ev.seq = seq;
    ev.type = std::move(type);
    ev.name = std::move(name);
    ev.info = std::move(info);
    ev.pool = std::move(pool);
    ev.available = avail;
    return ev;
  }
};

// --- Watch subscription wire messages (MsgKind::subscribe / unsubscribe /
// event_batch) ---
//
// A subscription is keyed by (client_id, sub_id); the sub_id doubles as
// the frame token on every pushed batch so the client's reader thread can
// demux pushes from RPC responses. Delivery is resumable: every batch
// names the seq range it covers, and a client that detects a gap (after a
// partition, a dropped datagram, or a server-side overflow) re-subscribes
// with `resume` and its last applied seq. The server replays from its
// bounded event log, or — if it has pruned past the requested seq — sends
// a full catalogue snapshot batch instead.

struct SubscribeMsg {
  uint64_t sub_id = 0;    // client-chosen; pushes echo it as the token
  std::string client_id;  // required: subscription namespace
  std::string filter;     // empty = all events (incl. pool_freed)
  uint64_t last_seq = 0;  // resume: last event seq the client applied
  bool resume = false;    // re-subscribe after a detected gap
};

struct UnsubscribeMsg {
  uint64_t sub_id = 0;
  std::string client_id;
};

struct EventBatchMsg {
  // Seq of the newest event this subscriber had been sent before this
  // batch (0 for a snapshot): prev_seq != the client's last applied seq
  // means batches were lost in between.
  uint64_t prev_seq = 0;
  // Newest catalogue seq this batch covers — including events the
  // subscriber's filter suppressed, so a resume never replays them.
  uint64_t last_seq = 0;
  // The events are a full catalogue snapshot (all carry seq == last_seq),
  // not an incremental diff; sent when resume is impossible.
  bool snapshot = false;
  std::vector<WatchEvent> events;  // empty: keepalive / pure seq advance
};

Bytes encode_subscribe(const SubscribeMsg& m);
Result<SubscribeMsg> decode_subscribe(BytesView b);
Bytes encode_unsubscribe(const UnsubscribeMsg& m);
Result<UnsubscribeMsg> decode_unsubscribe(BytesView b);
Bytes encode_event_batch(const EventBatchMsg& m);
Result<EventBatchMsg> decode_event_batch(BytesView b);

// Consumer handle for a watch subscription. Thread-safe; cancel() (or the
// source going away) wakes any blocked next() with Errc::cancelled once
// buffered events are drained.
//
// Events are queued in *batches*: a producer burst delivered through
// deliver_batch() comes back out of next_batch() whole, so a consumer
// like the transition controller can treat it as one unit of change.
// next()/try_next() still hand out single events (unbatched consumers
// see no difference; a partially consumed batch is buffered).
class DiscoveryWatcher {
 public:
  explicit DiscoveryWatcher(std::string type_filter, size_t capacity = 256);

  // Empty filter: all impl events plus pool events. Non-empty: impl
  // events for that chunnel type only.
  const std::string& filter() const { return filter_; }

  Result<WatchEvent> next(Deadline deadline = Deadline::never());
  std::optional<WatchEvent> try_next();
  // Batch variants: one delivered batch per call (never a partial one).
  Result<std::vector<WatchEvent>> next_batch(
      Deadline deadline = Deadline::never());
  std::optional<std::vector<WatchEvent>> try_next_batch();

  void cancel() { q_.close(); }
  bool cancelled() const { return q_.closed(); }
  // Events lost to the bounded buffer (consumer too slow).
  uint64_t dropped() const;

  // Producer side (DiscoveryState / RemoteDiscovery / DiscoveryServer).
  bool wants(const WatchEvent& ev) const { return matches(filter_, ev); }
  static bool matches(const std::string& filter, const WatchEvent& ev);
  void deliver(const WatchEvent& ev);
  void deliver_batch(std::vector<WatchEvent> events);

 private:
  std::string filter_;
  BlockingQueue<std::vector<WatchEvent>> q_;
  mutable std::mutex mu_;
  // Front of a batch partially consumed by next()/try_next().
  std::deque<WatchEvent> buffer_;
  uint64_t dropped_ = 0;
};

using WatcherPtr = std::shared_ptr<DiscoveryWatcher>;

// --- Discovery service interface ---

// Implementations per chunnel type: the answer of a batched query.
using ImplsByType = std::unordered_map<std::string, std::vector<ImplInfo>>;

// Uniform client view of the discovery service; LocalDiscovery calls a
// shared in-process state, RemoteDiscovery speaks the wire protocol.
class DiscoveryClient {
 public:
  virtual ~DiscoveryClient() = default;

  virtual Result<void> register_impl(const ImplInfo& info) = 0;
  virtual Result<void> unregister_impl(const std::string& type,
                                       const std::string& name) = 0;
  // All implementations known for a chunnel type.
  virtual Result<std::vector<ImplInfo>> query(const std::string& type) = 0;
  // All implementations of every type in `types`, keyed by type: how
  // negotiation looks up a whole chain, in one round trip for a remote
  // service. A type missing from the answer failed, as a failed query()
  // of it would; an error means the whole lookup failed. The default
  // asks query() once per type.
  virtual Result<ImplsByType> query_types(const std::vector<std::string>& types);

  // Multi-resource admission (§6): atomically reserve every requirement
  // or fail with resource_exhausted. Returns an allocation id.
  virtual Result<uint64_t> acquire(const std::vector<ResourceReq>& reqs) = 0;
  virtual Result<void> release(uint64_t alloc_id) = 0;

  // Operator action: create/update a capacity pool.
  virtual Result<void> set_pool(const std::string& pool, uint64_t capacity) = 0;

  // Subscribe to deployment changes. The default refuses; DiscoveryState
  // delivers events synchronously, RemoteDiscovery emulates with a
  // poll-and-diff thread (impl events only, non-empty filter required).
  virtual Result<WatcherPtr> watch(const std::string& type_filter) {
    (void)type_filter;
    return err(Errc::invalid_argument,
               "watch not supported by this discovery client");
  }

  // True while the client is serving stale/cached data because the
  // service is unreachable (see CachingDiscovery). Negotiation marks
  // connections established in this state so the transition controller
  // re-runs them once the service returns.
  virtual bool degraded() const { return false; }
};

// Full-state snapshot of a DiscoveryState — the unit of replica
// catch-up (src/control/): a joining or restarted replica installs a
// live peer's snapshot, then replays the sequenced suffix. Exported
// under the state lock, so the snapshot is a consistent cut and
// `watch_seq` names exactly the event history it reflects.
struct DiscoverySnapshot {
  struct PoolEntry {
    std::string name;
    uint64_t capacity = 0;
    uint64_t used = 0;
  };
  struct AllocEntry {
    uint64_t id = 0;
    std::vector<ResourceReq> reqs;
  };
  struct LeaseEntry {
    std::string owner;
    int64_t ttl_ns = 0;
    int64_t expires_ns = 0;  // steady-clock ns (origin-stamped time basis)
    std::vector<std::pair<std::string, std::string>> impls;
    std::vector<uint64_t> allocs;
  };
  std::vector<ImplInfo> impls;
  std::vector<PoolEntry> pools;
  std::vector<AllocEntry> allocs;
  uint64_t next_alloc = 1;  // includes the alloc-namespace bits
  std::vector<LeaseEntry> leases;
  uint64_t watch_seq = 0;
};

// In-process discovery state; also the backing store for DiscoveryServer.
// Note: `final` was dropped so tests can interpose on release() to verify
// the drain-before-release invariant; override points stay virtual via
// DiscoveryClient.
class DiscoveryState : public DiscoveryClient {
 public:
  ~DiscoveryState() override;

  Result<void> register_impl(const ImplInfo& info) override;
  Result<void> unregister_impl(const std::string& type,
                               const std::string& name) override;
  Result<std::vector<ImplInfo>> query(const std::string& type) override;
  Result<uint64_t> acquire(const std::vector<ResourceReq>& reqs) override;
  Result<void> release(uint64_t alloc_id) override;
  Result<void> set_pool(const std::string& pool, uint64_t capacity) override;
  Result<WatcherPtr> watch(const std::string& type_filter) override;

  // --- Leases ---
  //
  // State registered through the leased variants belongs to `owner` (a
  // client id) and survives only while heartbeat() keeps renewing it. A
  // background sweeper reclaims an owner's registrations and allocations
  // once its lease expires, emitting the usual impl_unregistered /
  // pool_freed watch events so live connections renegotiate off the
  // vanished offload.
  Result<void> register_impl_leased(const ImplInfo& info,
                                    const std::string& owner, Duration ttl);
  Result<uint64_t> acquire_leased(const std::vector<ResourceReq>& reqs,
                                  const std::string& owner, Duration ttl);
  // Renews every lease held by `owner`; not_found if it holds none (the
  // client should re-register — its state was already reclaimed).
  Result<void> heartbeat(const std::string& owner);
  // Reclaims expired leases now (the sweeper calls this on a timer).
  // Returns the number of owners reaped.
  size_t expire_leases();

  // Deterministic-time variants for replicated state machines
  // (src/control/): `at` is the op's origin-stamped time, so every
  // replica applying the same op computes the identical lease expiry.
  // The plain variants above delegate here with now().
  Result<void> register_impl_leased_at(const ImplInfo& info,
                                       const std::string& owner, Duration ttl,
                                       TimePoint at);
  Result<uint64_t> acquire_leased_at(const std::vector<ResourceReq>& reqs,
                                     const std::string& owner, Duration ttl,
                                     TimePoint at);
  Result<void> heartbeat_at(const std::string& owner, TimePoint at);
  size_t expire_leases_at(TimePoint when);

  // Replicated deployments only:
  //  - set_alloc_namespace stamps every allocation id with a partition
  //    index in the high bits (ids become (ns << kAllocNamespaceShift) |
  //    counter), so ids minted by different partitions never collide and
  //    a cluster client can route release() by id alone;
  //  - set_manual_sweep disables the background lease sweeper — expiry
  //    must arrive as explicit expire_leases_at() calls (replicated
  //    sweep ops), never from a local clock, or replicas diverge.
  // Both must be called before the state serves traffic.
  static constexpr uint64_t kAllocNamespaceShift = 48;
  void set_alloc_namespace(uint64_t ns);
  void set_manual_sweep(bool on);

  void set_fault_stats(FaultStatsPtr stats);
  FaultStatsPtr fault_stats() const;

  // Every registered impl plus the watch seq current at the instant the
  // snapshot was taken, atomically — the payload of a snapshot batch sent
  // to a subscriber that resumed from beyond the event-log horizon.
  std::pair<std::vector<ImplInfo>, uint64_t> catalogue_snapshot() const;

  // Full-state export/install for replica catch-up. install_snapshot()
  // replaces every table wholesale and emits NO watch events — the
  // matching event history arrives separately (the peer's event log) so
  // subscribers resume by seq instead of replaying a fake diff.
  DiscoverySnapshot export_snapshot() const;
  void install_snapshot(const DiscoverySnapshot& snap);

  // Online repartitioning (src/control/reshard.hpp). extract_range()
  // *removes* every entry whose scope key hashes to `range` under
  // shard_pick(key, modulo) — impls by type, pools by name, allocs by
  // their (single) pool, lease rows split per key — and returns them as
  // a snapshot, emitting NO watch events (the range is migrating, not
  // dying; its subscribers re-home instead of replaying a fake teardown).
  // The returned watch_seq is this state's, so a destination forking a
  // fresh seq domain can adopt it. ingest_snapshot() is the other half:
  // it *merges* the tables in (same-key lease rows union), keeps its own
  // next_alloc namespace and advances watch_seq to max(own, snap). With
  // emit_events=false (a fresh destination adopting the source's event
  // log) it emits nothing; with emit_events=true (merge into an
  // established seq domain) the newly added impls are emitted as
  // register events *above* the max-seq bump, so subscribers from either
  // domain pick them up without a gap.
  DiscoverySnapshot extract_range(uint64_t modulo, uint64_t range);
  void ingest_snapshot(const DiscoverySnapshot& snap,
                       bool emit_events = false);

  // Introspection for tests and the scheduling bench.
  uint64_t pool_in_use(const std::string& pool) const;
  uint64_t pool_capacity(const std::string& pool) const;
  size_t live_allocs() const;
  size_t lease_count() const;

 private:
  struct Pool {
    uint64_t capacity = 0;
    uint64_t used = 0;
  };
  struct Lease {
    Duration ttl{};
    TimePoint expires{};
    // (type, name) registrations and allocation ids owned by this lease.
    std::vector<std::pair<std::string, std::string>> impls;
    std::vector<uint64_t> allocs;
  };
  // Requires mu_ held; fans the event out to live watchers.
  void emit(WatchEvent ev);
  Result<void> register_impl_locked(const ImplInfo& info);
  Result<void> unregister_impl_locked(const std::string& type,
                                      const std::string& name);
  Result<uint64_t> acquire_locked(const std::vector<ResourceReq>& reqs);
  Result<void> release_locked(uint64_t alloc_id);
  size_t expire_leases_locked(TimePoint when);
  void ensure_sweeper_locked();
  void sweeper_loop();

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<ImplInfo>> entries_;
  std::unordered_map<std::string, Pool> pools_;
  std::unordered_map<uint64_t, std::vector<ResourceReq>> allocs_;
  uint64_t next_alloc_ = 1;
  std::vector<std::weak_ptr<DiscoveryWatcher>> watchers_;
  uint64_t watch_seq_ = 0;
  std::unordered_map<std::string, Lease> leases_;
  FaultStatsPtr fault_stats_;
  std::condition_variable sweep_cv_;
  std::thread sweeper_;
  bool sweeper_running_ = false;
  bool manual_sweep_ = false;
  bool stopping_ = false;
};

using DiscoveryPtr = std::shared_ptr<DiscoveryClient>;

// --- Wire protocol ---

// The watch-event resume window of a DiscoveryServer, exported for
// replica catch-up alongside the state snapshot: installing it lets the
// restarted replica's server answer seq-resume subscriptions for events
// it never pushed itself.
struct EventLogSnapshot {
  std::vector<WatchEvent> events;
  uint64_t pruned_through = 0;
  uint64_t observed_through = 0;
};

// A DiscoveryServer answers RemoteDiscovery requests over any Transport
// (typically a unix socket: the service is host-local in our
// deployments, like the prototype's burrito-discovery daemon), and pushes
// coalesced watch-event batches to subscribed clients so idle watchers
// cost nothing.
class DiscoveryServer {
 public:
  struct Options {
    // Events landing within this window of the first one are folded into
    // a single pushed batch; subscribers (and their transition
    // controllers) see one event_batch per burst.
    Duration coalesce_window = ms(10);
    // Period of empty keepalive batches. They carry the subscriber's
    // current seq, which is how a client that missed pushes during a
    // silent partition discovers the gap and resumes. Zero disables.
    Duration keepalive = ms(200);
    // Pushed events retained for seq resume; a client resuming from
    // before this horizon gets a catalogue snapshot instead.
    size_t event_log_cap = 1024;
    // Optional: spans per served RPC (serve.<op>), parented to the
    // request's wire-propagated trace context.
    TracerPtr tracer;
    // Replication hook (src/control/): when set, every mutation (any op
    // but query) is routed here instead of being executed against the
    // local state; the returned response goes back to the client.
    // Queries and watch streams still serve from the local state — which
    // the executor's owner keeps current by applying the sequenced op
    // stream to it. Responses that fail with Errc::unavailable or
    // timed_out are treated as transient and NOT recorded in the
    // idempotency cache, so a client retry re-submits instead of
    // replaying the outage.
    std::function<DiscResponse(const DiscRequest&)> mutation_executor;
    // Consulted before dedup and execution for every decoded discovery
    // request; a returned response short-circuits local handling (and,
    // like any response, is cached only if non-transient). The reshard
    // subsystem uses it to fence and forward migrating key ranges.
    std::function<std::optional<DiscResponse>(const DiscRequest&)>
        request_interceptor;
  };

  // Takes ownership of the transport; serves until destroyed.
  DiscoveryServer(TransportPtr transport, std::shared_ptr<DiscoveryState> state,
                  Options opts);
  DiscoveryServer(TransportPtr transport, std::shared_ptr<DiscoveryState> state)
      : DiscoveryServer(std::move(transport), std::move(state), Options{}) {}
  ~DiscoveryServer();

  DiscoveryServer(const DiscoveryServer&) = delete;
  DiscoveryServer& operator=(const DiscoveryServer&) = delete;

  const Addr& addr() const { return addr_; }
  uint64_t requests_served() const;
  // Requests answered from the idempotency dedup cache (i.e. retries of
  // an already-executed mutation).
  uint64_t dedup_hits() const;
  // Watch-stream telemetry. Pushed batches/events do not count as
  // requests_served(): an idle subscriber costs the server nothing and
  // the client no RPCs.
  uint64_t subscribes_served() const;
  uint64_t batches_pushed() const;
  uint64_t events_pushed() const;
  uint64_t snapshots_served() const;
  size_t subscriber_count() const;

  // Replica catch-up: export the resume window once the push loop has
  // observed the state's events through `through_seq` (polls briefly up
  // to `deadline`; on expiry returns a log marked fully pruned at
  // `through_seq`, which downgrades resumers to a snapshot — safe,
  // never wrong). install_event_log() replaces the window wholesale;
  // `state_seq` is the installed state's watch seq, the fallback
  // horizon when the exported log fell short.
  EventLogSnapshot export_event_log(uint64_t through_seq,
                                    Deadline deadline) const;
  void install_event_log(const EventLogSnapshot& log, uint64_t state_seq);

 private:
  struct Sub {
    Addr addr;
    uint64_t sub_id = 0;  // frame token on every push
    std::string filter;
    // Newest catalogue seq this subscriber has been sent (the prev_seq of
    // its next batch).
    uint64_t last_sent_seq = 0;
    // Consecutive failed pushes; reset on any successful send or
    // re-subscribe. A client that vanished without an unsubscribe is
    // evicted once this passes kSubFailureLimit, so the server doesn't
    // push to ghosts forever. (Transports that swallow errors — plain
    // UDP — simply never trip this; eviction is best-effort hygiene,
    // not the correctness path.)
    uint32_t send_failures = 0;
  };
  static constexpr uint32_t kSubFailureLimit = 8;

  void serve_loop();
  void push_loop();
  void handle_subscribe(const Addr& src, uint64_t sub_id, BytesView body);
  void handle_unsubscribe(BytesView body);
  // Builds and sends one batch to `sub` covering `events` (already
  // coalesced); updates last_sent_seq. push_mu_ held.
  void push_to_locked(Sub& sub, const std::vector<WatchEvent>& events,
                      uint64_t round_max_seq);
  void send_snapshot_locked(Sub& sub);
  // Queues a push for `sub` into the fan-out buffer; flush_fanout_locked
  // sends the whole round with one batched transport call (one sendmmsg
  // on UDP) and does the failure accounting for eviction. Every path
  // that queues must flush before releasing push_mu_ — the buffer holds
  // raw Sub pointers that an erase would dangle.
  void send_to_sub_locked(Sub& sub, Bytes frame);
  void flush_fanout_locked();
  void evict_dead_subs_locked();

  // Bounded idempotency cache: "<client_id>#<idem_key>" -> encoded
  // response body. A retried mutation whose first response was lost is
  // answered from here instead of re-executing (exactly-once effects).
  static constexpr size_t kDedupCacheCap = 1024;

  std::shared_ptr<Transport> transport_;
  std::shared_ptr<DiscoveryState> state_;
  Options opts_;
  Addr addr_;
  mutable std::mutex mu_;
  uint64_t requests_ = 0;
  uint64_t dedup_hits_ = 0;
  std::unordered_map<std::string, Bytes> dedup_;
  std::deque<std::string> dedup_order_;  // FIFO eviction

  // Subscription state (push_mu_ nests inside nothing; it may be taken
  // while calling into state_, never the other way around).
  mutable std::mutex push_mu_;
  std::unordered_map<std::string, Sub> subs_;  // "<client_id>#<sub_id>"
  std::deque<WatchEvent> event_log_;           // resume window
  uint64_t pruned_through_ = 0;  // seqs <= this are gone from the log
  uint64_t observed_through_ = 0;
  uint64_t subscribes_ = 0;
  uint64_t batches_pushed_ = 0;
  uint64_t events_pushed_ = 0;
  uint64_t snapshots_ = 0;
  // Per-round fan-out batch (guarded by push_mu_; see send_to_sub_locked).
  std::vector<Datagram> fanout_buf_;
  std::vector<Sub*> fanout_subs_;
  WatcherPtr push_watch_;
  std::thread thread_;
  std::thread push_thread_;
};

// Speaks the discovery protocol over a datagram transport with
// request/response matching, timeout and retry.
//
// Concurrency: RPCs issue in parallel — a dedicated reader thread demuxes
// responses to waiting callers by request id, so one slow call never
// serializes the rest. Retries back off exponentially with jitter, and
// every mutation carries a client-generated idempotency key so a retry of
// an executed-but-unacknowledged op is answered from the server's dedup
// cache instead of re-executing.
class RemoteDiscovery final : public DiscoveryClient {
 public:
  struct Options {
    Duration rpc_timeout = ms(500);
    int retries = 3;
    // Poll period for the fallback watch emulation (used only when the
    // server never answers a subscribe, i.e. predates server push).
    Duration watch_poll = ms(50);
    // Backoff between retry attempts.
    ExponentialBackoff::Options backoff{ms(20), 2.0, ms(500), 0.5};
    // 0 (the default) derives the jitter seed from this client's id, so a
    // fleet of clients retrying into a recovering server spreads out
    // instead of thundering in lockstep. Set non-zero only when a test
    // needs a reproducible backoff schedule.
    uint64_t backoff_seed = 0;
    // Non-zero: registrations/allocations are leased with this TTL and a
    // heartbeat thread renews them. If the service reports the lease
    // lost (e.g. after a long partition), registrations are replayed.
    Duration lease_ttl = Duration::zero();
    // Defaults to lease_ttl / 4.
    Duration heartbeat_period = Duration::zero();
    FaultStatsPtr stats;
    // Optional: spans per RPC (rpc.<op>, one child per resend attempt).
    // The RPC span parents to the calling thread's ambient context, so
    // discovery calls made during negotiation join the connect trace.
    TracerPtr tracer;
    // Multi-server only: if no event batch (not even a keepalive) arrives
    // on a live subscription for this long, assume the server pushing it
    // died and fail over: rotate to the next server and resubscribe with
    // resume. Zero disables the watchdog (RPC timeouts still rotate).
    // Should comfortably exceed the server's keepalive period.
    Duration watch_failover_timeout = Duration::zero();
    // Poll period of the push-silence watchdog. Zero (the default)
    // derives watch_failover_timeout / 2; tightening it bounds how long
    // past the failover timeout a silent server can go unnoticed
    // (detection latency ≈ timeout + interval).
    Duration watchdog_interval = Duration::zero();
    // Timer-wheel mode for lease renewal: when this returns a wheel (and
    // lease_ttl > 0), heartbeats are armed as a periodic wheel entry
    // instead of a dedicated thread — the beat fires the RPC without
    // waiting (the reader thread completes it asynchronously), so a
    // process holding many leased clients carries zero heartbeat
    // threads. Resolved lazily at first lease so wiring it up doesn't
    // force the wheel (and its tick thread) into runtimes that never
    // lease anything. Null / returning null keeps the thread path.
    std::function<std::shared_ptr<TimerWheel>()> wheel_source;
  };

  // `transport` is a bound client endpoint used solely for discovery RPCs.
  // The multi-server form holds the replica set of one partition: RPCs go
  // to the active server, and any timed-out attempt rotates to the next
  // replica (resubscribing live watch streams with seq-resume), so a
  // replica death costs one RPC timeout, not an outage.
  RemoteDiscovery(TransportPtr transport, std::vector<Addr> servers,
                  Options opts);
  RemoteDiscovery(TransportPtr transport, Addr server, Options opts);
  RemoteDiscovery(TransportPtr transport, Addr server)
      : RemoteDiscovery(std::move(transport), std::move(server), Options{}) {}
  ~RemoteDiscovery() override;

  Result<void> register_impl(const ImplInfo& info) override;
  Result<void> unregister_impl(const std::string& type,
                               const std::string& name) override;
  Result<std::vector<ImplInfo>> query(const std::string& type) override;
  // One query_types RPC; the server rejects more than kMaxQueryTypes.
  Result<ImplsByType> query_types(
      const std::vector<std::string>& types) override;
  Result<uint64_t> acquire(const std::vector<ResourceReq>& reqs) override;
  Result<void> release(uint64_t alloc_id) override;
  Result<void> set_pool(const std::string& pool, uint64_t capacity) override;
  // Server-push when the service supports it: a subscribe frame opens a
  // stream of event_batch pushes (any filter, including ""), demuxed by
  // the reader thread, with seq-gap detection and resume. If the server
  // never acks the subscribe (it predates subscriptions), falls back to
  // poll-and-diff emulation — impl events only, non-empty filter
  // required.
  Result<WatcherPtr> watch(const std::string& type_filter) override;

  // The lease owner id sent with every request (unique per client).
  const std::string& client_id() const { return client_id_; }
  // The server currently receiving RPCs, and how many failovers rotated
  // us here. Diagnostics/tests only.
  Addr active_server() const;
  size_t server_failovers() const { return failovers_.load(); }
  size_t server_count() const;
  // Membership reconfiguration: replace the replica set. The active
  // server is kept if it survives in the new list; otherwise RPCs
  // rotate to the first entry.
  void update_servers(std::vector<Addr> servers);
  // Late binding for Options::wheel_source (the runtime constructs its
  // bootstrap discovery client before the runtime object — and hence its
  // wheel — exists). No-op once the heartbeat engine has started.
  void set_wheel_source(std::function<std::shared_ptr<TimerWheel>()> source);
  // The effective jitter seed (after client-id derivation).
  uint64_t backoff_seed() const { return backoff_seed_; }
  // The jitter-free step the next retry delay draws around. The window
  // escalates across failed attempts (of any RPC) and resets to base on
  // the first success — a recovered server stops paying outage penalty.
  // Diagnostics/tests only.
  Duration backoff_step() const;

 private:
  struct Rsp;
  struct Pending;
  struct Sub;
  // `span`, when non-null, is the logical RPC's span: resend attempts
  // become its children and retry/outcome tags land on it.
  Result<Rsp> rpc(const Bytes& request_body, Span* span = nullptr);
  void reader_loop();
  void ensure_reader_locked();
  void heartbeat_loop();
  void ensure_heartbeat();
  // Wheel-mode beat: sends the heartbeat RPC and returns without
  // waiting; runs on the wheel tick thread.
  void beat_async();
  // Completion of an async beat; runs on the reader thread (or the
  // orphan-failure path). Must not issue blocking RPCs inline.
  void on_heartbeat_done(Result<DiscResponse> rsp);
  void poll_watch(WatcherPtr w);
  Result<void> subscribe_watch(WatcherPtr w, const std::string& filter);
  void handle_event_batch(uint64_t token, BytesView payload);
  void send_subscribe(const Sub& sub, uint64_t last_seq, bool resume);
  uint64_t next_idem() { return next_idem_.fetch_add(1) + 1; }
  // Failover: if `observed` is still the active index, advance to the
  // next server and resubscribe every live watch stream there with
  // resume (the replicated watch seq is identical on all replicas, so
  // the new server replays exactly the missed suffix). Passing the
  // observed index makes concurrent timed-out RPCs rotate once, not
  // once each.
  void rotate_server(size_t observed);
  void watchdog_loop();
  void ensure_watchdog();

  TransportPtr transport_;
  std::vector<Addr> servers_;
  mutable std::mutex srv_mu_;
  size_t active_ = 0;  // index into servers_; guarded by srv_mu_
  std::atomic<size_t> failovers_{0};
  Options opts_;
  uint64_t backoff_seed_ = 0;
  // Per-client retry backoff, shared across RPCs so the escalation
  // state survives the call that observed the failure. Guarded by
  // bo_mu_; see backoff_step().
  mutable std::mutex bo_mu_;
  std::optional<ExponentialBackoff> retry_backoff_;
  std::string client_id_;
  std::atomic<uint64_t> next_req_{1};
  std::atomic<uint64_t> next_idem_{0};

  std::mutex pending_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> pending_;
  bool reader_started_ = false;
  bool reader_dead_ = false;
  std::thread reader_;

  std::mutex watch_mu_;
  bool stopping_ = false;
  std::vector<std::pair<WatcherPtr, std::thread>> pollers_;
  // Server-push subscriptions, keyed by sub_id (the push frame token).
  // Guarded by watch_mu_; the reader thread consults it on every
  // event_batch frame.
  std::unordered_map<uint64_t, std::shared_ptr<Sub>> subs_;
  // Push-silence watchdog (multi-server; see watch_failover_timeout).
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
  bool watchdog_started_ = false;
  // Steady-clock ns of the last event_batch received (any subscription,
  // keepalives included).
  std::atomic<int64_t> last_push_ns_{0};

  // Heartbeat engine (lazily started once leased state exists) plus a
  // mirror of leased registrations to replay after a lost lease. Wheel
  // mode arms hb_timer_ on hb_wheel_; thread mode runs hb_thread_.
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  std::thread hb_thread_;
  bool hb_started_ = false;
  bool hb_stop_ = false;
  std::vector<ImplInfo> leased_impls_;  // guarded by hb_mu_
  std::shared_ptr<TimerWheel> hb_wheel_;  // guarded by hb_mu_
  uint64_t hb_timer_ = 0;                 // guarded by hb_mu_
  uint64_t hb_inflight_ = 0;  // outstanding async beat req id; hb_mu_
  // Lease-loss replay runs blocking RPCs, so it gets a transient thread
  // (the reader thread completes those RPCs and must not wait on them).
  std::atomic<bool> hb_replay_running_{false};
  std::thread hb_replay_;  // guarded by hb_mu_
};

}  // namespace bertha
