#include "core/discovery.hpp"

#include <algorithm>
#include <cstdio>
#include <random>

#include "chunnels/shard.hpp"
#include "core/wire.hpp"
#include "io/timer_wheel.hpp"
#include "util/log.hpp"

namespace bertha {

// --- Registry ---

Result<void> Registry::register_impl(ChunnelImplPtr impl) {
  if (!impl) return err(Errc::invalid_argument, "null chunnel impl");
  const ImplInfo& info = impl->info();
  if (info.type.empty() || info.name.empty())
    return err(Errc::invalid_argument, "chunnel impl missing type/name");
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto& by_name = impls_[info.type];
    if (by_name.count(info.name))
      return err(Errc::already_exists, "impl already registered: " + info.name);
    by_name[info.name] = impl;
  }
  BERTHA_TRY(impl->init());
  BLOG(debug, "registry") << "registered " << info.name;
  return ok();
}

Result<void> Registry::unregister_impl(const std::string& type,
                                       const std::string& name) {
  ChunnelImplPtr removed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = impls_.find(type);
    if (it == impls_.end()) return err(Errc::not_found, "no such type: " + type);
    auto nit = it->second.find(name);
    if (nit == it->second.end())
      return err(Errc::not_found, "no such impl: " + name);
    removed = nit->second;
    it->second.erase(nit);
  }
  removed->teardown();
  return ok();
}

Result<ChunnelImplPtr> Registry::lookup(const std::string& type,
                                        const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = impls_.find(type);
  if (it == impls_.end()) return err(Errc::not_found, "no impls for " + type);
  auto nit = it->second.find(name);
  if (nit != it->second.end()) return nit->second;
  // Parameterized network offloads are advertised with an instance
  // suffix ("ordered_mcast/switch:sim://g:7"); the local factory is
  // registered under the base name ("ordered_mcast/switch").
  auto colon = name.find(':');
  if (colon != std::string::npos) {
    nit = it->second.find(name.substr(0, colon));
    if (nit != it->second.end()) return nit->second;
  }
  return err(Errc::not_found, "no local factory for " + name);
}

std::vector<ChunnelImplPtr> Registry::lookup_type(const std::string& type) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ChunnelImplPtr> out;
  auto it = impls_.find(type);
  if (it != impls_.end())
    for (const auto& [name, impl] : it->second) out.push_back(impl);
  return out;
}

std::vector<ImplInfo> Registry::infos_for(const std::string& type) const {
  std::vector<ImplInfo> out;
  for (const auto& impl : lookup_type(type)) out.push_back(impl->info());
  return out;
}

std::vector<std::string> Registry::types() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(impls_.size());
  for (const auto& [type, by_name] : impls_) out.push_back(type);
  return out;
}

bool Registry::has(const std::string& type, const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = impls_.find(type);
  return it != impls_.end() && it->second.count(name) > 0;
}

// --- DiscoveryWatcher ---

DiscoveryWatcher::DiscoveryWatcher(std::string type_filter, size_t capacity)
    : filter_(std::move(type_filter)), q_(capacity) {}

Result<WatchEvent> DiscoveryWatcher::next(Deadline deadline) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!buffer_.empty()) {
        WatchEvent ev = std::move(buffer_.front());
        buffer_.pop_front();
        return ev;
      }
    }
    BERTHA_TRY_ASSIGN(batch, q_.pop(deadline));
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& ev : batch) buffer_.push_back(std::move(ev));
  }
}

std::optional<WatchEvent> DiscoveryWatcher::try_next() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!buffer_.empty()) {
        WatchEvent ev = std::move(buffer_.front());
        buffer_.pop_front();
        return ev;
      }
    }
    auto batch = q_.try_pop();
    if (!batch) return std::nullopt;
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& ev : *batch) buffer_.push_back(std::move(ev));
  }
}

Result<std::vector<WatchEvent>> DiscoveryWatcher::next_batch(
    Deadline deadline) {
  {
    // A batch partially consumed through next() comes out first so no
    // consumer mix ever reorders events.
    std::lock_guard<std::mutex> lk(mu_);
    if (!buffer_.empty()) {
      std::vector<WatchEvent> out(std::make_move_iterator(buffer_.begin()),
                                  std::make_move_iterator(buffer_.end()));
      buffer_.clear();
      return out;
    }
  }
  return q_.pop(deadline);
}

std::optional<std::vector<WatchEvent>> DiscoveryWatcher::try_next_batch() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!buffer_.empty()) {
      std::vector<WatchEvent> out(std::make_move_iterator(buffer_.begin()),
                                  std::make_move_iterator(buffer_.end()));
      buffer_.clear();
      return out;
    }
  }
  return q_.try_pop();
}

uint64_t DiscoveryWatcher::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

bool DiscoveryWatcher::matches(const std::string& filter,
                               const WatchEvent& ev) {
  if (filter.empty()) return true;
  // Typed watchers see impl events for their type; pool capacity is not
  // owned by any one chunnel type, so pool events go to unfiltered
  // watchers only.
  return ev.kind != WatchKind::pool_freed && ev.type == filter;
}

void DiscoveryWatcher::deliver(const WatchEvent& ev) {
  deliver_batch(std::vector<WatchEvent>{ev});
}

void DiscoveryWatcher::deliver_batch(std::vector<WatchEvent> events) {
  if (events.empty()) return;
  size_t n = events.size();
  if (!q_.push(std::move(events)).ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    dropped_ += n;
  }
}

// --- DiscoveryClient ---

Result<ImplsByType> DiscoveryClient::query_types(
    const std::vector<std::string>& types) {
  ImplsByType out;
  std::optional<Error> failed;
  for (const auto& type : types) {
    auto q = query(type);
    if (q.ok()) out.insert_or_assign(type, std::move(q).value());
    else failed = q.error();
  }
  if (out.empty() && failed) return *failed;
  return out;
}

// --- DiscoveryState ---

DiscoveryState::~DiscoveryState() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  sweep_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
  // Watchers may outlive the state (e.g. the runtime shut down first);
  // wake them with cancelled instead of leaving next() blocked forever.
  std::vector<std::weak_ptr<DiscoveryWatcher>> watchers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    watchers.swap(watchers_);
  }
  for (auto& w : watchers)
    if (auto sp = w.lock()) sp->cancel();
}

void DiscoveryState::emit(WatchEvent ev) {
  ev.seq = ++watch_seq_;
  size_t live = 0;
  for (auto& w : watchers_) {
    auto sp = w.lock();
    if (!sp || sp->cancelled()) continue;
    watchers_[live++] = w;
    if (sp->wants(ev)) sp->deliver(ev);
  }
  watchers_.resize(live);
}

Result<WatcherPtr> DiscoveryState::watch(const std::string& type_filter) {
  auto w = std::make_shared<DiscoveryWatcher>(type_filter);
  std::lock_guard<std::mutex> lk(mu_);
  watchers_.push_back(w);
  return w;
}

Result<void> DiscoveryState::register_impl(const ImplInfo& info) {
  std::lock_guard<std::mutex> lk(mu_);
  return register_impl_locked(info);
}

Result<void> DiscoveryState::register_impl_locked(const ImplInfo& info) {
  if (info.type.empty() || info.name.empty())
    return err(Errc::invalid_argument, "impl info missing type/name");
  auto& v = entries_[info.type];
  ImplInfo* slot = nullptr;
  for (auto& e : v) {
    if (e.name == info.name) {
      e = info;  // re-registration updates metadata
      slot = &e;
      break;
    }
  }
  if (!slot) {
    v.push_back(info);
    slot = &v.back();
  }
  WatchEvent ev;
  ev.kind = WatchKind::impl_registered;
  ev.type = info.type;
  ev.name = info.name;
  ev.info = *slot;
  emit(std::move(ev));
  return ok();
}

Result<void> DiscoveryState::unregister_impl(const std::string& type,
                                             const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return unregister_impl_locked(type, name);
}

Result<void> DiscoveryState::unregister_impl_locked(const std::string& type,
                                                    const std::string& name) {
  auto it = entries_.find(type);
  if (it == entries_.end()) return err(Errc::not_found, "no such type: " + type);
  auto& v = it->second;
  auto nit = std::find_if(v.begin(), v.end(),
                          [&](const ImplInfo& e) { return e.name == name; });
  if (nit == v.end()) return err(Errc::not_found, "no such impl: " + name);
  v.erase(nit);
  WatchEvent ev;
  ev.kind = WatchKind::impl_unregistered;
  ev.type = type;
  ev.name = name;
  emit(std::move(ev));
  return ok();
}

Result<std::vector<ImplInfo>> DiscoveryState::query(const std::string& type) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(type);
  if (it == entries_.end()) return std::vector<ImplInfo>{};
  return it->second;
}

Result<uint64_t> DiscoveryState::acquire(const std::vector<ResourceReq>& reqs) {
  std::lock_guard<std::mutex> lk(mu_);
  return acquire_locked(reqs);
}

Result<uint64_t> DiscoveryState::acquire_locked(
    const std::vector<ResourceReq>& reqs) {
  // Validate the whole set, then commit — all or nothing.
  for (const auto& r : reqs) {
    auto it = pools_.find(r.pool);
    if (it == pools_.end())
      return err(Errc::not_found, "no such resource pool: " + r.pool);
    if (it->second.used + r.amount > it->second.capacity)
      return err(Errc::resource_exhausted, "pool exhausted: " + r.pool);
  }
  for (const auto& r : reqs) pools_[r.pool].used += r.amount;
  uint64_t id = next_alloc_++;
  allocs_[id] = reqs;
  return id;
}

Result<void> DiscoveryState::release(uint64_t alloc_id) {
  std::lock_guard<std::mutex> lk(mu_);
  return release_locked(alloc_id);
}

Result<void> DiscoveryState::release_locked(uint64_t alloc_id) {
  auto it = allocs_.find(alloc_id);
  if (it == allocs_.end())
    return err(Errc::not_found, "unknown allocation id");
  for (const auto& r : it->second) {
    auto pit = pools_.find(r.pool);
    if (pit == pools_.end()) continue;
    pit->second.used -= std::min(pit->second.used, r.amount);
    WatchEvent ev;
    ev.kind = WatchKind::pool_freed;
    ev.pool = r.pool;
    ev.available = pit->second.capacity - pit->second.used;
    emit(std::move(ev));
  }
  allocs_.erase(it);
  return ok();
}

Result<void> DiscoveryState::set_pool(const std::string& pool, uint64_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& p = pools_[pool];
  uint64_t before_avail = p.capacity > p.used ? p.capacity - p.used : 0;
  p.capacity = capacity;
  uint64_t after_avail = p.capacity > p.used ? p.capacity - p.used : 0;
  if (after_avail > before_avail) {
    // Growing a pool frees capacity just like releasing an allocation.
    WatchEvent ev;
    ev.kind = WatchKind::pool_freed;
    ev.pool = pool;
    ev.available = after_avail;
    emit(std::move(ev));
  }
  return ok();
}

uint64_t DiscoveryState::pool_in_use(const std::string& pool) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pools_.find(pool);
  return it == pools_.end() ? 0 : it->second.used;
}

uint64_t DiscoveryState::pool_capacity(const std::string& pool) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pools_.find(pool);
  return it == pools_.end() ? 0 : it->second.capacity;
}

size_t DiscoveryState::live_allocs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return allocs_.size();
}

size_t DiscoveryState::lease_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return leases_.size();
}

void DiscoveryState::set_fault_stats(FaultStatsPtr stats) {
  std::lock_guard<std::mutex> lk(mu_);
  fault_stats_ = std::move(stats);
}

FaultStatsPtr DiscoveryState::fault_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fault_stats_;
}

std::pair<std::vector<ImplInfo>, uint64_t> DiscoveryState::catalogue_snapshot()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ImplInfo> all;
  for (const auto& [type, v] : entries_)
    all.insert(all.end(), v.begin(), v.end());
  return {std::move(all), watch_seq_};
}

DiscoverySnapshot DiscoveryState::export_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  DiscoverySnapshot snap;
  for (const auto& [type, v] : entries_)
    snap.impls.insert(snap.impls.end(), v.begin(), v.end());
  // Deterministic order (the maps are unordered): a snapshot's bytes
  // should not depend on which peer served it.
  std::sort(snap.impls.begin(), snap.impls.end(),
            [](const ImplInfo& a, const ImplInfo& b) {
              return std::tie(a.type, a.name) < std::tie(b.type, b.name);
            });
  for (const auto& [name, p] : pools_)
    snap.pools.push_back({name, p.capacity, p.used});
  std::sort(snap.pools.begin(), snap.pools.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  for (const auto& [id, reqs] : allocs_) snap.allocs.push_back({id, reqs});
  std::sort(snap.allocs.begin(), snap.allocs.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  snap.next_alloc = next_alloc_;
  for (const auto& [owner, l] : leases_) {
    DiscoverySnapshot::LeaseEntry e;
    e.owner = owner;
    e.ttl_ns = l.ttl.count();
    e.expires_ns = l.expires.time_since_epoch().count();
    e.impls = l.impls;
    e.allocs = l.allocs;
    snap.leases.push_back(std::move(e));
  }
  std::sort(snap.leases.begin(), snap.leases.end(),
            [](const auto& a, const auto& b) { return a.owner < b.owner; });
  snap.watch_seq = watch_seq_;
  return snap;
}

void DiscoveryState::install_snapshot(const DiscoverySnapshot& snap) {
  std::lock_guard<std::mutex> lk(mu_);
  entries_.clear();
  for (const auto& info : snap.impls) entries_[info.type].push_back(info);
  pools_.clear();
  for (const auto& p : snap.pools) pools_[p.name] = Pool{p.capacity, p.used};
  allocs_.clear();
  for (const auto& a : snap.allocs) allocs_[a.id] = a.reqs;
  next_alloc_ = snap.next_alloc;
  leases_.clear();
  for (const auto& e : snap.leases) {
    Lease l;
    l.ttl = Duration(e.ttl_ns);
    l.expires = TimePoint(
        std::chrono::duration_cast<TimePoint::duration>(Duration(e.expires_ns)));
    l.impls = e.impls;
    l.allocs = e.allocs;
    leases_[e.owner] = std::move(l);
  }
  // Adopt the peer's event history position verbatim; no events are
  // emitted, so watchers resume by seq against the installed log.
  watch_seq_ = snap.watch_seq;
}

DiscoverySnapshot DiscoveryState::extract_range(uint64_t modulo,
                                                uint64_t range) {
  auto in_range = [&](const std::string& key) {
    return shard_pick(BytesView(reinterpret_cast<const uint8_t*>(key.data()),
                                key.size()),
                      static_cast<size_t>(modulo)) == range;
  };
  std::lock_guard<std::mutex> lk(mu_);
  DiscoverySnapshot snap;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (in_range(it->first)) {
      snap.impls.insert(snap.impls.end(), it->second.begin(), it->second.end());
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(snap.impls.begin(), snap.impls.end(),
            [](const ImplInfo& a, const ImplInfo& b) {
              return std::tie(a.type, a.name) < std::tie(b.type, b.name);
            });
  for (auto it = pools_.begin(); it != pools_.end();) {
    if (in_range(it->first)) {
      snap.pools.push_back({it->first, it->second.capacity, it->second.used});
      it = pools_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(snap.pools.begin(), snap.pools.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  // An allocation migrates with its pools — all of them must be in the
  // range (a multi-pool alloc straddling buckets stays put; see the
  // DESIGN.md §12 caveat — its namespaced id still routes to this
  // partition, which keeps releases consistent).
  std::vector<uint64_t> moved_ids;
  for (auto it = allocs_.begin(); it != allocs_.end();) {
    bool all = !it->second.empty();
    for (const auto& r : it->second) all = all && in_range(r.pool);
    if (all) {
      snap.allocs.push_back({it->first, it->second});
      moved_ids.push_back(it->first);
      it = allocs_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(snap.allocs.begin(), snap.allocs.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  std::sort(moved_ids.begin(), moved_ids.end());
  // next_alloc stays: the destination mints under its own namespace.
  snap.next_alloc = next_alloc_;
  // Lease rows split per key: the owner keeps a row on both sides, each
  // covering the impls/allocs that live there (heartbeats fan out to
  // every partition, so both rows stay refreshed).
  for (auto it = leases_.begin(); it != leases_.end();) {
    Lease& l = it->second;
    DiscoverySnapshot::LeaseEntry e;
    e.owner = it->first;
    e.ttl_ns = l.ttl.count();
    e.expires_ns = l.expires.time_since_epoch().count();
    for (const auto& im : l.impls)
      if (in_range(im.first)) e.impls.push_back(im);
    for (uint64_t id : l.allocs)
      if (std::binary_search(moved_ids.begin(), moved_ids.end(), id))
        e.allocs.push_back(id);
    if (!e.impls.empty() || !e.allocs.empty()) {
      l.impls.erase(std::remove_if(l.impls.begin(), l.impls.end(),
                                   [&](const auto& im) {
                                     return in_range(im.first);
                                   }),
                    l.impls.end());
      l.allocs.erase(
          std::remove_if(l.allocs.begin(), l.allocs.end(),
                         [&](uint64_t id) {
                           return std::binary_search(moved_ids.begin(),
                                                     moved_ids.end(), id);
                         }),
          l.allocs.end());
      snap.leases.push_back(std::move(e));
    }
    if (l.impls.empty() && l.allocs.empty())
      it = leases_.erase(it);
    else
      ++it;
  }
  std::sort(snap.leases.begin(), snap.leases.end(),
            [](const auto& a, const auto& b) { return a.owner < b.owner; });
  snap.watch_seq = watch_seq_;
  return snap;
}

void DiscoveryState::ingest_snapshot(const DiscoverySnapshot& snap,
                                     bool emit_events) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ImplInfo> added;
  for (const auto& info : snap.impls) {
    auto& v = entries_[info.type];
    bool dup = false;
    for (const auto& e : v) dup = dup || e.name == info.name;
    if (!dup) {
      v.push_back(info);
      if (emit_events) added.push_back(info);
    }
  }
  for (const auto& p : snap.pools) pools_[p.name] = Pool{p.capacity, p.used};
  for (const auto& a : snap.allocs) allocs_[a.id] = a.reqs;
  // Keep our own next_alloc_: ids stay namespaced by the minting bucket.
  for (const auto& e : snap.leases) {
    Lease& l = leases_[e.owner];
    Duration ttl(e.ttl_ns);
    TimePoint expires(
        std::chrono::duration_cast<TimePoint::duration>(Duration(e.expires_ns)));
    if (l.ttl == Duration::zero() || expires > l.expires) {
      if (l.ttl == Duration::zero()) l.ttl = ttl;
      l.expires = std::max(l.expires, expires);
    }
    for (const auto& im : e.impls)
      if (std::find(l.impls.begin(), l.impls.end(), im) == l.impls.end())
        l.impls.push_back(im);
    for (uint64_t id : e.allocs)
      if (std::find(l.allocs.begin(), l.allocs.end(), id) == l.allocs.end())
        l.allocs.push_back(id);
  }
  // A fresh destination (nothing ever published) adopts the source's
  // seq so its event-log fork resumes the same domain; an established
  // one keeps the max so neither side's subscribers see a rewind.
  watch_seq_ = std::max(watch_seq_, snap.watch_seq);
  // Merge into an established domain: surface the migrated impls as
  // ordinary register events. Emitting AFTER the max-seq bump puts them
  // above every seq a re-homing source subscriber can carry, so both the
  // destination's own subscribers (per-sub prev_seq chains across the
  // jump) and re-homed ones (replay of events > their last_seq) get them
  // without a gap. Deterministic across replicas: snap.impls order.
  for (auto& info : added) {
    WatchEvent ev;
    ev.kind = WatchKind::impl_registered;
    ev.type = info.type;
    ev.name = info.name;
    ev.info = std::move(info);
    emit(std::move(ev));
  }
}

// --- Leases ---

Result<void> DiscoveryState::register_impl_leased(const ImplInfo& info,
                                                 const std::string& owner,
                                                 Duration ttl) {
  return register_impl_leased_at(info, owner, ttl, now());
}

Result<void> DiscoveryState::register_impl_leased_at(const ImplInfo& info,
                                                     const std::string& owner,
                                                     Duration ttl,
                                                     TimePoint at) {
  if (owner.empty() || ttl <= Duration::zero())
    return err(Errc::invalid_argument, "lease requires owner and positive ttl");
  std::lock_guard<std::mutex> lk(mu_);
  BERTHA_TRY(register_impl_locked(info));
  auto [it, fresh] = leases_.try_emplace(owner);
  Lease& l = it->second;
  l.ttl = ttl;
  l.expires = at + ttl;
  auto key = std::make_pair(info.type, info.name);
  if (std::find(l.impls.begin(), l.impls.end(), key) == l.impls.end())
    l.impls.push_back(std::move(key));
  if (fresh && fault_stats_) fault_stats_->lease_grants++;
  ensure_sweeper_locked();
  sweep_cv_.notify_all();
  return ok();
}

Result<uint64_t> DiscoveryState::acquire_leased(
    const std::vector<ResourceReq>& reqs, const std::string& owner,
    Duration ttl) {
  return acquire_leased_at(reqs, owner, ttl, now());
}

Result<uint64_t> DiscoveryState::acquire_leased_at(
    const std::vector<ResourceReq>& reqs, const std::string& owner,
    Duration ttl, TimePoint at) {
  if (owner.empty() || ttl <= Duration::zero())
    return err(Errc::invalid_argument, "lease requires owner and positive ttl");
  std::lock_guard<std::mutex> lk(mu_);
  BERTHA_TRY_ASSIGN(id, acquire_locked(reqs));
  auto [it, fresh] = leases_.try_emplace(owner);
  Lease& l = it->second;
  l.ttl = ttl;
  l.expires = at + ttl;
  l.allocs.push_back(id);
  if (fresh && fault_stats_) fault_stats_->lease_grants++;
  ensure_sweeper_locked();
  sweep_cv_.notify_all();
  return id;
}

Result<void> DiscoveryState::heartbeat(const std::string& owner) {
  return heartbeat_at(owner, now());
}

Result<void> DiscoveryState::heartbeat_at(const std::string& owner,
                                          TimePoint at) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = leases_.find(owner);
  if (it == leases_.end())
    return err(Errc::not_found, "no lease held by " + owner);
  it->second.expires = at + it->second.ttl;
  if (fault_stats_) fault_stats_->lease_renewals++;
  return ok();
}

size_t DiscoveryState::expire_leases() {
  std::lock_guard<std::mutex> lk(mu_);
  return expire_leases_locked(now());
}

size_t DiscoveryState::expire_leases_at(TimePoint when) {
  std::lock_guard<std::mutex> lk(mu_);
  return expire_leases_locked(when);
}

void DiscoveryState::set_alloc_namespace(uint64_t ns) {
  std::lock_guard<std::mutex> lk(mu_);
  next_alloc_ = (ns << kAllocNamespaceShift) | 1;
}

void DiscoveryState::set_manual_sweep(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  manual_sweep_ = on;
}

size_t DiscoveryState::expire_leases_locked(TimePoint when) {
  size_t reaped = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    Lease& l = it->second;
    if (l.expires > when) {
      ++it;
      continue;
    }
    BLOG(warn, "discovery") << "lease expired for " << it->first << ": "
                            << l.impls.size() << " impls, " << l.allocs.size()
                            << " allocs reclaimed";
    // Entries the owner already removed explicitly come back not_found —
    // that's fine, the lease just tracks what it *may* still own.
    for (const auto& [type, name] : l.impls)
      (void)unregister_impl_locked(type, name);
    for (uint64_t id : l.allocs) (void)release_locked(id);
    it = leases_.erase(it);
    reaped++;
    if (fault_stats_) fault_stats_->lease_expiries++;
  }
  return reaped;
}

void DiscoveryState::ensure_sweeper_locked() {
  // Manual-sweep (replicated) states expire only via expire_leases_at():
  // a local timer firing on one replica but not its peers would diverge
  // the replicated catalogue.
  if (manual_sweep_ || sweeper_running_ || stopping_) return;
  sweeper_running_ = true;
  sweeper_ = std::thread([this] { sweeper_loop(); });
}

void DiscoveryState::sweeper_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stopping_) {
    if (leases_.empty()) {
      sweep_cv_.wait(lk);
      continue;
    }
    TimePoint earliest = TimePoint::max();
    for (const auto& [owner, l] : leases_)
      earliest = std::min(earliest, l.expires);
    if (now() < earliest) {
      sweep_cv_.wait_until(lk, earliest);
      continue;
    }
    expire_leases_locked(now());
  }
}

// --- Wire protocol ---
//
// Request/response codec and execute_request live in discovery_wire.cpp,
// shared with the replicated control plane (src/control/).
// --- Watch subscription messages ---

Bytes encode_subscribe(const SubscribeMsg& m) {
  Writer w;
  w.put_varint(m.sub_id);
  w.put_string(m.client_id);
  w.put_string(m.filter);
  w.put_varint(m.last_seq);
  w.put_bool(m.resume);
  return std::move(w).take();
}

Result<SubscribeMsg> decode_subscribe(BytesView b) {
  Reader r(b);
  SubscribeMsg m;
  BERTHA_TRY_ASSIGN(sub_id, r.get_varint());
  BERTHA_TRY_ASSIGN(client, r.get_string());
  BERTHA_TRY_ASSIGN(filter, r.get_string());
  BERTHA_TRY_ASSIGN(last, r.get_varint());
  BERTHA_TRY_ASSIGN(resume, r.get_bool());
  if (sub_id == 0) return err(Errc::protocol_error, "zero subscription id");
  if (client.empty())
    return err(Errc::protocol_error, "subscribe missing client id");
  m.sub_id = sub_id;
  m.client_id = std::move(client);
  m.filter = std::move(filter);
  m.last_seq = last;
  m.resume = resume;
  return m;
}

Bytes encode_unsubscribe(const UnsubscribeMsg& m) {
  Writer w;
  w.put_varint(m.sub_id);
  w.put_string(m.client_id);
  return std::move(w).take();
}

Result<UnsubscribeMsg> decode_unsubscribe(BytesView b) {
  Reader r(b);
  UnsubscribeMsg m;
  BERTHA_TRY_ASSIGN(sub_id, r.get_varint());
  BERTHA_TRY_ASSIGN(client, r.get_string());
  if (sub_id == 0) return err(Errc::protocol_error, "zero subscription id");
  if (client.empty())
    return err(Errc::protocol_error, "unsubscribe missing client id");
  m.sub_id = sub_id;
  m.client_id = std::move(client);
  return m;
}

Bytes encode_event_batch(const EventBatchMsg& m) {
  Writer w;
  w.put_varint(m.prev_seq);
  w.put_varint(m.last_seq);
  w.put_bool(m.snapshot);
  serde_put(w, m.events);
  return std::move(w).take();
}

Result<EventBatchMsg> decode_event_batch(BytesView b) {
  Reader r(b);
  EventBatchMsg m;
  BERTHA_TRY_ASSIGN(prev, r.get_varint());
  BERTHA_TRY_ASSIGN(last, r.get_varint());
  BERTHA_TRY_ASSIGN(snapshot, r.get_bool());
  BERTHA_TRY_ASSIGN(events, serde_get<std::vector<WatchEvent>>(r));
  // Seq sanity: the batch must cover a forward range and its events must
  // fit inside it — an incremental batch strictly ordered within
  // (prev_seq, last_seq], a snapshot pinned at last_seq. Anything else
  // is a corrupt or forged frame, not a recoverable gap.
  if (last < prev)
    return err(Errc::protocol_error, "event batch seq regression");
  if (snapshot && prev != 0)
    return err(Errc::protocol_error, "snapshot batch with prev seq");
  uint64_t floor = prev;
  for (const auto& ev : events) {
    if (snapshot) {
      if (ev.seq != last)
        return err(Errc::protocol_error, "snapshot event seq mismatch");
      continue;
    }
    if (ev.seq <= floor || ev.seq > last)
      return err(Errc::protocol_error, "event seq outside batch range");
    floor = ev.seq;
  }
  m.prev_seq = prev;
  m.last_seq = last;
  m.snapshot = snapshot;
  m.events = std::move(events);
  return m;
}

DiscoveryServer::DiscoveryServer(TransportPtr transport,
                                 std::shared_ptr<DiscoveryState> state,
                                 Options opts)
    : transport_(std::move(transport)),
      state_(std::move(state)),
      opts_(opts),
      addr_(transport_->local_addr()) {
  // The push watcher is unfiltered and generously sized; if it still
  // overflows, the seq gap in the event log downgrades every subscriber
  // to a snapshot rather than silently losing events.
  auto w = state_->watch("");
  if (w.ok()) {
    push_watch_ = std::move(w).value();
    auto [unused, seq] = state_->catalogue_snapshot();
    (void)unused;
    pruned_through_ = seq;  // events before the server existed are gone
    observed_through_ = seq;
    push_thread_ = std::thread([this] { push_loop(); });
  }
  thread_ = std::thread([this] { serve_loop(); });
}

DiscoveryServer::~DiscoveryServer() {
  transport_->close();
  if (push_watch_) push_watch_->cancel();
  if (thread_.joinable()) thread_.join();
  if (push_thread_.joinable()) push_thread_.join();
}

uint64_t DiscoveryServer::requests_served() const {
  std::lock_guard<std::mutex> lk(mu_);
  return requests_;
}

uint64_t DiscoveryServer::dedup_hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dedup_hits_;
}

uint64_t DiscoveryServer::subscribes_served() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return subscribes_;
}

uint64_t DiscoveryServer::batches_pushed() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return batches_pushed_;
}

uint64_t DiscoveryServer::events_pushed() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return events_pushed_;
}

uint64_t DiscoveryServer::snapshots_served() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return snapshots_;
}

size_t DiscoveryServer::subscriber_count() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return subs_.size();
}

EventLogSnapshot DiscoveryServer::export_event_log(uint64_t through_seq,
                                                   Deadline deadline) const {
  // The push loop observes state events asynchronously; wait for it to
  // absorb everything up to the state snapshot's seq so the exported
  // log and snapshot describe the same instant.
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(push_mu_);
      if (observed_through_ >= through_seq) {
        EventLogSnapshot log;
        log.events.assign(event_log_.begin(), event_log_.end());
        // Trim events past the snapshot's cut; the joiner regenerates
        // those by replaying the sequenced suffix.
        while (!log.events.empty() && log.events.back().seq > through_seq)
          log.events.pop_back();
        log.pruned_through = pruned_through_;
        log.observed_through = through_seq;
        return log;
      }
    }
    if (deadline.expired() || !push_watch_) break;
    sleep_for(ms(2));
  }
  // Could not observe the cut in time: hand over an empty, fully-pruned
  // log. Resuming subscribers on the joiner get a snapshot batch.
  EventLogSnapshot log;
  log.pruned_through = through_seq;
  log.observed_through = through_seq;
  return log;
}

void DiscoveryServer::install_event_log(const EventLogSnapshot& log,
                                        uint64_t state_seq) {
  std::lock_guard<std::mutex> lk(push_mu_);
  event_log_.assign(log.events.begin(), log.events.end());
  pruned_through_ = log.pruned_through;
  observed_through_ = std::max(log.observed_through, state_seq);
  if (log.observed_through < state_seq) {
    // The exported log stopped short of the installed state; anything
    // between is unreplayable.
    event_log_.clear();
    pruned_through_ = state_seq;
  }
}

namespace {

std::string sub_key(const std::string& client_id, uint64_t sub_id) {
  std::string key = client_id;
  key += '#';
  key += std::to_string(sub_id);
  return key;
}

}  // namespace

void DiscoveryServer::push_to_locked(Sub& sub,
                                     const std::vector<WatchEvent>& events,
                                     uint64_t round_max_seq) {
  if (round_max_seq <= sub.last_sent_seq) return;  // already covered
  EventBatchMsg batch;
  batch.prev_seq = sub.last_sent_seq;
  batch.last_seq = round_max_seq;
  for (const auto& ev : events) {
    if (ev.seq <= sub.last_sent_seq) continue;
    if (DiscoveryWatcher::matches(sub.filter, ev)) batch.events.push_back(ev);
  }
  sub.last_sent_seq = round_max_seq;
  batches_pushed_++;
  events_pushed_ += batch.events.size();
  send_to_sub_locked(sub, encode_frame(MsgKind::event_batch, sub.sub_id,
                                       encode_event_batch(batch)));
}

void DiscoveryServer::send_to_sub_locked(Sub& sub, Bytes frame) {
  Datagram d;
  d.dst = sub.addr;
  d.payload.assign(frame);
  fanout_buf_.push_back(std::move(d));
  fanout_subs_.push_back(&sub);
}

void DiscoveryServer::flush_fanout_locked() {
  if (fanout_buf_.empty()) return;
  // One batched send covers the whole round; datagrams [0, sent) were
  // handed to the transport, the tail was not (batch sends stop at the
  // first hard error).
  auto r = send_batch(*transport_, fanout_buf_);
  size_t sent = r.ok() ? r.value() : 0;
  for (size_t i = 0; i < fanout_subs_.size(); i++) {
    if (i < sent)
      fanout_subs_[i]->send_failures = 0;
    else
      fanout_subs_[i]->send_failures++;
  }
  fanout_buf_.clear();
  fanout_subs_.clear();
}

void DiscoveryServer::evict_dead_subs_locked() {
  for (auto it = subs_.begin(); it != subs_.end();) {
    if (it->second.send_failures > kSubFailureLimit) {
      BLOG(info, "discovery") << "evicting unreachable watch subscriber "
                              << it->first;
      it = subs_.erase(it);
    } else {
      ++it;
    }
  }
}

void DiscoveryServer::send_snapshot_locked(Sub& sub) {
  auto [impls, seq] = state_->catalogue_snapshot();
  EventBatchMsg batch;
  batch.snapshot = true;
  batch.last_seq = seq;
  for (const auto& info : impls) {
    WatchEvent ev;
    ev.kind = WatchKind::impl_registered;
    ev.seq = seq;
    ev.type = info.type;
    ev.name = info.name;
    ev.info = info;
    if (DiscoveryWatcher::matches(sub.filter, ev))
      batch.events.push_back(std::move(ev));
  }
  sub.last_sent_seq = seq;
  snapshots_++;
  batches_pushed_++;
  events_pushed_ += batch.events.size();
  send_to_sub_locked(sub, encode_frame(MsgKind::event_batch, sub.sub_id,
                                       encode_event_batch(batch)));
}

void DiscoveryServer::handle_subscribe(const Addr& src, uint64_t sub_id,
                                       BytesView body) {
  auto msg_r = decode_subscribe(body);
  if (!msg_r.ok()) {
    BLOG(debug, "discovery") << "bad subscribe from " << src.to_string()
                             << ": " << msg_r.error().to_string();
    return;  // no response channel to complain on; the client times out
  }
  const SubscribeMsg& msg = msg_r.value();
  if (msg.sub_id != sub_id) return;  // token/body mismatch: forged frame
  std::lock_guard<std::mutex> lk(push_mu_);
  subscribes_++;
  Sub& sub = subs_[sub_key(msg.client_id, msg.sub_id)];
  sub.addr = src;  // re-subscribe from a new address moves the stream
  sub.sub_id = msg.sub_id;
  sub.filter = msg.filter;
  sub.send_failures = 0;  // the client is demonstrably alive
  // Catch-up: replay from the event log when the client's seq is still
  // inside the resume window, else send a full snapshot. The first
  // batch doubles as the subscribe ack.
  if (msg.last_seq < pruned_through_) {
    send_snapshot_locked(sub);
    flush_fanout_locked();
    return;
  }
  sub.last_sent_seq = msg.last_seq;
  std::vector<WatchEvent> replay;
  for (const auto& ev : event_log_)
    if (ev.seq > msg.last_seq) replay.push_back(ev);
  uint64_t covered = std::max(observed_through_, msg.last_seq);
  if (!replay.empty() || covered > msg.last_seq || !msg.resume) {
    // Forced even when empty: a fresh subscribe needs its ack batch.
    EventBatchMsg batch;
    batch.prev_seq = msg.last_seq;
    batch.last_seq = covered;
    for (auto& ev : replay)
      if (DiscoveryWatcher::matches(sub.filter, ev))
        batch.events.push_back(std::move(ev));
    sub.last_sent_seq = covered;
    batches_pushed_++;
    events_pushed_ += batch.events.size();
    send_to_sub_locked(sub, encode_frame(MsgKind::event_batch, sub.sub_id,
                                         encode_event_batch(batch)));
    flush_fanout_locked();
  }
}

void DiscoveryServer::handle_unsubscribe(BytesView body) {
  auto msg_r = decode_unsubscribe(body);
  if (!msg_r.ok()) return;
  std::lock_guard<std::mutex> lk(push_mu_);
  subs_.erase(sub_key(msg_r.value().client_id, msg_r.value().sub_id));
}

void DiscoveryServer::push_loop() {
  Deadline keepalive = opts_.keepalive > Duration::zero()
                           ? Deadline::after(opts_.keepalive)
                           : Deadline::never();
  for (;;) {
    auto first = push_watch_->next_batch(keepalive);
    if (!first.ok()) {
      if (first.error().code == Errc::cancelled) return;  // shutting down
      // Keepalive tick: an empty batch advances nothing but lets clients
      // that missed pushes during a partition notice the seq gap.
      std::lock_guard<std::mutex> lk(push_mu_);
      for (auto& [key, sub] : subs_) {
        EventBatchMsg batch;
        batch.prev_seq = sub.last_sent_seq;
        batch.last_seq = sub.last_sent_seq;
        send_to_sub_locked(sub, encode_frame(MsgKind::event_batch, sub.sub_id,
                                             encode_event_batch(batch)));
      }
      flush_fanout_locked();
      evict_dead_subs_locked();
      keepalive = opts_.keepalive > Duration::zero()
                      ? Deadline::after(opts_.keepalive)
                      : Deadline::never();
      continue;
    }
    // Coalesce the burst: fold in everything arriving inside the window.
    std::vector<WatchEvent> round = std::move(first).value();
    Deadline window = Deadline::after(opts_.coalesce_window);
    while (!window.expired()) {
      auto more = push_watch_->next_batch(window);
      if (!more.ok()) break;
      round.insert(round.end(), std::make_move_iterator(more.value().begin()),
                   std::make_move_iterator(more.value().end()));
    }
    if (round.empty()) continue;

    std::lock_guard<std::mutex> lk(push_mu_);
    bool lost = false;
    for (auto& ev : round) {
      // Pre-baseline stragglers, and — after an install_event_log() —
      // events the installed log already covers.
      if (ev.seq <= observed_through_) continue;
      // A gap against the log tail means our own watcher overflowed;
      // resume past it is impossible, so snapshot everyone.
      if (observed_through_ != 0 && ev.seq != observed_through_ + 1)
        lost = true;
      observed_through_ = ev.seq;
      event_log_.push_back(ev);
    }
    while (event_log_.size() > opts_.event_log_cap) {
      pruned_through_ = event_log_.front().seq;
      event_log_.pop_front();
    }
    if (lost) {
      pruned_through_ = observed_through_;
      event_log_.clear();
      for (auto& [key, sub] : subs_) send_snapshot_locked(sub);
    } else {
      for (auto& [key, sub] : subs_)
        push_to_locked(sub, round, observed_through_);
    }
    flush_fanout_locked();
    evict_dead_subs_locked();
    keepalive = opts_.keepalive > Duration::zero()
                    ? Deadline::after(opts_.keepalive)
                    : Deadline::never();
  }
}

void DiscoveryServer::serve_loop() {
  for (;;) {
    auto pkt_r = transport_->recv();
    if (!pkt_r.ok()) return;  // closed
    const Packet& pkt = pkt_r.value();

    auto frame_r = decode_frame(pkt.payload);
    if (!frame_r.ok()) {
      BLOG(debug, "discovery") << "ignoring undecodable datagram from "
                               << pkt.src.to_string();
      continue;
    }
    if (frame_r.value().kind == MsgKind::subscribe && push_watch_) {
      handle_subscribe(pkt.src, frame_r.value().token,
                       frame_r.value().payload);
      continue;
    }
    if (frame_r.value().kind == MsgKind::unsubscribe && push_watch_) {
      handle_unsubscribe(frame_r.value().payload);
      continue;
    }
    if (frame_r.value().kind != MsgKind::discovery) {
      BLOG(debug, "discovery") << "ignoring non-discovery datagram from "
                               << pkt.src.to_string();
      continue;
    }
    uint64_t req_id = frame_r.value().token;

    DiscResponse rsp;
    std::string dedup_key;
    auto req_r = decode_request(frame_r.value().payload);
    if (!req_r.ok()) {
      rsp = error_response(req_r.error());
    } else {
      const DiscRequest& req = req_r.value();
      // A fencing/forwarding interceptor (reshard) owns the request
      // outright: no local dedup (the authoritative cache travelled with
      // the migrated range) and no local execution.
      std::optional<DiscResponse> icpt;
      if (opts_.request_interceptor) icpt = opts_.request_interceptor(req);
      // Retried mutation we already executed? Replay the recorded answer
      // so the effect stays exactly-once (a lost acquire response must
      // not allocate twice).
      if (!icpt && req.idem_key != 0 && !req.client_id.empty() &&
          is_mutation(req.op)) {
        dedup_key = req.client_id;
        dedup_key += '#';
        dedup_key += std::to_string(req.idem_key);
        bool replayed = false;
        Bytes out;
        {
          std::lock_guard<std::mutex> lk(mu_);
          auto it = dedup_.find(dedup_key);
          if (it != dedup_.end()) {
            requests_++;
            dedup_hits_++;
            out = encode_frame(MsgKind::discovery, req_id, it->second);
            replayed = true;
          }
        }
        if (replayed) {
          if (auto st = state_->fault_stats()) st->dedup_hits++;
          // The retry shares the original request's trace context, so
          // this span lands in the same trace as the first execution.
          // Like every serve span it ends before the reply leaves.
          {
            Span s =
                trace_span(opts_.tracer, serve_span_name(req.op), req.trace);
            s.tag("dedup_hit", "1");
          }
          (void)transport_->send_to(pkt.src, out);
          continue;
        }
      }
      Span serve_span = trace_span(opts_.tracer, serve_span_name(req.op),
                                   req.trace);
      if (req.op == DiscOp::query_types)
        serve_span.tag_u64("types", req.types.size());
      if (icpt) {
        serve_span.tag("intercepted", "1");
        rsp = std::move(*icpt);
      } else if (opts_.mutation_executor && is_mutation(req.op)) {
        serve_span.tag("replicated", "1");
        rsp = opts_.mutation_executor(req);
      } else {
        rsp = execute_request(*state_, req, now());
      }
      if (!rsp.success) serve_span.tag("error", rsp.error);
    }

    // Transient failures (the replica group unreachable, a sequencer
    // timeout) must not be recorded: the whole point of the client's
    // retry is to try again, not to be handed the outage verbatim.
    bool transient = !rsp.success &&
                     (rsp.errc == static_cast<uint8_t>(Errc::unavailable) ||
                      rsp.errc == static_cast<uint8_t>(Errc::timed_out));
    Bytes body = encode_response(rsp);
    if (body.size() > kMaxResponseBytes)
      body = encode_response(error_response(
          err(Errc::resource_exhausted,
              "answer of " + std::to_string(body.size()) +
                  " bytes exceeds one datagram")));
    {
      std::lock_guard<std::mutex> lk(mu_);
      requests_++;
      if (!dedup_key.empty() && !transient &&
          dedup_.emplace(dedup_key, body).second) {
        dedup_order_.push_back(std::move(dedup_key));
        while (dedup_order_.size() > kDedupCacheCap) {
          dedup_.erase(dedup_order_.front());
          dedup_order_.pop_front();
        }
      }
    }
    Bytes out = encode_frame(MsgKind::discovery, req_id, body);
    (void)transport_->send_to(pkt.src, out);
  }
}

// --- RemoteDiscovery ---

struct RemoteDiscovery::Rsp : DiscResponse {};

// A caller blocked in rpc() waiting for the reader thread to hand it the
// matching response.
struct RemoteDiscovery::Pending {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<DiscResponse> result = err(Errc::internal, "pending");
  // Fire-and-forget completion (wheel-mode heartbeats): invoked exactly
  // once, outside `mu`, by whichever path completes the request — the
  // reader thread on a response, or the orphan sweep when the transport
  // dies. When set, the completer also erases the pending_ entry, since
  // no blocked rpc() caller exists to do it.
  std::function<void(const Result<DiscResponse>&)> on_done;
};

// A server-push watch subscription. The reader thread applies pushed
// batches; `last_seq` is the newest catalogue seq applied, the anchor
// for duplicate suppression and gap detection.
struct RemoteDiscovery::Sub {
  uint64_t id = 0;
  std::string filter;
  WatcherPtr watcher;
  std::mutex mu;
  uint64_t last_seq = 0;
  bool acked = false;  // first batch arrived (the subscribe ack)
  std::condition_variable cv;
};

namespace {

std::string random_client_id() {
  std::random_device rd;
  uint64_t v = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "c%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

uint64_t lease_ttl_ms(const RemoteDiscovery::Options& opts) {
  if (opts.lease_ttl <= Duration::zero()) return 0;
  auto v = std::chrono::duration_cast<std::chrono::milliseconds>(
               opts.lease_ttl)
               .count();
  return v > 0 ? static_cast<uint64_t>(v) : 1;
}

}  // namespace

RemoteDiscovery::RemoteDiscovery(TransportPtr transport,
                                 std::vector<Addr> servers, Options opts)
    : transport_(std::move(transport)),
      servers_(std::move(servers)),
      opts_(opts),
      client_id_(random_client_id()) {
  // Per-client jitter seed: a fleet of clients whose RPCs time out
  // together (a replica just died) must not retry in lockstep.
  backoff_seed_ = opts_.backoff_seed != 0
                      ? opts_.backoff_seed
                      : (std::hash<std::string>{}(client_id_) | 1);
  retry_backoff_.emplace(opts_.backoff, backoff_seed_);
}

Duration RemoteDiscovery::backoff_step() const {
  std::lock_guard<std::mutex> lk(bo_mu_);
  return retry_backoff_->current_step();
}

RemoteDiscovery::RemoteDiscovery(TransportPtr transport, Addr server,
                                 Options opts)
    : RemoteDiscovery(std::move(transport),
                      std::vector<Addr>{std::move(server)}, std::move(opts)) {}

Addr RemoteDiscovery::active_server() const {
  std::lock_guard<std::mutex> lk(srv_mu_);
  return servers_[active_];
}

size_t RemoteDiscovery::server_count() const {
  std::lock_guard<std::mutex> lk(srv_mu_);
  return servers_.size();
}

void RemoteDiscovery::update_servers(std::vector<Addr> servers) {
  if (servers.empty()) return;
  std::lock_guard<std::mutex> lk(srv_mu_);
  Addr cur = servers_[active_];
  servers_ = std::move(servers);
  active_ = 0;
  for (size_t i = 0; i < servers_.size(); i++) {
    if (servers_[i].to_string() == cur.to_string()) {
      active_ = i;  // keep the live server; only removal forces a move
      break;
    }
  }
}

RemoteDiscovery::~RemoteDiscovery() {
  // Wheel-mode heartbeat first: cancel_sync waits out a beat that is
  // mid-callback, so nothing races the teardown below. If the wheel
  // itself already stopped, the entry is still kArmed and the cancel
  // succeeds without waiting.
  {
    uint64_t hb_timer = 0;
    std::shared_ptr<TimerWheel> hb_wheel;
    {
      std::lock_guard<std::mutex> lk(hb_mu_);
      hb_stop_ = true;
      hb_timer = hb_timer_;
      hb_wheel = std::move(hb_wheel_);
    }
    if (hb_wheel && hb_timer) hb_wheel->cancel_sync(hb_timer);
  }
  std::vector<std::pair<WatcherPtr, std::thread>> pollers;
  std::unordered_map<uint64_t, std::shared_ptr<Sub>> subs;
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    stopping_ = true;
    pollers.swap(pollers_);
    subs.swap(subs_);
  }
  for (auto& [w, t] : pollers) w->cancel();
  for (auto& [id, sub] : subs) {
    // Best-effort: a lost unsubscribe just leaves the server pushing to a
    // dead address until it notices.
    UnsubscribeMsg m;
    m.sub_id = id;
    m.client_id = client_id_;
    (void)transport_->send_to(
        active_server(),
        encode_frame(MsgKind::unsubscribe, id, encode_unsubscribe(m)));
    sub->watcher->cancel();
  }
  {
    std::lock_guard<std::mutex> lk(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  watchdog_cv_.notify_all();
  transport_->close();
  if (hb_thread_.joinable()) hb_thread_.join();
  if (watchdog_.joinable()) watchdog_.join();
  if (reader_.joinable()) reader_.join();
  // After the reader joins, nobody can spawn a new replay; an in-flight
  // one fails fast (reader_dead_ short-circuits its RPCs).
  if (hb_replay_.joinable()) hb_replay_.join();
  for (auto& [w, t] : pollers)
    if (t.joinable()) t.join();
}

void RemoteDiscovery::ensure_reader_locked() {
  if (reader_started_) return;
  reader_started_ = true;
  reader_ = std::thread([this] { reader_loop(); });
}

void RemoteDiscovery::reader_loop() {
  for (;;) {
    auto pkt_r = transport_->recv();
    if (!pkt_r.ok()) break;  // transport closed
    auto frame_r = decode_frame(pkt_r.value().payload);
    if (!frame_r.ok()) continue;
    if (frame_r.value().kind == MsgKind::event_batch) {
      handle_event_batch(frame_r.value().token, frame_r.value().payload);
      continue;
    }
    if (frame_r.value().kind != MsgKind::discovery) continue;
    std::shared_ptr<Pending> p;
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      auto it = pending_.find(frame_r.value().token);
      if (it == pending_.end()) continue;  // a timed-out request's response
      p = it->second;
    }
    auto rsp_r = decode_response(frame_r.value().payload);
    std::function<void(const Result<DiscResponse>&)> on_done;
    {
      std::lock_guard<std::mutex> lk(p->mu);
      if (p->done) continue;  // duplicate response
      if (rsp_r.ok()) p->result = std::move(rsp_r).value();
      else p->result = rsp_r.error();
      p->done = true;
      on_done = std::move(p->on_done);
    }
    p->cv.notify_all();
    if (on_done) {
      {
        std::lock_guard<std::mutex> lk(pending_mu_);
        pending_.erase(frame_r.value().token);
      }
      // `result` is stable once done is set (duplicates are suppressed
      // above), so reading it without p->mu here is fine.
      on_done(p->result);
    }
  }
  // Fail everything still waiting so callers don't block on a dead link.
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    reader_dead_ = true;
    orphans.swap(pending_);
  }
  for (auto& [id, p] : orphans) {
    std::function<void(const Result<DiscResponse>&)> on_done;
    {
      std::lock_guard<std::mutex> lk(p->mu);
      if (p->done) continue;
      p->result = err(Errc::cancelled, "discovery client closed");
      p->done = true;
      on_done = std::move(p->on_done);
    }
    p->cv.notify_all();
    if (on_done) on_done(p->result);
  }
}

Result<WatcherPtr> RemoteDiscovery::watch(const std::string& type_filter) {
  auto w = std::make_shared<DiscoveryWatcher>(type_filter);
  auto sub = subscribe_watch(w, type_filter);
  if (sub.ok()) return w;
  if (sub.error().code == Errc::cancelled) return sub.error();
  // The server never acked the subscribe — it predates server-push watch
  // streams. Emulate with poll-and-diff (impl events only, so a type
  // filter is required).
  if (type_filter.empty())
    return err(Errc::invalid_argument,
               "remote watch without server push requires a chunnel type "
               "filter");
  BLOG(info, "discovery") << "watch subscription unanswered ("
                          << sub.error().to_string()
                          << "); falling back to poll-and-diff";
  std::lock_guard<std::mutex> lk(watch_mu_);
  if (stopping_) return err(Errc::cancelled, "discovery client closing");
  pollers_.emplace_back(w, std::thread([this, w] { poll_watch(w); }));
  return w;
}

void RemoteDiscovery::send_subscribe(const Sub& sub, uint64_t last_seq,
                                     bool resume) {
  SubscribeMsg m;
  m.sub_id = sub.id;
  m.client_id = client_id_;
  m.filter = sub.filter;
  m.last_seq = last_seq;
  m.resume = resume;
  (void)transport_->send_to(
      active_server(),
      encode_frame(MsgKind::subscribe, sub.id, encode_subscribe(m)));
}

void RemoteDiscovery::rotate_server(size_t observed) {
  {
    std::lock_guard<std::mutex> lk(srv_mu_);
    if (servers_.size() < 2) return;
    if (observed != active_) return;  // a concurrent caller already rotated
    active_ = (active_ + 1) % servers_.size();
  }
  failovers_.fetch_add(1);
  if (opts_.stats) opts_.stats->server_failovers++;
  Span span = trace_span(opts_.tracer, "ctrl.failover");
  Addr next = active_server();
  span.tag("server", next.to_string());
  BLOG(warn, "discovery") << "failing over to discovery server "
                          << next.to_string();
  // Re-subscribe every live watch stream on the new server with resume:
  // the replicated catalogue carries the identical watch seq on every
  // replica, so the new server replays exactly the missed suffix (no
  // snapshot fallback unless the gap outran its event log).
  std::vector<std::shared_ptr<Sub>> subs;
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    for (auto& [id, sub] : subs_) subs.push_back(sub);
  }
  for (auto& sub : subs) {
    uint64_t last;
    {
      std::lock_guard<std::mutex> lk(sub->mu);
      last = sub->last_seq;
    }
    if (opts_.stats) opts_.stats->watch_resubscribes++;
    send_subscribe(*sub, last, /*resume=*/true);
  }
  last_push_ns_.store(now().time_since_epoch().count(),
                      std::memory_order_relaxed);
}

void RemoteDiscovery::ensure_watchdog() {
  if (opts_.watch_failover_timeout <= Duration::zero() || server_count() < 2)
    return;
  std::lock_guard<std::mutex> lk(watch_mu_);
  if (watchdog_started_ || stopping_) return;
  watchdog_started_ = true;
  last_push_ns_.store(now().time_since_epoch().count(),
                      std::memory_order_relaxed);
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void RemoteDiscovery::watchdog_loop() {
  // A live subscription receives at least the server's keepalive batches;
  // silence past watch_failover_timeout means the active server stopped
  // pushing (died, or we're partitioned from it) even though no RPC has
  // timed out to notice — so rotate proactively.
  const Duration limit = opts_.watch_failover_timeout;
  // The poll period bounds detection latency past the timeout; it was a
  // hardcoded limit/2, now an operator knob (RuntimeConfig control
  // tuning plumbs it through).
  const Duration tick =
      opts_.watchdog_interval > Duration::zero() ? opts_.watchdog_interval
                                                 : limit / 2;
  std::unique_lock<std::mutex> lk(watch_mu_);
  while (!stopping_) {
    watchdog_cv_.wait_for(lk, tick);
    if (stopping_) break;
    if (subs_.empty()) continue;
    int64_t last = last_push_ns_.load(std::memory_order_relaxed);
    int64_t silent = now().time_since_epoch().count() - last;
    if (silent < limit.count()) continue;
    size_t observed;
    {
      std::lock_guard<std::mutex> lk2(srv_mu_);
      observed = active_;
    }
    lk.unlock();
    rotate_server(observed);
    lk.lock();
  }
}

Result<void> RemoteDiscovery::subscribe_watch(WatcherPtr w,
                                              const std::string& filter) {
  auto sub = std::make_shared<Sub>();
  sub->id = next_req_.fetch_add(1);
  sub->filter = filter;
  sub->watcher = std::move(w);
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    if (reader_dead_) return err(Errc::cancelled, "discovery client closed");
    ensure_reader_locked();
  }
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    if (stopping_) return err(Errc::cancelled, "discovery client closing");
    subs_[sub->id] = sub;
  }
  ensure_watchdog();
  // The first event_batch on our token is the subscribe ack; retry the
  // handshake like any RPC. An old server ignores the frame entirely, so
  // exhausting retries means "no push support", not "service down".
  ExponentialBackoff backoff(opts_.backoff,
                             backoff_seed_ ^ (sub->id * 0x9e3779b9ull));
  for (int attempt = 0; attempt <= opts_.retries; attempt++) {
    if (attempt > 0 && opts_.stats) opts_.stats->rpc_retries++;
    uint64_t last_seq;
    {
      std::lock_guard<std::mutex> lk(sub->mu);
      if (sub->acked) return ok();
      last_seq = sub->last_seq;
    }
    send_subscribe(*sub, last_seq, /*resume=*/false);
    std::unique_lock<std::mutex> lk(sub->mu);
    if (sub->cv.wait_for(lk, opts_.rpc_timeout, [&] { return sub->acked; }))
      return ok();
    lk.unlock();
    if (attempt < opts_.retries) sleep_for(backoff.next());
  }
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    subs_.erase(sub->id);
  }
  if (opts_.stats) opts_.stats->rpc_failures++;
  return err(Errc::unavailable,
             "discovery service did not ack the watch subscription");
}

void RemoteDiscovery::handle_event_batch(uint64_t token, BytesView payload) {
  std::shared_ptr<Sub> sub;
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    auto it = subs_.find(token);
    if (it == subs_.end()) return;  // unknown/closed stream
    sub = it->second;
  }
  last_push_ns_.store(now().time_since_epoch().count(),
                      std::memory_order_relaxed);
  if (sub->watcher->cancelled()) {
    // The consumer dropped its handle; close the stream server-side too.
    {
      std::lock_guard<std::mutex> lk(watch_mu_);
      subs_.erase(token);
    }
    UnsubscribeMsg m;
    m.sub_id = token;
    m.client_id = client_id_;
    (void)transport_->send_to(
        active_server(),
        encode_frame(MsgKind::unsubscribe, token, encode_unsubscribe(m)));
    return;
  }
  auto batch_r = decode_event_batch(payload);
  if (!batch_r.ok()) return;  // corrupt push; the next keepalive re-syncs us
  EventBatchMsg batch = std::move(batch_r).value();

  std::vector<WatchEvent> apply;
  bool applied = false;
  bool need_resume = false;
  uint64_t resume_from = 0;
  {
    std::lock_guard<std::mutex> lk(sub->mu);
    if (batch.last_seq < sub->last_seq) return;  // stale duplicate/reorder
    if (batch.snapshot) {
      if (batch.last_seq == sub->last_seq && sub->acked)
        return;  // we already hold this state
      apply = std::move(batch.events);
      sub->last_seq = batch.last_seq;
      applied = true;
      if (opts_.stats) opts_.stats->watch_snapshots++;
    } else if (batch.prev_seq > sub->last_seq) {
      // Gap: batches between prev_seq and our seq were lost (partition,
      // drop, or server-side overflow). Don't apply — ask the server to
      // replay from where we actually are; the replay covers this batch.
      need_resume = true;
      resume_from = sub->last_seq;
    } else {
      // Contiguous or overlapping: apply only what we haven't seen, so a
      // duplicated or partially re-sent batch never double-applies.
      for (auto& ev : batch.events)
        if (ev.seq > sub->last_seq) apply.push_back(std::move(ev));
      sub->last_seq = batch.last_seq;
      applied = true;
    }
    if (!need_resume) sub->acked = true;
  }
  if (need_resume) {
    if (opts_.stats) opts_.stats->watch_resubscribes++;
    send_subscribe(*sub, resume_from, /*resume=*/true);
    return;
  }
  sub->cv.notify_all();
  if (!applied) return;
  if (opts_.stats && !apply.empty()) opts_.stats->watch_batches++;
  std::vector<WatchEvent> filtered;
  for (auto& ev : apply)
    if (sub->watcher->wants(ev)) filtered.push_back(std::move(ev));
  if (!filtered.empty()) sub->watcher->deliver_batch(std::move(filtered));
}

void RemoteDiscovery::poll_watch(WatcherPtr w) {
  // Poll-and-diff emulation of the in-process watch channel: impl events
  // only, with per-watcher sequence numbers. Comparison is by name +
  // metadata so a re-registration that changes an advertisement still
  // surfaces as impl_registered. The initial snapshot is delivered as
  // impl_registered events too: a subscriber that races its first poll
  // against a registration sees the impl either way.
  std::unordered_map<std::string, ImplInfo> known;
  uint64_t seq = 0;
  while (!w->cancelled()) {
    auto q = query(w->filter());
    if (q.ok()) {
      std::unordered_map<std::string, ImplInfo> now;
      for (auto& e : q.value()) now.emplace(e.name, e);
      for (auto& [name, info] : now) {
        auto it = known.find(name);
        bool changed =
            it == known.end() ||
            serialize_to_bytes(it->second) != serialize_to_bytes(info);
        if (!changed) continue;
        WatchEvent ev;
        ev.kind = WatchKind::impl_registered;
        ev.seq = ++seq;
        ev.type = info.type;
        ev.name = name;
        ev.info = info;
        w->deliver(ev);
      }
      for (auto& [name, info] : known) {
        if (now.count(name)) continue;
        WatchEvent ev;
        ev.kind = WatchKind::impl_unregistered;
        ev.seq = ++seq;
        ev.type = info.type;
        ev.name = name;
        w->deliver(ev);
      }
      known = std::move(now);
    } else if (q.error().code == Errc::cancelled) {
      break;  // transport closed under us
    }
    // Sleep in small steps so cancel() is honored promptly.
    Deadline next_poll = Deadline::after(opts_.watch_poll);
    while (!next_poll.expired() && !w->cancelled())
      sleep_for(std::min(ms(10), next_poll.remaining()));
  }
  w->cancel();
}

Result<RemoteDiscovery::Rsp> RemoteDiscovery::rpc(const Bytes& request_body,
                                                  Span* span) {
  uint64_t req_id = next_req_.fetch_add(1);
  Bytes frame = encode_frame(MsgKind::discovery, req_id, request_body);
  auto p = std::make_shared<Pending>();
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    if (reader_dead_) return err(Errc::cancelled, "discovery client closed");
    ensure_reader_locked();
    pending_[req_id] = p;
  }

  // The retry backoff is per-*client*, not per-call: escalation from one
  // outage carries into the next RPC, and the first success resets it —
  // a recovered server is charged nothing for its history.
  auto backoff_delay = [this] {
    std::lock_guard<std::mutex> lk(bo_mu_);
    return retry_backoff_->next();
  };
  Result<DiscResponse> outcome =
      err(Errc::unavailable, "discovery service unreachable at " +
                                 active_server().to_string());
  bool exhausted = true;
  int attempts_used = 0;
  for (int attempt = 0; attempt <= opts_.retries; attempt++) {
    if (attempt > 0 && opts_.stats) opts_.stats->rpc_retries++;
    attempts_used = attempt + 1;
    // One child span per resend: retries of a logical RPC share its
    // trace id, which is what the fault-propagation tests assert.
    Span att = span ? trace_span(opts_.tracer, "rpc.attempt", span->context())
                    : Span{};
    att.tag_u64("attempt", static_cast<uint64_t>(attempt));
    size_t observed;
    Addr target;
    {
      std::lock_guard<std::mutex> lk(srv_mu_);
      observed = active_;
      target = servers_[active_];
    }
    att.tag("server", target.to_string());
    auto sent = transport_->send_to(target, frame);
    if (!sent.ok()) {
      outcome = sent.error();
      exhausted = false;
      break;
    }
    std::unique_lock<std::mutex> lk(p->mu);
    if (p->cv.wait_for(lk, opts_.rpc_timeout, [&] { return p->done; })) {
      outcome = std::move(p->result);
      exhausted = false;
      // An `unavailable` *response* is the server saying "try again
      // shortly" — a fenced key range mid-reshard, a sequencer timeout.
      // The server is alive (it answered), so retry in place without
      // rotating; idempotency keys make the resend exactly-once.
      bool retry_rsp = outcome.ok() && !outcome.value().success &&
                       outcome.value().errc ==
                           static_cast<uint8_t>(Errc::unavailable) &&
                       attempt < opts_.retries;
      if (!retry_rsp) break;
      lk.unlock();
      att.tag("unavailable", "1");
      auto fresh = std::make_shared<Pending>();
      {
        std::lock_guard<std::mutex> plk(pending_mu_);
        if (reader_dead_) break;
        pending_[req_id] = fresh;
      }
      p = std::move(fresh);
      sleep_for(backoff_delay());
      continue;
    }
    lk.unlock();
    att.tag("timeout", "1");
    // The active server let an RPC time out: assume it died and try the
    // next replica on the following attempt (no-op with one server).
    rotate_server(observed);
    if (attempt < opts_.retries) sleep_for(backoff_delay());
  }
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    pending_.erase(req_id);
  }

  if (span && span->active()) {
    span->tag_u64("attempts", static_cast<uint64_t>(attempts_used));
    if (attempts_used > 1) span->tag("retried", "1");
    if (exhausted) span->tag("exhausted", "1");
  }
  if (exhausted && opts_.stats) opts_.stats->rpc_failures++;
  if (!outcome.ok()) return outcome.error();
  DiscResponse raw = std::move(outcome).value();
  if (raw.success) {
    std::lock_guard<std::mutex> blk(bo_mu_);
    retry_backoff_->reset();
  }
  if (!raw.success) {
    Errc code = raw.errc <= static_cast<uint8_t>(Errc::internal)
                    ? static_cast<Errc>(raw.errc)
                    : Errc::internal;
    return err(code, raw.error);
  }
  Rsp rsp;
  static_cast<DiscResponse&>(rsp) = std::move(raw);
  return rsp;
}

void RemoteDiscovery::ensure_heartbeat() {
  if (opts_.lease_ttl <= Duration::zero()) return;
  std::lock_guard<std::mutex> lk(hb_mu_);
  if (hb_started_ || hb_stop_) return;
  if (opts_.wheel_source && !hb_wheel_) hb_wheel_ = opts_.wheel_source();
  hb_started_ = true;
  if (hb_wheel_) {
    // Wheel mode: lease renewal is one periodic wheel entry and the RPC
    // is fire-and-forget (the reader thread completes it), so N leased
    // clients in a process cost zero heartbeat threads. The period gets
    // the same ±12.5% per-client jitter as the thread path, fixed once
    // at arm time — wheel entries re-arm at a constant period.
    Duration period = opts_.heartbeat_period > Duration::zero()
                          ? opts_.heartbeat_period
                          : opts_.lease_ttl / 4;
    if (period <= Duration::zero()) period = ms(10);
    Rng jitter(backoff_seed_ ^ 0x48454152544a4954ull);
    int64_t half_spread = std::max<int64_t>(period.count() / 8, 1);
    period += Duration(jitter.next_in(-half_spread, half_spread));
    hb_timer_ = hb_wheel_->schedule_periodic(period, [this] { beat_async(); });
    return;
  }
  hb_thread_ = std::thread([this] { heartbeat_loop(); });
}

void RemoteDiscovery::beat_async() {
  // Wheel tick thread: register the pending, send, return. Never waits —
  // the tick thread beats every connection in the process.
  uint64_t req_id = next_req_.fetch_add(1);
  uint64_t stale = 0;
  {
    std::lock_guard<std::mutex> lk(hb_mu_);
    if (hb_stop_) return;
    stale = hb_inflight_;
    hb_inflight_ = req_id;
  }
  DiscRequest req;
  req.op = DiscOp::heartbeat;
  req.client_id = client_id_;
  Bytes frame = encode_frame(MsgKind::discovery, req_id, encode_request(req));
  auto p = std::make_shared<Pending>();
  p->on_done = [this, req_id](const Result<DiscResponse>& r) {
    {
      std::lock_guard<std::mutex> lk(hb_mu_);
      if (hb_inflight_ == req_id) hb_inflight_ = 0;
    }
    on_heartbeat_done(r);
  };
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    if (reader_dead_) return;
    ensure_reader_locked();
    // A beat the server never answered would leak its pending entry;
    // reap the previous one when arming the next. No retry/rotation
    // here: the next beat is the retry, and missing lease_ttl/4 worth of
    // beats is exactly what the TTL budget tolerates.
    if (stale) pending_.erase(stale);
    pending_[req_id] = p;
  }
  (void)transport_->send_to(active_server(), frame);
  if (opts_.stats) opts_.stats->heartbeats_sent++;
}

void RemoteDiscovery::on_heartbeat_done(Result<DiscResponse> rsp) {
  // Reader-thread context: blocking rpc() here would deadlock (this very
  // thread completes those RPCs), so the lease-loss replay — the only
  // heavy reaction — runs on a transient thread instead.
  bool lease_lost = rsp.ok() && !rsp.value().success &&
                    rsp.value().errc == static_cast<uint8_t>(Errc::not_found);
  if (!lease_lost) return;
  std::lock_guard<std::mutex> lk(hb_mu_);
  if (hb_stop_) return;
  if (hb_replay_running_.exchange(true)) return;  // one replay at a time
  if (hb_replay_.joinable()) hb_replay_.join();   // reap the finished one
  std::vector<ImplInfo> replay = leased_impls_;
  hb_replay_ = std::thread([this, replay = std::move(replay)] {
    BLOG(warn, "discovery") << "lease lost for " << client_id_
                            << "; re-registering " << replay.size()
                            << " impls";
    for (const auto& info : replay) {
      DiscRequest rr;
      rr.op = DiscOp::register_impl;
      rr.entry = info;
      rr.client_id = client_id_;
      rr.idem_key = next_idem();
      rr.ttl_ms = lease_ttl_ms(opts_);
      Span span = trace_span(opts_.tracer, "rpc.replay_register");
      span.tag("impl", info.name);
      rr.trace = span.context();
      (void)rpc(encode_request(rr), &span);
    }
    if (opts_.stats && !replay.empty()) opts_.stats->lease_recoveries++;
    hb_replay_running_.store(false);
  });
}

void RemoteDiscovery::set_wheel_source(
    std::function<std::shared_ptr<TimerWheel>()> source) {
  std::lock_guard<std::mutex> lk(hb_mu_);
  if (hb_started_) return;  // engine already chosen; too late to switch
  opts_.wheel_source = std::move(source);
}

void RemoteDiscovery::heartbeat_loop() {
  Duration period = opts_.heartbeat_period > Duration::zero()
                        ? opts_.heartbeat_period
                        : opts_.lease_ttl / 4;
  if (period <= Duration::zero()) period = ms(10);
  // Jitter each interval ±12.5% (per-client seed): heartbeats from a
  // fleet of clients started together must not stay phase-locked, or a
  // recovering server absorbs them all in one burst.
  Rng jitter(backoff_seed_ ^ 0x48454152544a4954ull);
  int64_t half_spread = std::max<int64_t>(period.count() / 8, 1);
  std::unique_lock<std::mutex> lk(hb_mu_);
  while (!hb_stop_) {
    hb_cv_.wait_for(lk, period + Duration(jitter.next_in(-half_spread,
                                                         half_spread)));
    if (hb_stop_) break;
    lk.unlock();
    DiscRequest req;
    req.op = DiscOp::heartbeat;
    req.client_id = client_id_;
    auto r = rpc(encode_request(req));
    if (opts_.stats) opts_.stats->heartbeats_sent++;
    if (!r.ok() && r.error().code == Errc::not_found) {
      // The service reaped our lease (e.g. we were partitioned past the
      // TTL). Replay leased registrations so the deployment converges.
      std::vector<ImplInfo> replay;
      {
        std::lock_guard<std::mutex> lk2(hb_mu_);
        replay = leased_impls_;
      }
      BLOG(warn, "discovery") << "lease lost for " << client_id_
                              << "; re-registering " << replay.size()
                              << " impls";
      for (const auto& info : replay) {
        DiscRequest rr;
        rr.op = DiscOp::register_impl;
        rr.entry = info;
        rr.client_id = client_id_;
        rr.idem_key = next_idem();
        rr.ttl_ms = lease_ttl_ms(opts_);
        Span span = trace_span(opts_.tracer, "rpc.replay_register");
        span.tag("impl", info.name);
        rr.trace = span.context();
        (void)rpc(encode_request(rr), &span);
      }
      if (opts_.stats && !replay.empty()) opts_.stats->lease_recoveries++;
    }
    lk.lock();
  }
}

Result<void> RemoteDiscovery::register_impl(const ImplInfo& info) {
  DiscRequest req;
  req.op = DiscOp::register_impl;
  req.entry = info;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  req.ttl_ms = lease_ttl_ms(opts_);
  Span span = trace_span(opts_.tracer, "rpc.register_impl", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  (void)rsp;
  if (req.ttl_ms != 0) {
    {
      std::lock_guard<std::mutex> lk(hb_mu_);
      auto it = std::find_if(leased_impls_.begin(), leased_impls_.end(),
                             [&](const ImplInfo& e) {
                               return e.type == info.type &&
                                      e.name == info.name;
                             });
      if (it != leased_impls_.end()) *it = info;
      else leased_impls_.push_back(info);
    }
    ensure_heartbeat();
  }
  return ok();
}

Result<void> RemoteDiscovery::unregister_impl(const std::string& type,
                                              const std::string& name) {
  DiscRequest req;
  req.op = DiscOp::unregister_impl;
  req.type = type;
  req.name = name;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  Span span = trace_span(opts_.tracer, "rpc.unregister_impl", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  (void)rsp;
  std::lock_guard<std::mutex> lk(hb_mu_);
  std::erase_if(leased_impls_, [&](const ImplInfo& e) {
    return e.type == type && e.name == name;
  });
  return ok();
}

Result<std::vector<ImplInfo>> RemoteDiscovery::query(const std::string& type) {
  DiscRequest req;
  req.op = DiscOp::query;
  req.type = type;
  Span span = trace_span(opts_.tracer, "rpc.query", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  return std::move(rsp.entries);
}

Result<ImplsByType> RemoteDiscovery::query_types(
    const std::vector<std::string>& types) {
  if (types.empty()) return ImplsByType{};
  DiscRequest req;
  req.op = DiscOp::query_types;
  req.types = types;
  // Named like the single-type call so traces read the same; the tag
  // says how many types the round trip carried.
  Span span = trace_span(opts_.tracer, "rpc.query", current_trace_context());
  span.tag_u64("types", types.size());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  ImplsByType out;
  for (auto& type : rsp.types) out.try_emplace(std::move(type));
  for (auto& e : rsp.entries)
    if (auto it = out.find(e.type); it != out.end())
      it->second.push_back(std::move(e));
  return out;
}

Result<uint64_t> RemoteDiscovery::acquire(const std::vector<ResourceReq>& reqs) {
  DiscRequest req;
  req.op = DiscOp::acquire;
  req.resources = reqs;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  req.ttl_ms = lease_ttl_ms(opts_);
  Span span = trace_span(opts_.tracer, "rpc.acquire", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  if (req.ttl_ms != 0) ensure_heartbeat();
  return rsp.alloc_id;
}

Result<void> RemoteDiscovery::release(uint64_t alloc_id) {
  DiscRequest req;
  req.op = DiscOp::release;
  req.alloc_id = alloc_id;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  Span span = trace_span(opts_.tracer, "rpc.release", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  (void)rsp;
  return ok();
}

Result<void> RemoteDiscovery::set_pool(const std::string& pool,
                                       uint64_t capacity) {
  DiscRequest req;
  req.op = DiscOp::set_pool;
  req.type = pool;
  req.capacity = capacity;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  Span span = trace_span(opts_.tracer, "rpc.set_pool", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  (void)rsp;
  return ok();
}

}  // namespace bertha
