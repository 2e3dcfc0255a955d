#include "control/partition_map.hpp"

#include "chunnels/shard.hpp"
#include "core/discovery.hpp"

namespace bertha {

namespace {
BytesView key_view(const std::string& s) {
  return BytesView(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::vector<uint32_t> identity_home(uint64_t modulo, size_t nparts) {
  std::vector<uint32_t> home(modulo);
  for (uint64_t i = 0; i < modulo; i++)
    home[i] = static_cast<uint32_t>(i % nparts);
  return home;
}
}  // namespace

PartitionMap::PartitionMap(size_t partitions)
    : partitions_(partitions == 0 ? 1 : partitions),
      modulo_(partitions_),
      home_(identity_home(modulo_, partitions_)) {}

size_t PartitionMap::partitions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return partitions_;
}

uint64_t PartitionMap::modulo() const {
  std::lock_guard<std::mutex> lk(mu_);
  return modulo_;
}

size_t PartitionMap::index_for_type(const std::string& type) const {
  std::lock_guard<std::mutex> lk(mu_);
  return home_of_locked(shard_pick(key_view(type), modulo_));
}

size_t PartitionMap::index_for_pool(const std::string& pool) const {
  std::lock_guard<std::mutex> lk(mu_);
  return home_of_locked(shard_pick(key_view(pool), modulo_));
}

size_t PartitionMap::index_for_alloc(uint64_t alloc_id) {
  return static_cast<size_t>(alloc_id >> DiscoveryState::kAllocNamespaceShift);
}

Result<size_t> PartitionMap::index_for_alloc_routed(uint64_t alloc_id) const {
  uint64_t bucket = alloc_id >> DiscoveryState::kAllocNamespaceShift;
  std::lock_guard<std::mutex> lk(mu_);
  if (bucket >= modulo_)
    return err(Errc::invalid_argument, "alloc id names unknown partition");
  return home_of_locked(bucket);
}

Result<void> PartitionMap::apply(const ClusterMembership& m) {
  if (m.partitions.empty())
    return err(Errc::invalid_argument, "membership without partitions");
  for (const auto& replicas : m.partitions)
    if (replicas.empty())
      return err(Errc::invalid_argument, "membership with empty partition");
  uint64_t modulo = m.modulo == 0 ? m.partitions.size() : m.modulo;
  std::vector<uint32_t> home =
      m.home.empty() ? identity_home(modulo, m.partitions.size()) : m.home;
  if (home.size() != modulo)
    return err(Errc::invalid_argument, "membership home table size");
  for (uint32_t h : home)
    if (h >= m.partitions.size())
      return err(Errc::invalid_argument, "membership home names no partition");
  std::lock_guard<std::mutex> lk(mu_);
  if (m.epoch <= epoch_)
    return err(Errc::already_exists, "stale membership epoch");
  // Buckets must stay stable: a split doubles the modulo, a merge keeps
  // it (re-homing buckets instead), so alloc-id namespaces minted under
  // any earlier epoch still name a live bucket.
  if (modulo < modulo_)
    return err(Errc::invalid_argument, "membership modulo regression");
  epoch_ = m.epoch;
  partitions_ = m.partitions.size();
  modulo_ = modulo;
  home_ = std::move(home);
  replicas_ = m.partitions;
  return ok();
}

uint64_t PartitionMap::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

std::vector<Addr> PartitionMap::replicas(size_t p) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (p >= replicas_.size()) return {};
  return replicas_[p];
}

Result<size_t> PartitionMap::index_for_request(const DiscRequest& req) const {
  switch (req.op) {
    case DiscOp::register_impl:
      if (!req.entry) return err(Errc::invalid_argument, "register without entry");
      return index_for_type(req.entry->type);
    case DiscOp::unregister_impl:
    case DiscOp::query:
      return index_for_type(req.type);
    case DiscOp::query_types: {
      if (req.types.empty())
        return err(Errc::invalid_argument, "query_types without types");
      size_t idx = index_for_type(req.types[0]);
      for (const auto& t : req.types)
        if (index_for_type(t) != idx)
          return err(Errc::invalid_argument,
                     "query_types spans partitions: types " + req.types[0] +
                         " and " + t + " hash to different partitions");
      return idx;
    }
    case DiscOp::set_pool:
      // execute_request carries the pool name in req.type.
      return index_for_pool(req.type);
    case DiscOp::acquire: {
      if (req.resources.empty())
        return err(Errc::invalid_argument, "acquire without resources");
      size_t idx = index_for_pool(req.resources[0].pool);
      for (const auto& r : req.resources)
        if (index_for_pool(r.pool) != idx)
          return err(Errc::invalid_argument,
                     "acquire spans partitions: pools " + req.resources[0].pool +
                         " and " + r.pool + " hash to different partitions");
      return idx;
    }
    case DiscOp::release:
      return index_for_alloc_routed(req.alloc_id);
    case DiscOp::heartbeat:
      return err(Errc::invalid_argument, "heartbeat has no single partition");
  }
  return err(Errc::invalid_argument, "unroutable discovery op");
}

}  // namespace bertha
