// Catalogue partitioning for the sharded discovery control plane.
//
// The catalogue is partitioned by *scope key*: impl entries by their
// chunnel type, resource pools by pool name. Steering reuses the shard
// chunnel's consistent-hash step (shard_pick, src/chunnels/shard.hpp) so
// the client-side router and any future in-network steer agree byte-for-
// byte on where a key lives.
//
// Steering is epoch-stamped and *mutable*: a key hashes to a bucket
// under the steering modulo (shard_pick(key, modulo)), and a home table
// maps buckets to partitions. In the steady state the table is the
// identity (bucket i lives on partition i % count); online
// repartitioning (src/control/reshard.hpp) re-homes individual buckets
// between partitions and pushes the new table with a bumped epoch.
// Because x % N == (x % 2N) % N, the modulo only ever grows — a split
// doubles it, a merge rewrites the home table back to the aliased
// identity — so no key ever changes bucket under the modulo that
// defined a migration.
//
// Allocation ids route themselves: each partition mints ids namespaced
// with its own *bucket* in the high bits (DiscoveryState::
// set_alloc_namespace), so release() needs no key — the id names its
// bucket, and the home table names the bucket's current partition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/discovery_wire.hpp"
#include "net/addr.hpp"

namespace bertha {

// Versioned cluster configuration: which replicas (RPC addresses) serve
// each partition, stamped with a monotonically increasing epoch so a
// client can never regress onto a stale view, plus the bucket steering
// (modulo + home table) minted by the reshard coordinator. modulo == 0
// / empty home mean "identity over partitions.size()".
struct ClusterMembership {
  uint64_t epoch = 0;
  std::vector<std::vector<Addr>> partitions;  // [partition] -> replica RPC addrs
  uint64_t modulo = 0;         // steering modulo (0 => partitions.size())
  std::vector<uint32_t> home;  // [bucket] -> partition (empty => identity)
};

class PartitionMap {
 public:
  explicit PartitionMap(size_t partitions);

  size_t partitions() const;
  // Current steering modulo (>= partitions(), grows on split).
  uint64_t modulo() const;

  // Adopt a newer cluster config. Rejects a stale or equal epoch
  // (already applied — callers treat it as a no-op failure), malformed
  // steering, and a modulo regression (buckets must stay stable).
  Result<void> apply(const ClusterMembership& m);
  uint64_t epoch() const;
  // Replica RPC addresses of partition p under the current config
  // (empty until the first apply()).
  std::vector<Addr> replicas(size_t p) const;

  // Impl entries: partition of a chunnel type.
  size_t index_for_type(const std::string& type) const;
  // Resource pools: partition of a pool name.
  size_t index_for_pool(const std::string& pool) const;

  // Bucket encoded in an allocation id minted by this cluster. Under
  // identity steering this IS the partition; under re-homed steering
  // use index_for_alloc_routed.
  static size_t index_for_alloc(uint64_t alloc_id);
  // Partition currently homing an allocation id's bucket.
  Result<size_t> index_for_alloc_routed(uint64_t alloc_id) const;

  // Routes a decoded request to its partition. Multi-pool acquires must
  // resolve to one partition (admission is atomic only within a
  // partition), and so must a query_types batch (ClusterDiscovery splits
  // one per partition); invalid_argument otherwise. release routes by the
  // id's bucket through the home table; heartbeat callers should fan out
  // — this routes the single-partition ops.
  Result<size_t> index_for_request(const DiscRequest& req) const;

 private:
  size_t home_of_locked(uint64_t bucket) const { return home_[bucket]; }

  mutable std::mutex mu_;
  size_t partitions_;
  uint64_t modulo_;
  std::vector<uint32_t> home_;  // size modulo_, entries < partitions_
  uint64_t epoch_ = 0;
  std::vector<std::vector<Addr>> replicas_;
};

}  // namespace bertha
