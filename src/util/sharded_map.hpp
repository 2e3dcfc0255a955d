// ShardedMap: a lock-striped hash map for hot-path token routing.
//
// The listener's per-datagram demux and the client group's route() both
// do token -> connection lookups on every received frame; a single
// mutex around one unordered_map serializes every rx worker at 100k+
// connections. Striping the table into S shards keyed by a mixed token
// hash bounds contention to 1/S and keeps each shard's table (and its
// rehash pauses) small.
//
// The key is always a 64-bit token here. std::hash<uint64_t> is the
// identity on libstdc++ and tokens are not uniformly distributed, so
// the stripe selector runs the token through the mix64 finalizer.
//
// Lock ordering: callers that hold a coarser structure lock (e.g. the
// listener's mu_) may take a shard lock under it, never the reverse.
// for_each/size take the shard locks one at a time, so they see a
// consistent per-shard (not global) snapshot — fine for sweeps and
// stats, which is all they serve.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/hash.hpp"

namespace bertha {

template <typename V>
class ShardedMap {
 public:
  explicit ShardedMap(size_t shards = 16) {
    size_t n = 1;
    while (n < shards) n <<= 1;
    mask_ = n - 1;
    shards_ = std::vector<Shard>(n);
  }

  // Inserts or overwrites.
  void put(uint64_t key, V value) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lk(s.mu);
    s.map[key] = std::move(value);
  }

  // Insert only if absent; returns false (leaving the map unchanged)
  // when the key already exists.
  bool put_if_absent(uint64_t key, V value) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lk(s.mu);
    return s.map.emplace(key, std::move(value)).second;
  }

  // Copy-out lookup: returns true and writes *out when present. The
  // value is copied under the shard lock (values are shared_ptr /
  // weak_ptr here, so a copy is a refcount bump).
  bool get(uint64_t key, V* out) const {
    const Shard& s = shard(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    *out = it->second;
    return true;
  }

  bool contains(uint64_t key) const {
    const Shard& s = shard(key);
    std::lock_guard<std::mutex> lk(s.mu);
    return s.map.count(key) != 0;
  }

  bool erase(uint64_t key) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lk(s.mu);
    return s.map.erase(key) != 0;
  }

  // Removes and returns the value when present (erase + get in one
  // shard-lock hold, for teardown paths that need the victim).
  bool take(uint64_t key, V* out) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    *out = std::move(it->second);
    s.map.erase(it);
    return true;
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s.mu);
      n += s.map.size();
    }
    return n;
  }

  // Visits every entry, one shard lock at a time. `f` must not call
  // back into this map (self-deadlock on the held shard).
  void for_each(const std::function<void(uint64_t, const V&)>& f) const {
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s.mu);
      for (const auto& [k, v] : s.map) f(k, v);
    }
  }

  void clear() {
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s.mu);
      s.map.clear();
    }
  }

  size_t shard_count() const { return mask_ + 1; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, V> map;
  };

  Shard& shard(uint64_t key) { return shards_[mix64(key) & mask_]; }
  const Shard& shard(uint64_t key) const {
    return shards_[mix64(key) & mask_];
  }

  size_t mask_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace bertha
