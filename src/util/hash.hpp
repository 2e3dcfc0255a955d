// Non-cryptographic hashing used by the sharding chunnel and data structures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace bertha {

// FNV-1a, 64-bit. Stable across platforms: sharding decisions made by a
// client must match those a server-side dispatcher would make.
uint64_t fnv1a64(BytesView data);
uint64_t fnv1a64(std::string_view s);

// A stronger finalizer (splitmix-style avalanche) for combining values.
// Inline: the encrypt chunnel's keystream calls it once per 8 bytes.
inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;  // avoid the all-zero fixed point
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t hash_combine(uint64_t a, uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace bertha
