#include "util/hash.hpp"

namespace bertha {

namespace {
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

uint64_t fnv1a64(BytesView data) {
  uint64_t h = kFnvOffset;
  for (uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t fnv1a64(std::string_view s) {
  uint64_t h = kFnvOffset;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace bertha
