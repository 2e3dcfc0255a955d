#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace bertha {

namespace {

constexpr int kSubBits = Histogram::kSubBits;
constexpr uint64_t kSub = uint64_t{1} << kSubBits;

size_t bucket_of(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  const int shift = 63 - std::countl_zero(v) - kSubBits;
  return (static_cast<size_t>(shift + 1) << kSubBits) |
         static_cast<size_t>((v >> shift) & (kSub - 1));
}

// Midpoint of bucket i's values [lo, lo + width).
double bucket_mid(size_t i) {
  if (i < kSub) return static_cast<double>(i);
  const int shift = static_cast<int>(i >> kSubBits) - 1;
  const uint64_t lo = (kSub | (i & (kSub - 1))) << shift;
  const uint64_t width = uint64_t{1} << shift;
  return static_cast<double>(lo) + static_cast<double>(width - 1) / 2;
}

void lower_to(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void raise_to(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string Histogram::Summary::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.2f p50=%.2f p99=%.2f p99.9=%.2f max=%.2f",
                static_cast<unsigned long long>(count), mean, p50, p99, p999,
                max);
  return buf;
}

void Histogram::record(uint64_t v) {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  lower_to(min_, v);
  raise_to(max_, v);
}

void Histogram::merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; i++) {
    uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  lower_to(min_, other.min_.load(std::memory_order_relaxed));
  raise_to(max_, other.max_.load(std::memory_order_relaxed));
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

void Histogram::quantiles(const double* qs, double* out, size_t k,
                          uint64_t n) const {
  const double nd = static_cast<double>(n);
  auto rank = [&](double q) {
    double r = std::ceil(q / 100 * nd);
    return r < 1 ? uint64_t{1} : r >= nd ? n : static_cast<uint64_t>(r);
  };
  // Buckets only grow, so the walk reaches every rank <= n even while
  // other threads record.
  size_t j = 0;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets && j < k; i++) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    while (j < k && seen >= rank(qs[j])) out[j++] = bucket_mid(i);
  }
  // std::min/max rather than std::clamp: a concurrent first record may
  // not have lowered min_ yet.
  const double lo = static_cast<double>(min_.load(std::memory_order_relaxed));
  const double hi = static_cast<double>(max_.load(std::memory_order_relaxed));
  for (size_t i = 0; i < k; i++) out[i] = std::min(std::max(out[i], lo), hi);
}

double Histogram::percentile(double q) const {
  uint64_t n = count();
  if (n == 0) return 0;
  double v = 0;
  quantiles(&q, &v, 1, n);
  return v;
}

Histogram::Summary Histogram::summarize(double unit) const {
  static constexpr double kQ[] = {5, 25, 50, 75, 95, 99, 99.9};
  Summary s;
  s.count = count();
  if (s.count == 0) return s;
  double v[std::size(kQ)] = {};
  quantiles(kQ, v, std::size(kQ), s.count);
  s.mean = static_cast<double>(sum_.load(std::memory_order_relaxed)) /
           static_cast<double>(s.count) / unit;
  s.min = static_cast<double>(min_.load(std::memory_order_relaxed)) / unit;
  s.p5 = v[0] / unit;
  s.p25 = v[1] / unit;
  s.p50 = v[2] / unit;
  s.p75 = v[3] / unit;
  s.p95 = v[4] / unit;
  s.p99 = v[5] / unit;
  s.p999 = v[6] / unit;
  s.max = static_cast<double>(max_.load(std::memory_order_relaxed)) / unit;
  return s;
}

}  // namespace bertha
