#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

// --- counting allocator ----------------------------------------------------
//
// Each thread counts into its own cache line; allocs_total() sums them.
// Slots are never reused, so counts of exited threads stay in the sum.
// Threads past the last slot share one atomically updated overflow slot.

namespace {

struct alignas(64) AllocSlot {
  std::atomic<uint64_t> n{0};
};
constexpr int kAllocSlots = 1024;
AllocSlot g_alloc_slots[kAllocSlots];
AllocSlot g_alloc_overflow;
std::atomic<int> g_alloc_next{0};
thread_local AllocSlot* tl_alloc_slot = nullptr;

inline void count_alloc() {
  AllocSlot* s = tl_alloc_slot;
  if (s == nullptr) {
    int i = g_alloc_next.fetch_add(1, std::memory_order_relaxed);
    s = i < kAllocSlots ? &g_alloc_slots[i] : &g_alloc_overflow;
    tl_alloc_slot = s;
  }
  if (s == &g_alloc_overflow) {
    s->n.fetch_add(1, std::memory_order_relaxed);
  } else {
    s->n.store(s->n.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
}

void* counted_alloc(size_t n) {
  count_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(size_t n, std::align_val_t al) {
  count_alloc();
  size_t a = static_cast<size_t>(al);
  size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t n) { return counted_alloc(n); }
void* operator new[](size_t n) { return counted_alloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t allocs_total() {
  uint64_t sum = g_alloc_overflow.n.load(std::memory_order_relaxed);
  int used = std::min(g_alloc_next.load(std::memory_order_relaxed), kAllocSlots);
  for (int i = 0; i < used; i++)
    sum += g_alloc_slots[i].n.load(std::memory_order_relaxed);
  return sum;
}

ProcCounters ProcCounters::read() {
  ProcCounters c;
  c.wall_ns = now_ns();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  c.cpu_us = us(ru.ru_utime) + us(ru.ru_stime);
  c.vcsw = static_cast<double>(ru.ru_nvcsw);
  c.ivcsw = static_cast<double>(ru.ru_nivcsw);
  c.allocs = static_cast<double>(allocs_total());
  return c;
}

ProcCounters ProcCounters::operator-(const ProcCounters& e) const {
  ProcCounters d;
  d.wall_ns = wall_ns - e.wall_ns;
  d.cpu_us = cpu_us - e.cpu_us;
  d.vcsw = vcsw - e.vcsw;
  d.ivcsw = ivcsw - e.ivcsw;
  d.allocs = allocs - e.allocs;
  return d;
}

ProcCounters& ProcCounters::operator+=(const ProcCounters& w) {
  wall_ns += w.wall_ns;
  cpu_us += w.cpu_us;
  vcsw += w.vcsw;
  ivcsw += w.ivcsw;
  allocs += w.allocs;
  return *this;
}

int proc_threads() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = std::atoi(line + 8);
      break;
    }
  }
  std::fclose(f);
  return threads;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- samples ----------------------------------------------------------------

namespace {
uint64_t splitmix(uint64_t& s) {
  uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Reservoir::Reservoir(size_t cap, uint64_t seed)
    : cap_(cap), rng_(seed), vals_(cap, 0.0f) {}

void Reservoir::add(double v) {
  uint64_t i = seen_++;
  if (i < cap_) {
    vals_[i] = static_cast<float>(v);
    return;
  }
  uint64_t j = splitmix(rng_) % seen_;
  if (j < cap_) vals_[j] = static_cast<float>(v);
}

std::vector<float> merge_samples(const std::vector<const Reservoir*>& rs) {
  // Keep every reservoir at the sampling rate of the most thinned one.
  double rate = 1.0;
  for (const Reservoir* r : rs)
    if (r->seen() > 0)
      rate = std::min(rate, static_cast<double>(r->size()) /
                                static_cast<double>(r->seen()));
  std::vector<float> out;
  for (const Reservoir* r : rs) {
    size_t take = std::min(
        r->size(), static_cast<size_t>(std::llround(
                       rate * static_cast<double>(r->seen()))));
    out.insert(out.end(), r->data(), r->data() + take);
  }
  return out;
}

double quantile(std::vector<float>& v, double q) {
  if (v.empty()) return std::nan("");
  size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// --- spans ------------------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Buffer* Tracer::local_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto b = std::make_unique<Buffer>();
    b->spans.reserve(kCap);
    std::lock_guard<std::mutex> lk(mu_);
    b->tid = static_cast<uint32_t>(buffers_.size() + 1);
    buf = b.get();
    buffers_.push_back(std::move(b));
  }
  return buf;
}

void Tracer::record(const char* name, int64_t t0, int64_t t1, uint64_t op,
                    uint64_t id, uint64_t parent) {
  Buffer* b = local_buffer();
  if (b->spans.size() >= kCap) return;
  b->spans.push_back(Span{name, cat_.load(std::memory_order_relaxed), t0, t1,
                          op, id, parent, b->tid});
}

size_t Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lk(mu_);
  int64_t origin = INT64_MAX;
  for (const auto& b : buffers_)
    for (const Span& s : b->spans) origin = std::min(origin, s.t0);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"id\":%llu,\"parent\":%llu}}",
                   first ? "" : ",", s.name, s.cat, s.tid,
                   static_cast<double>(s.t0 - origin) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3,
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench
