// What the benchmark measures about itself and the process it runs in:
// heap allocations, CPU time and context switches, latency samples, and
// spans. Nothing here calls into the library.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

// Steady-clock nanoseconds.
int64_t now_ns();

// Heap allocations made so far by all threads of the process. The
// benchmark binary replaces the global operator new with one that counts
// into a per-thread slot, so counting costs no shared cache line.
uint64_t allocs_total();

// Process-wide counters at one instant; subtract two to get a window.
struct ProcCounters {
  int64_t wall_ns = 0;
  double cpu_us = 0;  // user + sys of every thread (getrusage)
  double vcsw = 0;    // voluntary context switches
  double ivcsw = 0;   // involuntary context switches
  double allocs = 0;

  static ProcCounters read();
  ProcCounters operator-(const ProcCounters& earlier) const;
  ProcCounters& operator+=(const ProcCounters& window);
  double wall_s() const { return static_cast<double>(wall_ns) / 1e9; }
};

// Threads of this process right now (/proc/self/status).
int proc_threads();
// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

// A uniform sample of at most `cap` values (Algorithm R). The storage is
// allocated and touched up front so that the benchmark's own memory does
// not grow with the throughput it measures.
class Reservoir {
 public:
  Reservoir(size_t cap, uint64_t seed);
  void add(double v);
  void clear() { seen_ = 0; }
  uint64_t seen() const { return seen_; }
  size_t size() const { return seen_ < cap_ ? seen_ : cap_; }
  const float* data() const { return vals_.data(); }

 private:
  size_t cap_;
  uint64_t seen_ = 0;
  uint64_t rng_;
  std::vector<float> vals_;
};

// The values of several reservoirs as one sample, each reservoir
// contributing in proportion to how many values it saw.
std::vector<float> merge_samples(const std::vector<const Reservoir*>& rs);
// Quantile q in [0,1] of `v` (reorders v). NaN when v is empty.
double quantile(std::vector<float>& v, double q);
double median(std::vector<double> v);

// --- spans ---------------------------------------------------------------
//
// Spans are kept in per-thread buffers and written as Chrome trace JSON
// when the run ends. Only operations whose id is a multiple of kStride
// are recorded, and each buffer stops at kCap spans, so a traced run
// costs a bounded amount of memory and disk.
struct Span {
  const char* name;
  const char* cat;  // the phase the span belongs to
  int64_t t0, t1;   // ns, steady clock
  uint64_t op;      // operation id; spans of one operation share it
  uint64_t id;
  uint64_t parent;  // 0: no parent
  uint32_t tid;
};

class Tracer {
 public:
  static constexpr uint64_t kStride = 64;
  static constexpr size_t kCap = 8192;

  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_phase(const char* cat) { cat_.store(cat, std::memory_order_relaxed); }
  bool sampled(uint64_t op) const { return on() && op % kStride == 0; }

  uint64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Records one span on the calling thread's buffer.
  void record(const char* name, int64_t t0, int64_t t1, uint64_t op,
              uint64_t id, uint64_t parent = 0);

  // Writes every buffered span; call after all recording threads joined.
  bool write_chrome_json(const std::string& path) const;
  size_t spans() const;

 private:
  struct Buffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
  };
  Buffer* local_buffer();

  std::atomic<bool> on_{false};
  std::atomic<const char*> cat_{"main"};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

Tracer& tracer();

}  // namespace bench
