// TimerWheel: a hashed timer wheel for per-connection deadlines.
//
// The scale problem it solves: keepalive beaters, lease renewals, and
// sweep timers used to be one thread each, so a listener with 100k idle
// connections carried 100k parked threads. The wheel holds every armed
// timer in slots_ hash buckets keyed by (deadline / tick) and a single
// tick — the reactor's, in the datapath runtime — fires everything due,
// so an idle connection costs one wheel entry and zero threads.
//
// Semantics:
//  - Delays round UP to the next tick boundary and never fire early; a
//    zero delay fires on the next tick, not inline.
//  - Callbacks run on the driver thread (or inside advance() in manual
//    mode) and must not block: a slow callback stalls every other timer.
//    Blocking work belongs on its own thread, signalled from the timer.
//  - cancel() returns true iff it prevented a future fire. A timer whose
//    callback is mid-flight cannot be un-fired; cancel_sync() addition-
//    ally waits for that in-flight callback (self-cancel from inside the
//    callback is detected and does not deadlock).
//  - Periodic timers re-arm at fixed period multiples of their original
//    deadline and keep their id across fires, so cancel works forever.
//
// Deterministic-clock mode (Options.manual): no driver thread is
// started and virtual time only moves when advance() is called — the
// unit-test override the ISSUE's wheel suite runs on. Thread mode uses
// the process steady clock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "trace/metrics.hpp"
#include "util/clock.hpp"

namespace bertha {

class TimerWheel {
 public:
  struct Options {
    Duration tick = ms(10);  // granularity; delays round up to this
    size_t slots = 512;      // rounded up to a power of two
    bool manual = false;     // no driver thread; tests call advance()
  };

  using Callback = std::function<void()>;

  static std::shared_ptr<TimerWheel> create(Options opts);
  static std::shared_ptr<TimerWheel> create() { return create(Options{}); }
  ~TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // One-shot timer ~delay from now (rounded up to the tick). Returns an
  // id valid for cancel() until after the callback finishes. Never 0.
  uint64_t schedule(Duration delay, Callback cb);

  // Fires every `period` (first fire one period from now) until
  // cancelled. The id stays stable across fires.
  uint64_t schedule_periodic(Duration period, Callback cb);

  // True iff the timer will no longer fire and its callback was not and
  // will not be invoked (for periodic timers: no further invocations;
  // returns true even if past fires happened). False for unknown ids.
  bool cancel(uint64_t id);

  // cancel(), then wait until any in-flight invocation of this timer's
  // callback has returned. Safe to call from the callback itself (the
  // wait is skipped; the current invocation is the last).
  void cancel_sync(uint64_t id);

  // Manual mode: move virtual time forward and fire everything due.
  // Thread mode: no-op (the driver owns the clock).
  void advance(Duration d);

  // Stops the driver thread (idempotent; destructor calls it). Armed
  // timers stop firing; cancel() still works.
  void stop();

  struct Stats {
    uint64_t scheduled = 0;
    uint64_t fired = 0;
    uint64_t cancelled = 0;
    uint64_t ticks = 0;      // slots processed
    uint64_t armed = 0;      // currently armed timers
    uint64_t max_fired_in_tick = 0;  // largest single-tick expiry batch
  };
  Stats stats() const;

  Duration tick() const { return opts_.tick; }

 private:
  enum State : int { kArmed = 0, kFiring = 1, kDone = 2, kCancelled = 3 };

  struct Entry {
    uint64_t id = 0;
    int64_t deadline_ns = 0;
    uint64_t deadline_tick = 0;
    int64_t period_ns = 0;  // 0: one-shot
    Callback cb;
    std::atomic<int> state{kArmed};
    // Set by cancel() while the callback is in flight: suppresses the
    // periodic re-arm after the callback returns.
    std::atomic<bool> cancel_requested{false};
  };
  using EntryPtr = std::shared_ptr<Entry>;

  struct Slot {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, EntryPtr> entries;
  };

  explicit TimerWheel(Options opts);
  uint64_t arm(Duration delay, int64_t period_ns, Callback cb);
  void insert(const EntryPtr& e);
  int64_t now_ns() const;
  void advance_to(int64_t now);
  void process_slot(Slot& slot, uint64_t cutoff_tick,
                    std::vector<EntryPtr>& due);
  void fire(std::vector<EntryPtr>& due);
  void driver_loop();

  Options opts_;
  int64_t tick_ns_;
  int64_t base_ns_ = 0;  // steady-clock origin in thread mode
  size_t mask_;
  std::vector<Slot> slots_;

  std::atomic<uint64_t> next_id_{1};
  // id -> entry, for cancel(). Sharded by id so schedule/cancel from
  // many connections do not serialize on one lock.
  std::vector<Slot> index_;

  // Serializes advancers (the driver thread, or tests in manual mode).
  // Callbacks therefore run with advance_mu_ held: they may schedule()
  // and cancel() freely but must not call advance() re-entrantly.
  std::mutex advance_mu_;
  // Written only under advance_mu_; read racily by arm() to clamp new
  // deadlines into the future (a stale read only delays by one tick).
  std::atomic<uint64_t> last_tick_{0};
  std::atomic<int64_t> manual_now_{0};
  std::vector<EntryPtr> due_scratch_;  // guarded by advance_mu_

  // cancel_sync() waits here for in-flight callbacks.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<std::thread::id> firing_thread_{};

  std::atomic<uint64_t> armed_{0};
  std::atomic<uint64_t> n_scheduled_{0};
  std::atomic<uint64_t> n_fired_{0};
  std::atomic<uint64_t> n_cancelled_{0};
  std::atomic<uint64_t> n_ticks_{0};
  std::atomic<uint64_t> max_batch_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;  // guarded by stop_mu_
  std::mutex join_mu_;     // serializes concurrent stop() joins
  std::thread driver_;
};

using TimerWheelPtr = std::shared_ptr<TimerWheel>;

// Folds scale.wheel.* counters into the registry (provider style: the
// wheel's stats() remains the source of truth).
void attach_timer_wheel_provider(MetricsRegistry& m, TimerWheelPtr wheel);

}  // namespace bertha
