// Timer wheel unit suite (deterministic-clock mode unless noted).
//
// The wheel replaces per-connection beater threads, so its edge cases
// are connection-liveness edge cases: a timer that fires one tick early
// is a spurious keepalive, one that fires late past dead_after is a
// false dead-peer verdict, and a cancel that loses the race with fire
// is a heartbeat on a closed connection.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "io/timer_wheel.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BERTHA_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define BERTHA_TSAN 1
#endif

namespace bertha {
namespace {

TimerWheelPtr manual_wheel(size_t slots = 16) {
  TimerWheel::Options o;
  o.tick = ms(10);
  o.slots = slots;
  o.manual = true;
  return TimerWheel::create(o);
}

TEST(TimerWheelTest, DelayRoundsUpToTickAndNeverFiresEarly) {
  auto w = manual_wheel();
  std::atomic<int> fired{0};
  w->schedule(ms(25), [&] { fired++; });  // rounds up to 30ms (tick 3)
  w->advance(ms(10));
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 0) << "fired before the rounded-up deadline";
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 1);
  w->advance(ms(100));
  EXPECT_EQ(fired.load(), 1) << "one-shot fired twice";
}

TEST(TimerWheelTest, ExactTickBoundaryFiresOnThatTick) {
  auto w = manual_wheel();
  std::atomic<int> fired{0};
  w->schedule(ms(20), [&] { fired++; });
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 0);
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 1);
}

TEST(TimerWheelTest, ZeroDelayFiresOnNextTickNotInline) {
  auto w = manual_wheel();
  std::atomic<int> fired{0};
  w->schedule(Duration::zero(), [&] { fired++; });
  EXPECT_EQ(fired.load(), 0) << "zero delay must not fire inside schedule()";
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 1);
}

TEST(TimerWheelTest, ScheduleAfterAdvanceClampsIntoTheFuture) {
  auto w = manual_wheel();
  w->advance(ms(50));
  std::atomic<int> fired{0};
  w->schedule(Duration::zero(), [&] { fired++; });
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 1);
}

TEST(TimerWheelTest, LongDelaySurvivesWheelRevolutions) {
  // 8 slots x 10ms = one revolution per 80ms; a 1s timer sits through
  // 12 revolutions of its slot being visited without firing.
  auto w = manual_wheel(8);
  std::atomic<int> fired{0};
  w->schedule(ms(1000), [&] { fired++; });
  for (int t = 10; t <= 990; t += 10) w->advance(ms(10));
  EXPECT_EQ(fired.load(), 0) << "fired a revolution early";
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 1);
}

TEST(TimerWheelTest, BigJumpFiresEverythingInOnePass) {
  auto w = manual_wheel(8);
  std::atomic<int> fired{0};
  for (int i = 1; i <= 64; i++)
    w->schedule(ms(10 * i), [&] { fired++; });
  // One advance spanning many revolutions takes the single-pass path;
  // every timer with a deadline inside the span fires exactly once.
  w->advance(seconds(10));
  EXPECT_EQ(fired.load(), 64);
  EXPECT_EQ(w->stats().armed, 0u);
}

TEST(TimerWheelTest, PeriodicReArmsAndSkipsMissedPeriods) {
  auto w = manual_wheel();
  std::atomic<int> fired{0};
  uint64_t id = w->schedule_periodic(ms(10), [&] { fired++; });
  w->advance(ms(10));
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 2);
  // A coarse advance spanning 10 periods is one late tick, not a burst
  // of 10 catch-up beats (keepalives must not storm after a stall).
  w->advance(ms(100));
  EXPECT_EQ(fired.load(), 3);
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 4);
  EXPECT_TRUE(w->cancel(id)) << "periodic id must stay cancellable forever";
  w->advance(ms(100));
  EXPECT_EQ(fired.load(), 4);
}

TEST(TimerWheelTest, CancelBeforeFirePreventsCallback) {
  auto w = manual_wheel();
  std::atomic<int> fired{0};
  uint64_t id = w->schedule(ms(30), [&] { fired++; });
  EXPECT_TRUE(w->cancel(id));
  EXPECT_FALSE(w->cancel(id)) << "second cancel of the same id";
  w->advance(ms(100));
  EXPECT_EQ(fired.load(), 0);
  auto s = w->stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.fired, 0u);
  EXPECT_EQ(s.armed, 0u);
}

TEST(TimerWheelTest, CancelAfterFireReturnsFalse) {
  auto w = manual_wheel();
  uint64_t id = w->schedule(ms(10), [] {});
  w->advance(ms(10));
  EXPECT_FALSE(w->cancel(id));
  EXPECT_FALSE(w->cancel(12345)) << "unknown id";
}

TEST(TimerWheelTest, MassExpiryInOneTick) {
#ifdef BERTHA_TSAN
  constexpr int kTimers = 2000;
#else
  constexpr int kTimers = 50000;
#endif
  TimerWheel::Options o;
  o.tick = ms(10);
  o.slots = 64;  // far fewer slots than timers: every bucket collides
  o.manual = true;
  auto w = TimerWheel::create(o);
  std::atomic<int> fired{0};
  for (int i = 0; i < kTimers; i++)
    w->schedule(ms(10), [&] { fired++; });
  EXPECT_EQ(w->stats().armed, static_cast<uint64_t>(kTimers));
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), kTimers);
  auto s = w->stats();
  EXPECT_EQ(s.fired, static_cast<uint64_t>(kTimers));
  EXPECT_EQ(s.armed, 0u);
  EXPECT_EQ(s.max_fired_in_tick, static_cast<uint64_t>(kTimers));
}

TEST(TimerWheelTest, CallbackMayScheduleAndCancel) {
  auto w = manual_wheel();
  std::atomic<int> chained{0};
  w->schedule(ms(10), [&] {
    w->schedule(ms(10), [&] { chained++; });
  });
  w->advance(ms(10));
  EXPECT_EQ(chained.load(), 0);
  w->advance(ms(10));
  EXPECT_EQ(chained.load(), 1);
}

TEST(TimerWheelTest, SelfCancelFromCallbackDoesNotDeadlock) {
  auto w = manual_wheel();
  std::atomic<int> fired{0};
  auto id = std::make_shared<uint64_t>(0);
  *id = w->schedule_periodic(ms(10), [&, id] {
    fired++;
    w->cancel_sync(*id);  // must detect "cancelling myself" and not wait
  });
  w->advance(ms(10));
  EXPECT_EQ(fired.load(), 1);
  w->advance(ms(100));
  EXPECT_EQ(fired.load(), 1) << "self-cancel did not stop the periodic";
}

// The cancel-vs-fire race: an advancing thread fires one-shot timers
// while the main thread cancels them at random points. The invariant —
// cancel() returned true XOR the callback ran — is exactly "no
// heartbeat is sent on a connection whose close() saw cancel succeed".
TEST(TimerWheelTest, CancelVsFireRaceIsExactlyOnce) {
#ifdef BERTHA_TSAN
  constexpr int kRounds = 300;
#else
  constexpr int kRounds = 2000;
#endif
  auto w = manual_wheel();
  std::atomic<bool> stop{false};
  std::thread driver([&] {
    while (!stop.load(std::memory_order_relaxed)) w->advance(ms(10));
  });
  for (int i = 0; i < kRounds; i++) {
    auto fired = std::make_shared<std::atomic<bool>>(false);
    uint64_t id = w->schedule(Duration::zero(), [fired] {
      fired->store(true, std::memory_order_relaxed);
    });
    if (i % 3 == 0) std::this_thread::yield();
    bool cancelled = w->cancel(id);
    w->cancel_sync(id);  // drain any in-flight invocation
    bool ran = fired->load(std::memory_order_relaxed);
    EXPECT_NE(cancelled, ran)
        << "round " << i << ": cancelled=" << cancelled << " ran=" << ran;
  }
  stop.store(true);
  driver.join();
}

// cancel_sync must not return while the callback is still running on
// the tick thread (close() relies on this to tear down the connection
// under the callback's feet safely).
TEST(TimerWheelTest, CancelSyncWaitsForInFlightCallback) {
  auto w = manual_wheel();
  std::atomic<int> seq{0};
  std::atomic<int> cb_entered{0};
  std::atomic<bool> release{false};
  std::atomic<int> cb_done_at{0};
  uint64_t id = w->schedule(ms(10), [&] {
    cb_entered.store(1);
    while (!release.load()) std::this_thread::yield();
    cb_done_at.store(++seq);
  });
  std::thread driver([&] { w->advance(ms(10)); });
  while (!cb_entered.load()) std::this_thread::yield();
  std::thread canceller([&] { w->cancel_sync(id); });
  // Give cancel_sync a moment to (incorrectly) return early.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);
  canceller.join();
  int sync_at = ++seq;
  driver.join();
  EXPECT_GT(cb_done_at.load(), 0);
  EXPECT_LT(cb_done_at.load(), sync_at)
      << "cancel_sync returned before the in-flight callback finished";
}

TEST(TimerWheelTest, ThreadModeFiresOnRealClock) {
  TimerWheel::Options o;
  o.tick = ms(1);
  auto w = TimerWheel::create(o);
  std::atomic<int> fired{0};
  w->schedule(ms(5), [&] { fired++; });
  for (int i = 0; i < 2000 && fired.load() == 0; i++)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fired.load(), 1);
  w->stop();
  w->stop();  // idempotent
}

TEST(TimerWheelTest, StopPreventsFurtherFires) {
  TimerWheel::Options o;
  o.tick = ms(1);
  auto w = TimerWheel::create(o);
  std::atomic<int> fired{0};
  uint64_t id = w->schedule_periodic(ms(200), [&] { fired++; });
  w->stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), 0);
  EXPECT_TRUE(w->cancel(id)) << "cancel must still work after stop";
}

TEST(TimerWheelTest, MetricsProviderExportsCounters) {
  auto m = std::make_shared<MetricsRegistry>();
  TimerWheel::Options o;
  o.tick = ms(10);
  o.manual = true;
  auto w = TimerWheel::create(o);
  attach_timer_wheel_provider(*m, w);
  uint64_t id = w->schedule(ms(10), [] {});
  w->schedule(ms(10), [] {});
  (void)w->cancel(id);
  w->advance(ms(10));
  auto snap = m->snapshot();
  EXPECT_EQ(snap.counters["scale.wheel.scheduled"], 2u);
  EXPECT_EQ(snap.counters["scale.wheel.fired"], 1u);
  EXPECT_EQ(snap.counters["scale.wheel.cancelled"], 1u);
  EXPECT_EQ(snap.counters["scale.wheel.armed"], 0u);
  EXPECT_GE(snap.counters["scale.wheel.ticks"], 1u);
}

}  // namespace
}  // namespace bertha
