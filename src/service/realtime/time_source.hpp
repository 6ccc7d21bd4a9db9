// Time injection for the real-time daemon path (DESIGN.md section 14).
//
// Everything in src/service/realtime/ asks *one* object what time it is: a
// TimeSource, which extends the paper's clk::Clock mapping with a now()
// query, a cooperative sleep, and a timed wait on a 32-bit word that another
// thread can cut short (the consumers' doorbell).  Two implementations
// exist:
//
//   - MonotonicClock (monotonic_clock.hpp): the only wall-clock source in
//     the tree (detlint R1 allow-list is confined to that one file), used
//     by chenfd_rtd and the throughput bench;
//   - VirtualTimeSource (below): a manually advanced clock for the replay
//     harness and tests, so every overload/stall/restart path the daemon
//     has is drivable in deterministic virtual time under ctest and TSan.
//
// The engine never calls std::chrono directly; swapping the source is the
// whole difference between a bit-reproducible replay and a live daemon.

#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "clock/clock.hpp"
#include "common/check.hpp"
#include "common/time.hpp"

namespace chenfd::rt {

/// A clk::Clock that also knows the current instant and can block a caller
/// until (approximately) a later one.  now() must be monotone
/// non-decreasing across calls — consumers stamp arrivals with it and the
/// fleet engine requires time to move forward.
class TimeSource : public clk::Clock {
 public:
  [[nodiscard]] virtual TimePoint now() const = 0;

  /// Blocks the calling thread for roughly `d` (a scheduling hint, not a
  /// precision timer).  Virtual implementations may return immediately.
  virtual void sleep_for(Duration d) const = 0;

  /// Blocks while `word` holds `expected`, for at most `timeout`, or until
  /// wake() is called on `word`.  The value comparison and the block are
  /// one atomic step, so a store-then-wake() that lands before the block
  /// is never lost.  Spurious returns are allowed; callers re-check.
  virtual void wait(const std::atomic<std::uint32_t>& word,
                    std::uint32_t expected, Duration timeout) const = 0;

  /// Wakes the thread blocked in wait() on `word`, if any (each word has
  /// at most one waiter).
  virtual void wake(std::atomic<std::uint32_t>& word) const = 0;
};

/// Deterministic replay time: a thread-safe instant that only moves when
/// the harness advances it.  local()/real() are the identity mapping — the
/// replay harness works directly in q-local seconds; fault-plan clock
/// jumps are applied to the heartbeat timestamps it feeds in, not here.
class VirtualTimeSource final : public TimeSource {
 public:
  explicit VirtualTimeSource(TimePoint start = TimePoint::zero())
      : now_s_(start.seconds()) {
    expects(start >= TimePoint::zero(),
            "VirtualTimeSource: start must be >= 0");
  }

  [[nodiscard]] TimePoint now() const override {
    return TimePoint(now_s_.load(std::memory_order_acquire));
  }

  /// Moves virtual time forward to `to`.  Monotone: moving backwards is a
  /// harness bug, not a scenario feature (fault-plan clock jumps model
  /// *local* clock steps; the replay timeline itself only advances).
  void advance(TimePoint to) {
    expects(to.seconds() >= now_s_.load(std::memory_order_acquire),
            "VirtualTimeSource::advance: time must not move backwards");
    now_s_.store(to.seconds(), std::memory_order_release);
  }

  /// Virtual sleep: yield once so a live thread spinning on virtual time
  /// makes no progress claim but also never deadlocks the advancing thread.
  void sleep_for(Duration /*d*/) const override { std::this_thread::yield(); }

  /// Virtual waits only yield, like sleep_for: virtual time does not pass
  /// while a thread blocks, so a timed block could outlast the harness.
  void wait(const std::atomic<std::uint32_t>& /*word*/,
            std::uint32_t /*expected*/, Duration /*timeout*/) const override {
    std::this_thread::yield();
  }
  void wake(std::atomic<std::uint32_t>& /*word*/) const override {}

  [[nodiscard]] TimePoint local(TimePoint real) const override {
    return real;
  }
  [[nodiscard]] TimePoint real(TimePoint local_time) const override {
    return local_time;
  }

 private:
  std::atomic<double> now_s_;
};

}  // namespace chenfd::rt
