// The one wall-clock source in the tree (DESIGN.md section 14).
//
// Every other component takes time from sim::Simulator or a clk::Clock;
// this file (and only this file) is on detlint R1's wallclock allow-list.
// It is also the only place that blocks on the OS: the consumers' doorbell
// wait is a futex on Linux.
// chenfd_rtd and bench_rt_throughput construct one MonotonicClock and hand
// it to the realtime engine as a TimeSource — nothing downstream can tell
// it apart from the replay harness's VirtualTimeSource, which is exactly
// the property that keeps the daemon's overload and restart paths testable
// in deterministic virtual time.

#pragma once

#include "service/realtime/time_source.hpp"

namespace chenfd::rt {

/// Wall-clock TimeSource: now() is the steady-clock elapsed time since
/// construction plus the system-clock epoch captured *once* at
/// construction.  Readings are therefore monotone (immune to NTP steps
/// mid-run) while still being comparable across daemon restarts — which is
/// what lets a restarting daemon measure the age of a FileSnapshotStore
/// snapshot stamped by a previous incarnation.
class MonotonicClock final : public TimeSource {
 public:
  MonotonicClock();

  [[nodiscard]] TimePoint now() const override;
  void sleep_for(Duration d) const override;
  void wait(const std::atomic<std::uint32_t>& word, std::uint32_t expected,
            Duration timeout) const override;
  void wake(std::atomic<std::uint32_t>& word) const override;

  [[nodiscard]] TimePoint local(TimePoint real) const override {
    return real;
  }
  [[nodiscard]] TimePoint real(TimePoint local_time) const override {
    return local_time;
  }

 private:
  double epoch_s_;   ///< system-clock seconds at construction
  double origin_s_;  ///< steady-clock seconds at construction
};

}  // namespace chenfd::rt
