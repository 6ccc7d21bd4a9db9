// Seeded heartbeat schedule for the serving workloads.
//
// Every draw is a hash of (seed, process, slot, purpose), so the schedule
// is a pure function: the generator, the oracle and the lag attribution
// all recompute the same due times without storing per-heartbeat state.
//
// Process p sends heartbeat `slot` (its sequence number, from 1) at
// send(p, slot) = phase_p + (slot - 1) * eta, with phases uniform over
// [0, eta) — spread over the whole period, unlike fleet::generate_workload,
// whose phases bunch into its first 0.1 eta.  Each message is lost with
// probability `loss`, otherwise it is due at the monitor after a delay
// uniform on [delay_min, delay_max] * eta.  Outages (crash at c, recovery
// at r) suppress the sends in [c, r) and bump the incarnation at r;
// sequence numbers keep counting slots across them.  "Stale" copies are
// pre-crash heartbeats delivered after the recovery's first heartbeat, so
// the monitor's incarnation fence must drop them.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fleet/types.hpp"

namespace perfbench {

struct ScheduleConfig {
  std::size_t processes = 0;
  double eta_s = 1.0;
  double end_s = 0.0;  ///< sends happen in [0, end_s)
  double loss = 0.01;
  double delay_min_eta = 0.05;
  double delay_max_eta = 0.25;

  // Crash-recovery churn (all zero: no outages).
  double mass_crash_share = 0.0;  ///< processes crashing together
  double mass_crash_at_s = 0.0;
  double mass_down_eta = 10.0;    ///< minimum mass-outage length
  double churn_per_s = 0.0;       ///< background crash rate per process
  double churn_from_s = 0.0;      ///< background churn window
  double churn_to_s = 0.0;
  double stale_share = 0.0;       ///< outages followed by a stale copy
};

struct Outage {
  double crash_s = 0.0;
  double recover_s = 0.0;
};

class Schedule {
 public:
  Schedule(const ScheduleConfig& config, std::uint64_t seed);

  [[nodiscard]] const ScheduleConfig& config() const { return config_; }

  /// Every delivered heartbeat (stale copies included), sorted by due time
  /// (`arrival`, seconds from the schedule's start), ties by process.
  [[nodiscard]] const std::vector<chenfd::fleet::Heartbeat>& events() const {
    return events_;
  }

  [[nodiscard]] std::span<const Outage> outages(std::uint32_t p) const {
    return {outages_.data() + outage_begin_[p],
            outages_.data() + outage_begin_[p + 1]};
  }
  [[nodiscard]] std::size_t outage_count() const { return outages_.size(); }
  [[nodiscard]] std::size_t stale_count() const { return stale_count_; }

  /// Due time of the latest delivered, non-stale heartbeat of p due at or
  /// before t (+1 us for rounding): the heartbeat a Trust at t answers.
  [[nodiscard]] std::optional<double> cause_due(std::uint32_t p,
                                                double t) const;

  /// Due time of p's first delivered, non-stale heartbeat due at or after t.
  [[nodiscard]] std::optional<double> first_due_after(std::uint32_t p,
                                                      double t) const;

  // Pure per-heartbeat draws.
  [[nodiscard]] double send_time(std::uint32_t p, std::uint64_t slot) const;
  [[nodiscard]] bool delivered(std::uint32_t p, std::uint64_t slot) const;
  [[nodiscard]] double due(std::uint32_t p, std::uint64_t slot) const;

 private:
  [[nodiscard]] double uniform(std::uint64_t p, std::uint64_t slot,
                               std::uint64_t purpose) const;
  [[nodiscard]] bool down_at(std::uint32_t p, double t) const;
  [[nodiscard]] std::uint32_t incarnation_at(std::uint32_t p, double t) const;
  void make_outages();
  void make_events();

  ScheduleConfig config_;
  std::uint64_t seed_;
  std::vector<double> phase_;
  std::vector<std::uint32_t> outage_begin_;  ///< CSR offsets, size N + 1
  std::vector<Outage> outages_;
  std::vector<chenfd::fleet::Heartbeat> events_;
  std::size_t stale_count_ = 0;
};

}  // namespace perfbench
