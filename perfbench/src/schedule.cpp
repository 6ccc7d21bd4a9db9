#include "schedule.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace perfbench {

namespace {

enum Purpose : std::uint64_t {
  kPhase = 1,
  kLoss,
  kDelay,
  kMass,
  kMassLength,
  kChurn,
  kChurnAt,
  kChurnLength,
  kStale,
  kStaleDelay,
};

[[nodiscard]] std::uint64_t mix(std::uint64_t z) {
  return chenfd::SplitMix64(z).next();
}

constexpr double kRounding = 1e-6;  // absolute-time rounding slack, seconds

}  // namespace

Schedule::Schedule(const ScheduleConfig& config, std::uint64_t seed)
    : config_(config), seed_(seed), phase_(config.processes) {
  for (std::size_t p = 0; p < config_.processes; ++p) {
    phase_[p] = uniform(p, 0, kPhase) * config_.eta_s;
  }
  make_outages();
  make_events();
}

double Schedule::uniform(std::uint64_t p, std::uint64_t slot,
                         std::uint64_t purpose) const {
  std::uint64_t x = mix(seed_ ^ ((p + 1) * 0xd1b54a32d192ed03ULL));
  x = mix(x ^ ((slot + 1) * 0x8cb92ba72f3d8dd7ULL));
  x = mix(x ^ (purpose * 0xa0761d6478bd642fULL));
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

double Schedule::send_time(std::uint32_t p, std::uint64_t slot) const {
  return phase_[p] + static_cast<double>(slot - 1) * config_.eta_s;
}

bool Schedule::down_at(std::uint32_t p, double t) const {
  for (const Outage& o : outages(p)) {
    if (t >= o.crash_s && t < o.recover_s) return true;
  }
  return false;
}

std::uint32_t Schedule::incarnation_at(std::uint32_t p, double t) const {
  std::uint32_t n = 0;
  for (const Outage& o : outages(p)) {
    if (o.recover_s <= t) ++n;
  }
  return n;
}

bool Schedule::delivered(std::uint32_t p, std::uint64_t slot) const {
  const double s = send_time(p, slot);
  return s < config_.end_s && !down_at(p, s) &&
         uniform(p, slot, kLoss) >= config_.loss;
}

double Schedule::due(std::uint32_t p, std::uint64_t slot) const {
  const double span = config_.delay_max_eta - config_.delay_min_eta;
  return send_time(p, slot) +
         (config_.delay_min_eta + span * uniform(p, slot, kDelay)) *
             config_.eta_s;
}

void Schedule::make_outages() {
  const double eta = config_.eta_s;
  outage_begin_.assign(config_.processes + 1, 0);
  std::vector<Outage> mine;
  for (std::size_t p = 0; p < config_.processes; ++p) {
    mine.clear();
    if (uniform(p, 0, kMass) < config_.mass_crash_share) {
      const double c = config_.mass_crash_at_s;
      mine.push_back(Outage{
          c, c + (config_.mass_down_eta + uniform(p, 0, kMassLength)) * eta});
    }
    if (config_.churn_per_s > 0.0) {
      const auto first = static_cast<std::uint64_t>(config_.churn_from_s);
      for (std::uint64_t k = first;
           static_cast<double>(k) < config_.churn_to_s; ++k) {
        if (uniform(p, k, kChurn) >= config_.churn_per_s) continue;
        const double c = static_cast<double>(k) + uniform(p, k, kChurnAt);
        if (c < config_.churn_from_s || c >= config_.churn_to_s) continue;
        const double r = c + (3.0 + 5.0 * uniform(p, k, kChurnLength)) * eta;
        if (r + 3.0 * eta > config_.end_s) continue;
        const bool clash = std::any_of(
            mine.begin(), mine.end(), [&](const Outage& o) {
              return c < o.recover_s + 2.0 * eta && o.crash_s < r + 2.0 * eta;
            });
        if (!clash) mine.push_back(Outage{c, r});
      }
    }
    std::sort(mine.begin(), mine.end(), [](const Outage& a, const Outage& b) {
      return a.crash_s < b.crash_s;
    });
    outages_.insert(outages_.end(), mine.begin(), mine.end());
    outage_begin_[p + 1] = static_cast<std::uint32_t>(outages_.size());
  }
}

void Schedule::make_events() {
  const double eta = config_.eta_s;
  const auto slots_per_process =
      static_cast<std::size_t>(config_.end_s / eta) + 2;
  events_.reserve(config_.processes * slots_per_process);
  for (std::uint32_t p = 0; p < config_.processes; ++p) {
    for (std::uint64_t slot = 1; send_time(p, slot) < config_.end_s; ++slot) {
      if (!delivered(p, slot)) continue;
      events_.push_back(chenfd::fleet::Heartbeat{
          p, incarnation_at(p, send_time(p, slot)), slot,
          chenfd::TimePoint(due(p, slot))});
    }
    const std::span<const Outage> outs = outages(p);
    for (std::size_t j = 0; j < outs.size(); ++j) {
      if (uniform(p, j, kStale) >= config_.stale_share) continue;
      const double before = outs[j].crash_s - phase_[p];
      if (before <= 0.0) continue;
      const auto last = static_cast<std::uint64_t>(std::ceil(before / eta));
      const std::optional<double> first = first_due_after(p, outs[j].recover_s);
      if (!first) continue;
      const double at = *first + (0.1 + 0.3 * uniform(p, j, kStaleDelay)) * eta;
      if (at >= config_.end_s) continue;
      events_.push_back(chenfd::fleet::Heartbeat{
          p, incarnation_at(p, send_time(p, last)), last,
          chenfd::TimePoint(at)});
      ++stale_count_;
    }
  }
  std::sort(events_.begin(), events_.end(),
            [](const chenfd::fleet::Heartbeat& a,
               const chenfd::fleet::Heartbeat& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              if (a.process != b.process) return a.process < b.process;
              return a.seq < b.seq;
            });
}

std::optional<double> Schedule::cause_due(std::uint32_t p, double t) const {
  const double since = t - phase_[p];
  if (since < 0.0) return std::nullopt;
  auto slot = static_cast<std::uint64_t>(since / config_.eta_s) + 1;
  for (int step = 0; step < 256 && slot >= 1; ++step, --slot) {
    if (delivered(p, slot) && due(p, slot) <= t + kRounding) {
      return due(p, slot);
    }
  }
  return std::nullopt;
}

std::optional<double> Schedule::first_due_after(std::uint32_t p,
                                                double t) const {
  const double since =
      t - phase_[p] - config_.delay_max_eta * config_.eta_s;
  std::uint64_t slot =
      since <= 0.0 ? 1 : static_cast<std::uint64_t>(since / config_.eta_s) + 1;
  for (int step = 0; step < 256; ++step, ++slot) {
    if (send_time(p, slot) >= config_.end_s) return std::nullopt;
    if (delivered(p, slot) && due(p, slot) >= t - kRounding) {
      return due(p, slot);
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
