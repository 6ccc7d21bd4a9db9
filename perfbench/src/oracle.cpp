#include "oracle.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

using chenfd::Verdict;
using chenfd::fleet::Transition;

namespace {

void note(std::vector<std::string>& errors, std::size_t count,
          const std::string& what) {
  if (count <= kMaxErrors) errors.push_back(what);
}

template <typename... Args>
std::string fmt(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

}  // namespace

std::size_t check_alternation(const std::vector<Transition>& stream,
                              const std::vector<std::uint8_t>& initially_trusted,
                              std::vector<std::string>& errors) {
  std::vector<std::uint8_t> trusted = initially_trusted;
  std::size_t bad = 0;
  for (const Transition& t : stream) {
    if (t.process >= trusted.size()) {
      note(errors, ++bad,
           fmt("alternation: transition for unknown process %u at %.9f",
               t.process, t.at.seconds()));
      continue;
    }
    const bool to_trust = t.to == Verdict::kTrust;
    if ((trusted[t.process] != 0) == to_trust) {
      note(errors, ++bad,
           fmt("alternation: process %u %s twice (at %.9f)", t.process,
               to_trust ? "trusted" : "suspected", t.at.seconds()));
    }
    trusted[t.process] = to_trust ? 1 : 0;
  }
  if (bad > kMaxErrors) {
    errors.push_back("alternation: " + std::to_string(bad) +
                     " violations in total");
  }
  return bad;
}

std::size_t check_completeness(const std::vector<Transition>& stream,
                               double origin, const Schedule& schedule,
                               std::vector<std::string>& errors,
                               std::size_t* checked) {
  const std::size_t n = schedule.config().processes;
  // Group each process's transitions, keeping stream order.
  std::vector<std::uint32_t> begin(n + 1, 0);
  for (const Transition& t : stream) {
    if (t.process < n) ++begin[t.process + 1];
  }
  for (std::size_t p = 0; p < n; ++p) begin[p + 1] += begin[p];
  std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
  std::vector<const Transition*> by_process(begin[n]);
  for (const Transition& t : stream) {
    if (t.process < n) by_process[fill[t.process]++] = &t;
  }

  std::size_t bad = 0;
  std::size_t examined = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    for (const Outage& o : schedule.outages(p)) {
      ++examined;
      const Transition* before = nullptr;  // last transition before recovery
      const Transition* after = nullptr;   // first one at or after it
      for (std::uint32_t i = begin[p]; i < begin[p + 1]; ++i) {
        const double at = by_process[i]->at.seconds() - origin;
        if (at < o.recover_s) {
          before = by_process[i];
        } else {
          after = by_process[i];
          break;
        }
      }
      if (before == nullptr || before->to != Verdict::kSuspect) {
        note(errors, ++bad,
             fmt("completeness: process %u crashed at %.6f but was not "
                 "suspected before its recovery at %.6f",
                 p, o.crash_s, o.recover_s));
        continue;
      }
      const std::optional<double> first =
          schedule.first_due_after(p, o.recover_s);
      if (!first) continue;  // recovery too close to the end to re-trust
      const std::optional<double> cause =
          after == nullptr
              ? std::nullopt
              : schedule.cause_due(p, after->at.seconds() - origin);
      if (after == nullptr || after->to != Verdict::kTrust || !cause ||
          std::fabs(*cause - *first) > 1e-9) {
        note(errors, ++bad,
             fmt("completeness: process %u recovered at %.6f was not "
                 "re-trusted by its first heartbeat (due %.6f)",
                 p, o.recover_s, *first));
      }
    }
  }
  if (bad > kMaxErrors) {
    errors.push_back("completeness: " + std::to_string(bad) +
                     " violations in total");
  }
  if (checked != nullptr) *checked = examined;
  return bad;
}

}  // namespace perfbench
