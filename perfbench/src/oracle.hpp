// Stream oracle: the paper's semantics checked on the transition stream a
// subscriber received.
//
//   - alternation: each process's transitions alternate Suspect/Trust,
//     starting from the verdict the engine reported right after set-up;
//   - completeness: every crashed process is suspected before it recovers,
//     and the first heartbeat it delivers after recovery re-trusts it.
//
// Failures are appended to `errors` (at most `kMaxErrors` per check, plus a
// count line), so a doctored stream shows what broke.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/types.hpp"
#include "schedule.hpp"

namespace perfbench {

inline constexpr std::size_t kMaxErrors = 5;

/// `initially_trusted[p]` is 1 when p's verdict after set-up was Trust.
/// Returns the number of violations.
std::size_t check_alternation(
    const std::vector<chenfd::fleet::Transition>& stream,
    const std::vector<std::uint8_t>& initially_trusted,
    std::vector<std::string>& errors);

/// Transition times minus `origin` are schedule times.  Returns the number
/// of violations; `checked` receives the number of outages examined.
std::size_t check_completeness(
    const std::vector<chenfd::fleet::Transition>& stream, double origin,
    const Schedule& schedule, std::vector<std::string>& errors,
    std::size_t* checked = nullptr);

}  // namespace perfbench
