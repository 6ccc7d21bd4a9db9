// The benchmark's workloads (see perfbench/README.md for why each exists).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window of the run
  bool trace = false;     ///< per-layer run (spans and counters)
  std::string workdir;    ///< scratch files: snapshots, span dumps
  /// Scales a workload down (1/100 of the processes, same offered rate
  /// per process) for the self-tests.
  bool tiny = false;
};

[[nodiscard]] const std::vector<std::string>& serving_workloads();

/// steady-10k, steady-1m or churn-100k.
void run_serving(const std::string& workload, const RunOptions& opts,
                 Report& report);

/// fig12-sim.
void run_fig12(const RunOptions& opts, Report& report);

/// Every per-layer metric name with its unit, in report order.  A workload
/// that does not exercise a layer reports it as absent.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

/// Adds every layer metric the report lacks as absent ("n/a here").
void fill_absent_layers(Report& report);

}  // namespace perfbench
