// Metric collection and the result line every perfbench run ends with.
//
// A run prints one human-readable line per metric (with the sample count
// beside every percentile) and, last, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// holding the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one.  A per-layer value of -1 means "not measured on
// this workload" or "the kernel refused the hardware counter"; the text
// line says which.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile q in [0, 1] of `v`; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< > 0 for percentiles: samples behind it
  std::string note;           ///< printed after the value ("unavailable", ...)
};

class Report {
 public:
  void end_to_end(std::string name, double value, std::string unit,
                  std::uint64_t samples = 0);
  void layer(std::string name, double value, std::string unit,
             std::uint64_t samples = 0);
  /// A per-layer metric this workload does not measure (-1, "n/a").
  void layer_absent(std::string name, std::string unit, std::string why);

  /// Records an oracle or validity failure; the run's `correct` turns false.
  void fail(const std::string& why);

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::vector<Metric>& end_to_end_metrics() const {
    return end_to_end_;
  }
  [[nodiscard]] const std::vector<Metric>& layer_metrics() const {
    return layers_;
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the metric lines and the final JSON line (per-layer metrics
  /// when `traced`, else end-to-end).
  void print(bool traced) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
