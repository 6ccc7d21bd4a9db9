#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Report::end_to_end(std::string name, double value, std::string unit,
                        std::uint64_t samples) {
  end_to_end_.push_back(
      Metric{std::move(name), value, std::move(unit), samples, {}});
}

void Report::layer(std::string name, double value, std::string unit,
                   std::uint64_t samples) {
  layers_.push_back(
      Metric{std::move(name), value, std::move(unit), samples, {}});
}

void Report::layer_absent(std::string name, std::string unit,
                          std::string why) {
  layers_.push_back(
      Metric{std::move(name), -1.0, std::move(unit), 0, std::move(why)});
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

const Metric* Report::find(const std::string& name) const {
  for (const auto* list : {&end_to_end_, &layers_}) {
    for (const Metric& m : *list) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

namespace {

void print_line(const char* kind, const Metric& m) {
  std::printf("%-10s %-36s ", kind, m.name.c_str());
  if (!m.note.empty()) {
    std::printf("%s (%s)\n", m.note.c_str(), m.unit.c_str());
    return;
  }
  std::printf("%.6g %s", m.value, m.unit.c_str());
  if (m.samples > 0) {
    std::printf("  (n=%llu)", static_cast<unsigned long long>(m.samples));
  }
  std::printf("\n");
}

void print_json_metrics(const std::vector<Metric>& ms) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), v,
                ms[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

void Report::print(bool traced) const {
  for (const Metric& m : end_to_end_) print_line("end-to-end", m);
  for (const Metric& m : layers_) print_line("layer", m);
  for (const std::string& f : failures_) {
    std::printf("FAIL %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_json_metrics(traced ? layers_ : end_to_end_);
  std::printf("}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
