// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// Workloads: steady-10k, steady-1m, churn-100k (the serving stack:
// service/realtime -> fleet -> persist) and fig12-sim (core/fast_sim through
// runner).  Prints one line per metric and, last, the JSON result line
// (report.hpp).  Exit status 0 when the run completed (the JSON says
// whether its outputs were correct), 2 on a usage error or a crash of the
// run itself.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <steady-10k|steady-1m|churn-100k|"
               "fig12-sim> --seed N --seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.workdir = ".";
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--workdir" && has_value) {
      opts.workdir = argv[++i];
    } else {
      return usage();
    }
  }
  if (workload.empty() || !(opts.seconds > 0.0)) return usage();

  perfbench::Report report;
  try {
    if (workload == "fig12-sim") {
      perfbench::run_fig12(opts, report);
    } else {
      perfbench::run_serving(workload, opts, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (opts.trace) perfbench::fill_absent_layers(report);
  report.print(opts.trace);
  return 0;
}
