// The per-layer metric list every traced run reports (BENCHMARK.json
// names the same metrics).

#include "workloads.hpp"

namespace perfbench {

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> list{
      {"realtime.capacity_hbps", "hb/s"},
      {"runner.sim_hbps", "hb/s"},
      {"realtime.offer.ns_p50", "ns"},
      {"realtime.offer.ns_p99", "ns"},
      {"realtime.drain.ns_per_hb", "ns"},
      {"realtime.drain.hb_per_call_p50", "count"},
      {"realtime.drain.empty_ratio", "ratio"},
      {"realtime.queue.wait_p50_ms", "ms"},
      {"realtime.queue.wait_p99_ms", "ms"},
      {"realtime.queue.depth_max", "count"},
      {"realtime.advance.us_per_call", "us"},
      {"realtime.merge.ns_per_transition", "ns"},
      {"realtime.merge.us_p99", "us"},
      {"realtime.consumer.busy_ratio", "ratio"},
      {"realtime.shed_ratio", "ratio"},
      {"fleet.ingest.ns_per_hb", "ns"},
      {"fleet.ingest.instructions_per_hb", "count"},
      {"fleet.ingest.cycles_per_hb", "count"},
      {"fleet.ingest.llc_misses_per_hb", "count"},
      {"realtime.drain.instructions_per_hb", "count"},
      {"realtime.drain.llc_misses_per_hb", "count"},
      {"fleet.advance.ns_per_suspect", "ns"},
      {"persist.encode.us", "us"},
      {"persist.encode.bytes", "B"},
      {"persist.save.ms_p50", "ms"},
      {"persist.restore.ms", "ms"},
      {"core.fastsim.ns_per_hb.nfd_s", "ns"},
      {"core.fastsim.ns_per_hb.nfd_e", "ns"},
      {"core.fastsim.ns_per_hb.sfd", "ns"},
      {"runner.sweep.efficiency", "ratio"},
      {"runner.sweep.straggler_ratio", "ratio"},
      {"qos.extra_suspects", "count"},
      {"bench.gen_late_p99_ms", "ms"},
      {"trace.overhead.lag_p50_ms", "ratio"},
      {"trace.overhead.lag_p99_ms", "ratio"},
      {"trace.overhead.detect_lag_p50_ms", "ratio"},
      {"trace.overhead.detect_lag_p99_ms", "ratio"},
      {"trace.overhead.capacity_hbps", "ratio"},
  };
  return list;
}

void fill_absent_layers(Report& report) {
  for (const LayerMetric& m : layer_metrics()) {
    if (report.find(m.name) == nullptr) {
      report.layer_absent(m.name, m.unit, "n/a on this workload");
    }
  }
}

}  // namespace perfbench
