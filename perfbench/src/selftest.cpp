// Self-tests of the benchmark itself:
//
//   - the stream oracle rejects doctored streams (a double Trust; a crashed
//     process that is never suspected) and accepts the real one;
//   - self-time arithmetic on a hand-built span tree;
//   - a tiny configuration of every workload runs end to end, untraced and
//     traced, with correct outputs and every metric present.
//
//   perfbench_selftest <workdir>
//
// Exit status 0 when every check passes.

#include <cstdio>
#include <string>
#include <vector>

#include "fleet/fleet_monitor.hpp"
#include "oracle.hpp"
#include "schedule.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using chenfd::Verdict;
using chenfd::fleet::Transition;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_self_times() {
  // root [0,100] with children a [10,30], b [20,50] (overlapping a),
  // c [60,70] (with grandchild g [62,65]) and d [90,120] (overhanging).
  const std::vector<Span> spans{
      {0, kNoParent, 1, 0, 100}, {1, 0, 1, 10, 30}, {1, 0, 1, 20, 50},
      {2, 0, 1, 60, 70},         {3, 3, 1, 62, 65}, {1, 0, 1, 90, 120},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  // Covered by children of root: [10,50] + [60,70] + [90,100] = 60.
  expect(self == std::vector<std::int64_t>{40, 20, 30, 7, 3, 30},
         "self time on a hand-built span tree");

  SpanLog log("t", {"root", "child", "c", "g"}, 3);
  log.commit(spans);
  expect(log.totals(0).self_ns == 40 && log.totals(1).count == 3 &&
             log.totals(1).total_ns == 80 && log.dropped() == spans.size(),
         "span log aggregates and caps kept spans");
}

std::vector<Transition> reference_stream(const Schedule& s) {
  chenfd::fleet::FleetOptions fo;
  fo.processes = s.config().processes;
  fo.params = chenfd::core::NfdEParams{chenfd::seconds(s.config().eta_s),
                                       chenfd::seconds(0.5 * s.config().eta_s),
                                       16};
  chenfd::fleet::FleetMonitor m(fo);
  m.ingest(s.events());
  m.close(chenfd::TimePoint(s.config().end_s + 2.0 * s.config().eta_s));
  return m.drain_transitions();
}

void test_oracle() {
  ScheduleConfig c;
  c.processes = 4;
  c.eta_s = 1.0;
  c.end_s = 40.0;
  c.loss = 0.0;
  c.mass_crash_share = 0.5;
  c.mass_crash_at_s = 10.0;
  c.mass_down_eta = 10.0;
  const Schedule s(c, 7);
  const std::vector<std::uint8_t> none(c.processes, 0);
  std::vector<Transition> stream = reference_stream(s);

  std::vector<std::string> errors;
  std::size_t checked = 0;
  const std::size_t bad = check_alternation(stream, none, errors) +
                          check_completeness(stream, 0.0, s, errors, &checked);
  expect(bad == 0 && checked == s.outage_count() && checked >= 1,
         "oracle accepts the reference stream (" + std::to_string(checked) +
             " outages)");

  // A double Trust: repeat the first Trust.
  std::vector<Transition> doubled = stream;
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    if (doubled[i].to == Verdict::kTrust) {
      doubled.insert(doubled.begin() + static_cast<long>(i) + 1, doubled[i]);
      break;
    }
  }
  errors.clear();
  const std::size_t doubled_bad = check_alternation(doubled, none, errors);
  expect(doubled_bad == 1 && !errors.empty(),
         "oracle rejects a double Trust: " +
             (errors.empty() ? std::string("-") : errors.front()));

  // A crashed process never suspected: drop the Suspect during its outage
  // and the re-trust after it, which keeps alternation intact.
  std::uint32_t victim = 0;
  while (s.outages(victim).empty()) ++victim;
  const Outage o = s.outages(victim).front();
  const double first = *s.first_due_after(victim, o.recover_s);
  std::vector<Transition> silent;
  for (const Transition& t : stream) {
    const double at = t.at.seconds();
    if (t.process == victim && at >= o.crash_s && at <= first) continue;
    silent.push_back(t);
  }
  errors.clear();
  const std::size_t alternation = check_alternation(silent, none, errors);
  const std::size_t missed = check_completeness(silent, 0.0, s, errors);
  expect(alternation == 0 && missed == 1,
         "oracle rejects a crashed process never suspected: " +
             (errors.empty() ? std::string("-") : errors.front()));
}

void test_tiny(const std::string& workload, bool trace,
               const std::string& workdir) {
  RunOptions opts;
  opts.seed = 3;
  opts.seconds = 1.0;
  opts.trace = trace;
  opts.workdir = workdir;
  opts.tiny = true;
  Report report;
  if (workload == "fig12-sim") {
    run_fig12(opts, report);
  } else {
    run_serving(workload, opts, report);
  }
  if (trace) fill_absent_layers(report);
  bool present = report.end_to_end_metrics().size() == 6;
  for (const Metric& m : report.end_to_end_metrics()) {
    if (!(m.value > 0.0)) {
      std::printf("  %s is %g, not > 0\n", m.name.c_str(), m.value);
      present = false;
    }
  }
  if (trace) present = present && report.layer_metrics().size() ==
                                      layer_metrics().size();
  for (const std::string& f : report.failures()) std::printf("  %s\n", f.c_str());
  expect(report.correct() && present && report.attempted > 0,
         "tiny " + workload + (trace ? " (traced)" : "") + " runs end to end");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workdir = argc > 1 ? argv[1] : ".";
  test_self_times();
  test_oracle();
  for (const bool trace : {false, true}) {
    for (const std::string& w : serving_workloads()) test_tiny(w, trace, workdir);
    test_tiny("fig12-sim", trace, workdir);
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
