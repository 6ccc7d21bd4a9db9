// fig12-sim: a fixed-budget slice of the paper's Section 7 sweep (Fig. 12)
// through runner::ParallelSweep — NFD-S, NFD-E, SFD-L and SFD-S at eta = 1,
// p_L = 0.01, D ~ Exp(E(D) = 0.02), at four T_D^U points from the
// mistake-rich end (1.25) to the rare-mistake end (3.5).  Every task runs a
// fixed heartbeat budget, so the work per sweep does not depend on how many
// mistakes a seed happens to produce.
//
// The run repeats the sweep, each time on a fresh root seed, until its
// measured time is used up.  Each task is wrapped (outside the runner) with
// two clock reads, which give per-task run times and completion times.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "core/fast_sim.hpp"
#include "core/sampler.hpp"
#include "dist/exponential.hpp"
#include "runner/arena.hpp"
#include "runner/parallel_sweep.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = chenfd::core;
namespace runner = chenfd::runner;
using chenfd::Duration;

namespace {

constexpr double kEta = 1.0;
constexpr double kLoss = 0.01;
constexpr double kMeanDelay = 0.02;
constexpr double kPoints[] = {1.25, 2.0, 2.75, 3.5};
constexpr std::size_t kSeries = 4;  // NFD-S, NFD-E, SFD-L, SFD-S
constexpr std::size_t kReplications = 8;
constexpr std::size_t kSetupRepeats = 8;  // per batch
constexpr std::size_t kOverheadPairs = 5;

struct Budget {
  std::uint64_t scan;   // NFD-S heartbeats per task
  std::uint64_t event;  // NFD-E / SFD heartbeats per task
};

Budget budget(bool tiny) {
  return tiny ? Budget{200'000, 50'000} : Budget{2'000'000, 500'000};
}

core::StopCriteria stop_after(std::uint64_t heartbeats) {
  core::StopCriteria stop;
  stop.target_s_transitions = std::size_t{1} << 40;  // never the reason
  stop.max_heartbeats = heartbeats;
  return stop;
}

/// The task grid in (point, series) order.
std::vector<runner::AccuracyTask> make_tasks(const chenfd::dist::Exponential& d,
                                             const Budget& b) {
  std::vector<runner::AccuracyTask> tasks;
  for (const double t : kPoints) {
    tasks.push_back(runner::nfd_s_task(
        core::NfdSParams{Duration(kEta), Duration(t - kEta)}, kLoss, d,
        stop_after(b.scan)));
    tasks.push_back(runner::nfd_e_task(
        core::NfdEParams{Duration(kEta), Duration(t - kMeanDelay - kEta), 32},
        kLoss, d, stop_after(b.event)));
    tasks.push_back(runner::sfd_task(
        core::SfdParams{Duration(t - 0.16), Duration(0.16)}, Duration(kEta),
        kLoss, d, stop_after(b.event)));
    tasks.push_back(runner::sfd_task(
        core::SfdParams{Duration(t - 0.08), Duration(0.08)}, Duration(kEta),
        kLoss, d, stop_after(b.event)));
  }
  return tasks;
}

struct TaskSpan {
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct Recorder {
  std::mutex mu;
  std::vector<TaskSpan> spans;
};

std::vector<runner::AccuracyTask> timed(
    const std::vector<runner::AccuracyTask>& tasks, Recorder& rec) {
  std::vector<runner::AccuracyTask> out;
  for (const runner::AccuracyTask& task : tasks) {
    out.push_back([task, &rec](chenfd::Rng& rng, chenfd::MonotonicArena& arena) {
      const std::int64_t a = now_ns();
      core::AccuracyResult r = task(rng, arena);
      const std::int64_t b = now_ns();
      const std::lock_guard<std::mutex> lock(rec.mu);
      rec.spans.push_back(TaskSpan{a, b});
      return r;
    });
  }
  return out;
}

std::uint64_t sweep_seed(std::uint64_t seed, std::uint64_t k) {
  return chenfd::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + k).next();
}

bool same(const core::AccuracyResult& a, const core::AccuracyResult& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.heartbeats == b.heartbeats && a.s_transitions == b.s_transitions &&
         bits(a.observed_seconds) == bits(b.observed_seconds) &&
         bits(a.trust_seconds) == bits(b.trust_seconds) &&
         bits(a.e_tmr()) == bits(b.e_tmr()) && bits(a.e_tm()) == bits(b.e_tm());
}

struct Loop {
  /// 90th percentile of the per-sweep rates: the host's cores change speed
  /// by up to 2x within seconds, which moves a median from run to run.
  double hbps = 0.0;
  /// Per sweep: sweep start -> each task's result, and each task's run.
  std::vector<std::vector<double>> completion_ms;
  std::vector<std::vector<double>> run_ms;
  double efficiency = 0.0;
  double straggler = 0.0;
  std::size_t sweeps = 0;
  std::size_t tasks = 0;
  std::vector<core::AccuracyResult> first;  ///< results of sweep 0
  core::AccuracyResult nfd_s_rich;          ///< NFD-S at T_D^U = 1.25, merged
  std::vector<TaskSpan> trace;              ///< task spans of the last sweep
  std::int64_t trace_origin = 0;
};

Loop sweep_loop(const std::vector<runner::AccuracyTask>& tasks, unsigned jobs,
                const RunOptions& opts, const std::function<void()>& between) {
  Loop out;
  Recorder rec;
  const std::vector<runner::AccuracyTask> wrapped = timed(tasks, rec);
  const runner::ParallelSweep sweep(runner::RunnerOptions{jobs});
  std::vector<double> rates;
  double wall = 0.0;
  double busy = 0.0;
  std::vector<double> stragglers;
  const std::int64_t loop_start = now_ns();
  for (std::uint64_t k = 0;; ++k) {
    const double elapsed = static_cast<double>(now_ns() - loop_start) * 1e-9;
    if (k >= 2 && elapsed >= opts.seconds) break;
    rec.spans.clear();
    const std::int64_t start = now_ns();
    std::vector<core::AccuracyResult> results =
        sweep.run(wrapped, kReplications, sweep_seed(opts.seed, k));
    const std::int64_t end = now_ns();
    wall += static_cast<double>(end - start) * 1e-9;
    double sum = 0.0;
    double worst = 0.0;
    std::vector<double>& runs = out.run_ms.emplace_back();
    std::vector<double>& completions = out.completion_ms.emplace_back();
    for (const TaskSpan& s : rec.spans) {
      const double run = static_cast<double>(s.end_ns - s.start_ns);
      runs.push_back(run * 1e-6);
      completions.push_back(static_cast<double>(s.end_ns - start) * 1e-6);
      sum += run;
      worst = std::max(worst, run);
    }
    busy += sum * 1e-9;
    stragglers.push_back(worst / (sum / static_cast<double>(rec.spans.size())));
    double hb = 0.0;
    for (const core::AccuracyResult& r : results) {
      hb += static_cast<double>(r.heartbeats);
    }
    rates.push_back(hb / (static_cast<double>(end - start) * 1e-9));
    out.nfd_s_rich.merge(results[0]);
    if (k == 0) out.first = std::move(results);
    out.trace = rec.spans;
    out.trace_origin = start;
    out.tasks += rec.spans.size();
    ++out.sweeps;
    between();
  }
  out.hbps = quantile(rates, 0.9);
  out.efficiency = busy / (static_cast<double>(jobs) * wall);
  out.straggler = median(stragglers);
  return out;
}

/// Each sweep's percentile over its tasks, then the 10th percentile of
/// those over the run's sweeps.  A task's time depends on which core ran it
/// and how fast the host let that core run; a sweep's p99 is its
/// straggler.  Like runner.sim_hbps, this takes the sweeps the host did not
/// slow, which moves far less from run to run than a pooled percentile.
double per_sweep(const std::vector<std::vector<double>>& sweeps, double q) {
  std::vector<double> each;
  each.reserve(sweeps.size());
  for (const std::vector<double>& s : sweeps) each.push_back(quantile(s, q));
  return quantile(std::move(each), 0.1);
}

/// What the per-task clock wrappers cost the sweep's throughput: pairs of
/// sweeps on one seed (so the same heartbeats), plain then wrapped, and the
/// median over pairs of wrapped rate / plain rate - 1.
double wrapper_overhead(const std::vector<runner::AccuracyTask>& tasks,
                        unsigned jobs, std::uint64_t seed) {
  Recorder rec;
  const std::vector<runner::AccuracyTask> wrapped = timed(tasks, rec);
  const runner::ParallelSweep sweep(runner::RunnerOptions{jobs});
  const auto sweep_ns = [&](const std::vector<runner::AccuracyTask>& t) {
    const std::int64_t a = now_ns();
    (void)sweep.run(t, kReplications, seed);
    return static_cast<double>(now_ns() - a);
  };
  std::vector<double> ratios;
  for (std::size_t r = 0; r < kOverheadPairs; ++r) {
    const double plain = sweep_ns(tasks);
    rec.spans.clear();
    ratios.push_back(plain / sweep_ns(wrapped) - 1.0);
  }
  return median(ratios);
}

struct KernelRun {
  double ns_per_hb = 0.0;
  std::size_t arena_bytes = 0;
};

template <typename Fn>
KernelRun time_kernel(Fn&& fn, std::size_t repeats) {
  std::vector<double> ns;
  KernelRun out;
  for (std::size_t r = 0; r < repeats; ++r) {
    chenfd::MonotonicArena arena;
    chenfd::Rng rng(0x5eed + r);
    const std::int64_t a = now_ns();
    const core::AccuracyResult res = fn(rng, arena);
    const std::int64_t b = now_ns();
    ns.push_back(static_cast<double>(b - a) /
                 static_cast<double>(std::max<std::uint64_t>(res.heartbeats, 1)));
    out.arena_bytes = std::max(out.arena_bytes, arena.capacity_bytes());
  }
  out.ns_per_hb = median(ns);
  return out;
}

}  // namespace

void run_fig12(const RunOptions& opts, Report& report) {
  const chenfd::dist::Exponential delay(kMeanDelay);
  const Budget b = budget(opts.tiny);
  // One core is left to the rest of the system: with a worker on every
  // core, any other activity preempts a task and makes it the straggler.
  const unsigned jobs =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency() - 1));
  std::printf("workload fig12-sim: %zu points x %zu series x %zu "
              "replications per sweep, jobs %u, %llu/%llu heartbeats per "
              "scan/event task\n",
              std::size(kPoints), kSeries, kReplications, jobs,
              static_cast<unsigned long long>(b.scan),
              static_cast<unsigned long long>(b.event));

  // setup_s: compile the samplers and build the task grid, stand up the
  // runner and lease a warm arena — everything before the first task runs.
  std::vector<double> setup_s;
  std::vector<runner::AccuracyTask> tasks;
  const auto set_up = [&] {
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      const std::int64_t a = now_ns();
      std::vector<runner::AccuracyTask> grid = make_tasks(delay, b);
      [[maybe_unused]] const runner::ParallelSweep sweep(
          runner::RunnerOptions{jobs});
      runner::ArenaPool pool;
      runner::ArenaLease lease = pool.acquire();
      (void)lease.arena().allocate(1 << 16, 64);
      setup_s.push_back(static_cast<double>(now_ns() - a) * 1e-9);
      if (tasks.empty()) tasks = std::move(grid);
    }
  };
  // Set-ups run before the first sweep and after every sweep, so their
  // median spans the host's speed phases over the whole run.
  set_up();
  const Loop loop = sweep_loop(tasks, jobs, opts, set_up);

  // Oracles: identical results for another job count; NFD-S against the
  // Theorem 5 closed form where mistakes are plentiful.
  {
    const runner::ParallelSweep serial(runner::RunnerOptions{1});
    const std::vector<core::AccuracyResult> again =
        serial.run(tasks, kReplications, sweep_seed(opts.seed, 0));
    for (std::size_t i = 0; i < again.size(); ++i) {
      if (!same(again[i], loop.first[i])) {
        report.fail("fig12: sweep point " + std::to_string(i) +
                    " differs between jobs=1 and jobs=" + std::to_string(jobs));
      }
    }
    const core::NfdSAnalysis exact(
        core::NfdSParams{Duration(kEta), Duration(kPoints[0] - kEta)}, kLoss,
        delay);
    const double want = exact.e_tmr().seconds();
    const auto& tmr = loop.nfd_s_rich.mistake_recurrence;
    const double got = tmr.mean();
    const double se = std::sqrt(tmr.variance() / static_cast<double>(tmr.count()));
    std::printf("NFD-S E(T_MR) at T_D^U=%.2f: simulated %.4f (n=%zu, se %.4f), "
                "Theorem 5 %.4f\n",
                kPoints[0], got, tmr.count(), se, want);
    if (tmr.count() < 100 || !(std::fabs(got - want) <= 6.0 * se + 1e-3 * want)) {
      report.fail("fig12: NFD-S E(T_MR) disagrees with Theorem 5");
    }
  }

  const std::size_t kernel_repeats = opts.trace ? 3 : 1;
  const core::CompiledSampler sampler(delay);
  const core::StopCriteria scan = stop_after(b.scan);
  const core::StopCriteria event = stop_after(b.event);
  const KernelRun ks = time_kernel(
      [&](chenfd::Rng& rng, chenfd::MonotonicArena& arena) {
        return core::fast_nfd_s_accuracy(
            core::NfdSParams{Duration(kEta), Duration(1.0)}, kLoss, sampler,
            rng, scan, &arena);
      },
      kernel_repeats);
  const KernelRun ke = time_kernel(
      [&](chenfd::Rng& rng, chenfd::MonotonicArena& arena) {
        return core::fast_nfd_e_accuracy(
            core::NfdEParams{Duration(kEta), Duration(1.0 - kMeanDelay), 32},
            kLoss, sampler, rng, event, &arena);
      },
      kernel_repeats);
  const KernelRun kf = time_kernel(
      [&](chenfd::Rng& rng, chenfd::MonotonicArena& arena) {
        return core::fast_sfd_accuracy(
            core::SfdParams{Duration(2.0 - 0.16), Duration(0.16)},
            Duration(kEta), kLoss, sampler, rng, event, &arena);
      },
      kernel_repeats);

  report.attempted = loop.tasks;
  report.failed = 0;
  report.end_to_end("setup_s", median(setup_s), "s", setup_s.size());
  report.end_to_end("lag_p50_ms", per_sweep(loop.completion_ms, 0.5), "ms",
                    loop.tasks);
  report.end_to_end("lag_p99_ms", per_sweep(loop.completion_ms, 0.99), "ms",
                    loop.tasks);
  report.end_to_end("detect_lag_p50_ms", per_sweep(loop.run_ms, 0.5), "ms",
                    loop.tasks);
  report.end_to_end("detect_lag_p99_ms", per_sweep(loop.run_ms, 0.99), "ms",
                    loop.tasks);
  report.end_to_end(
      "bytes_per_process",
      static_cast<double>(std::max({ks.arena_bytes, ke.arena_bytes,
                                    kf.arena_bytes})),
      "B");
  report.layer("runner.sim_hbps", loop.hbps, "hb/s", loop.sweeps);
  std::printf("sweeps: %zu (%zu tasks)\n", loop.sweeps, loop.tasks);

  if (!opts.trace) return;

  // The untraced run already records the one span per task that the
  // per-layer numbers come from, so the traced run is the same run.  The
  // lags exist only through those spans, so there is no unwrapped run to
  // set them against; the wrappers' cost is measured on throughput.
  report.layer("core.fastsim.ns_per_hb.nfd_s", ks.ns_per_hb, "ns");
  report.layer("core.fastsim.ns_per_hb.nfd_e", ke.ns_per_hb, "ns");
  report.layer("core.fastsim.ns_per_hb.sfd", kf.ns_per_hb, "ns");
  report.layer("runner.sweep.efficiency", loop.efficiency, "ratio");
  report.layer("runner.sweep.straggler_ratio", loop.straggler, "ratio",
               loop.sweeps);
  for (const char* m : {"trace.overhead.lag_p50_ms", "trace.overhead.lag_p99_ms",
                        "trace.overhead.detect_lag_p50_ms",
                        "trace.overhead.detect_lag_p99_ms"}) {
    report.layer_absent(m, "ratio", "not measured (lags need the task spans)");
  }
  report.layer("trace.overhead.capacity_hbps",
               wrapper_overhead(tasks, jobs, sweep_seed(opts.seed, 0)), "ratio",
               kOverheadPairs);

  const std::string path = opts.workdir + "/fig12-sim-seed" +
                           std::to_string(opts.seed) + ".spans.tsv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "thread\tbatch\tname\tparent\tstart_ns\tend_ns\tself_ns\n");
    SpanLog log("sweep", {"runner.sweep", "runner.task"}, 1u << 16);
    std::vector<Span> spans;
    spans.push_back(Span{0, kNoParent, 0, loop.trace_origin, 0});
    for (const TaskSpan& s : loop.trace) {
      spans.push_back(Span{1, 0, 0, s.start_ns, s.end_ns});
      spans[0].end_ns = std::max(spans[0].end_ns, s.end_ns);
    }
    log.commit(spans);
    log.write(f);
    std::fclose(f);
    std::printf("spans written to %s\n", path.c_str());
  }
}

}  // namespace perfbench
