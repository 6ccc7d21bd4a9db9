// Serving workloads: the realtime engine (service/realtime) in front of the
// fleet monitor (fleet) with snapshots through persist, driven only through
// their public functions.
//
// Each run has two phases on the same seeded heartbeat schedule:
//
//   open loop   wall clock, the engine's own consumer and watchdog threads
//               (RealtimeEngine::start), a generator offering each heartbeat
//               at its due time pre-stamped with that due time, and a
//               subscriber thread calling drain_transitions() in a loop and
//               stamping each return.  Lags are measured from due times.
//   closed loop virtual time, one thread: offer a chunk of heartbeats while
//               advancing a VirtualTimeSource, then drain and advance every
//               shard; chunks never exceed a shard's queue capacity, so
//               nothing is shed.  The resulting stream must equal a
//               single-FleetMonitor reference run on the same heartbeats.
//
// The traced run repeats the open loop and one closed-loop pass with spans
// around every call into a layer, and counts hardware events in two
// single-threaded replays.  It cannot wrap the engine's own threads, so its
// open loop drives consumer and watchdog threads of its own that make the
// same calls in the same order as RealtimeEngine::consumer_loop and
// watchdog_loop.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "fleet/fleet_monitor.hpp"
#include "fleet/workload.hpp"
#include "oracle.hpp"
#include "persist/file_store.hpp"
#include "persist/snapshot.hpp"
#include "schedule.hpp"
#include "service/realtime/engine.hpp"
#include "service/realtime/monotonic_clock.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using chenfd::Duration;
using chenfd::TimePoint;
using chenfd::Verdict;
using chenfd::fleet::Heartbeat;
using chenfd::fleet::Transition;
namespace rt = chenfd::rt;
namespace persist = chenfd::persist;
namespace fleet = chenfd::fleet;

namespace {

// ---------------------------------------------------------------------------
// Workload settings
// ---------------------------------------------------------------------------

struct Spec {
  std::size_t processes = 0;
  double eta_s = 1.0;
  bool churn = false;
};

Spec spec_of(const std::string& name, bool tiny) {
  Spec s;
  if (name == "steady-10k") {
    s = {10'000, 0.01, false};
  } else if (name == "steady-1m") {
    s = {1'000'000, 1.0, false};
  } else if (name == "churn-100k") {
    s = {100'000, 0.1, true};
  } else {
    throw std::invalid_argument("unknown serving workload: " + name);
  }
  if (tiny) s.processes /= 100;
  return s;
}

constexpr std::size_t kShards = 4;
constexpr std::size_t kConsumers = 1;
constexpr double kSnapshotEvery = 1.0;  // churn-100k, seconds
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kSetupMax = 201;
constexpr double kSetupBudget = 0.15;  // seconds per half
constexpr std::size_t kIngestBatch = 4096;
constexpr std::size_t kOfferSampleMask = 7;    // time 1 offer in 8
constexpr std::size_t kLateSampleMask = 7;     // lateness of 1 offer in 8
constexpr std::size_t kWaitSampleMask = 15;    // queue wait of 1 hb in 16
constexpr double kSubscriberPoll = 200e-6;     // seconds

struct Setup {
  Spec spec;
  ScheduleConfig schedule;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  rt::RealtimeOptions engine;
  Duration consumer_period;
  Duration watchdog_period = chenfd::seconds(0.25);
  double late_limit_s = 0.0;  ///< generator p99 lateness that voids a run
};

Setup make_setup(const std::string& name, const RunOptions& opts) {
  Setup s;
  s.spec = spec_of(name, opts.tiny);
  const double eta = s.spec.eta_s;
  s.warmup_s = std::max(1.5 * eta, 0.5);
  s.measure_s = opts.seconds;
  const double tail = std::max(eta, 0.5);

  ScheduleConfig& c = s.schedule;
  c.processes = s.spec.processes;
  c.eta_s = eta;
  c.end_s = s.warmup_s + s.measure_s + tail;
  if (s.spec.churn) {
    c.mass_crash_share = 0.10;
    c.mass_crash_at_s = s.warmup_s + 0.25 * s.measure_s;
    c.mass_down_eta = 10.0;
    c.churn_per_s = 0.01;
    c.churn_from_s = s.warmup_s;
    c.churn_to_s = s.warmup_s + s.measure_s;
    c.stale_share = 0.01;
  }

  rt::RealtimeOptions& e = s.engine;
  e.processes = s.spec.processes;
  e.shards = kShards;
  e.params = chenfd::core::NfdEParams{chenfd::seconds(eta),
                                      chenfd::seconds(0.5 * eta), 16};
  e.policy = rt::OverloadPolicy::kDropNewest;
  s.consumer_period = chenfd::seconds(0.2 * eta);
  // At least twice what one shard receives during one consumer idle
  // period, and at least 50 ms of its traffic, so that a scheduling hiccup
  // of a few milliseconds on a shared host sheds nothing.
  const double per_shard_rate =
      static_cast<double>(s.spec.processes) / eta / kShards;
  const double slots = std::max(2.0 * per_shard_rate * 0.2 * eta,
                                per_shard_rate * 0.05);
  e.queue_capacity = 1024 * static_cast<std::size_t>(std::ceil(slots / 1024));
  e.validate();
  s.late_limit_s = std::max(1e-3, 0.05 * eta);
  return s;
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

persist::MonitorSnapshot wrap(const rt::RealtimeEngine& engine,
                              const rt::RealtimeOptions& opts, double now) {
  persist::MonitorSnapshot snap;
  snap.taken_at_s = now;
  snap.detector.eta_s = opts.params.eta.seconds();
  snap.detector.alpha_s = opts.params.alpha.seconds();
  snap.detector.window_capacity = opts.params.window;
  snap.short_term.capacity = 2;
  snap.long_term.capacity = 2;
  snap.req_detection_rel_s = opts.params.alpha.seconds() + 1.0;
  snap.req_recurrence_s = 3600.0;
  snap.req_duration_s = 60.0;
  snap.has_fleet = true;
  snap.fleet = engine.export_summary();
  return snap;
}

/// Load + parse + warm restore: the churn workload's start from a snapshot.
void restore_from(rt::RealtimeEngine& engine,
                  const persist::FileSnapshotStore& store) {
  const std::optional<persist::StoredSnapshot> stored = store.load();
  if (!stored) throw std::runtime_error("snapshot missing at " + store.path());
  const persist::MonitorSnapshot snap = persist::from_string(stored->bytes);
  engine.restore_summary(snap.fleet, /*warm=*/true);
}

std::vector<std::uint8_t> verdicts(const rt::RealtimeEngine& engine) {
  std::vector<std::uint8_t> trusted(engine.processes());
  for (std::size_t p = 0; p < trusted.size(); ++p) {
    trusted[p] = engine.verdict(static_cast<fleet::ProcessIndex>(p)) ==
                         Verdict::kTrust
                     ? 1
                     : 0;
  }
  return trusted;
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

enum SpanName : std::uint32_t {
  kPass,
  kDrain,
  kAdvance,
  kPoll,
  kMerge,
  kSnapshot,
  kEncode,
  kSave,
  kIngest,
  kFleetAdvance,
};

std::vector<std::string> span_names() {
  return {"consumer.pass",  "realtime.drain",  "realtime.advance",
          "subscriber.poll", "realtime.merge", "subscriber.snapshot",
          "persist.encode", "persist.save",    "fleet.ingest",
          "fleet.advance"};
}

/// Counts of the traced consumer; its times come from the spans.
struct ConsumerStats {
  std::uint64_t passes = 0;
  std::uint64_t empty_passes = 0;
  std::uint64_t ingested = 0;
  std::size_t depth_max = 0;
  std::vector<double> batch;     ///< heartbeats per non-empty drain
  std::vector<double> wait_s;    ///< sampled due -> ingesting drain start
};

struct SubscriberStats {
  std::vector<double> merge_us;  ///< drain_transitions() call durations
  std::uint64_t merged = 0;      ///< transitions returned
};

struct OpenLoop {
  std::vector<Transition> stream;  ///< in receipt order
  std::vector<double> recv_s;      ///< receipt stamp per transition
  double t0 = 0.0;                 ///< schedule origin on the clock
  double wall_s = 0.0;
  std::vector<double> late_s;      ///< sampled generator lateness
  std::vector<double> offer_ns;    ///< traced: sampled offer() durations
  rt::ShardCounters totals;
  std::size_t memory_bytes = 0;
  std::vector<std::uint8_t> initially_trusted;
  std::uint64_t restarts = 0;
  bool stalled = false;
  std::size_t snapshots = 0;
  ConsumerStats consumer;
  SubscriberStats subscriber;
};

/// Per-shard due times (relative, in FIFO order) for queue-wait attribution.
std::vector<std::vector<float>> shard_dues(const Schedule& schedule,
                                           const rt::RealtimeEngine& engine) {
  std::vector<std::vector<float>> dues(engine.shard_count());
  for (const Heartbeat& hb : schedule.events()) {
    dues[engine.shard_of(hb.process)].push_back(
        static_cast<float>(hb.arrival.seconds()));
  }
  return dues;
}

class OpenLoopRun {
 public:
  OpenLoopRun(const Setup& setup, const Schedule& schedule,
              rt::RealtimeEngine& engine, rt::MonotonicClock& clock,
              persist::FileSnapshotStore* store, bool traced,
              std::vector<SpanLog>* logs)
      : setup_(setup),
        schedule_(schedule),
        engine_(engine),
        clock_(clock),
        store_(store),
        traced_(traced),
        logs_(logs) {}

  OpenLoop run() {
    OpenLoop out;
    out.initially_trusted = verdicts(engine_);
    if (traced_) dues_ = shard_dues(schedule_, engine_);
    consumed_.assign(engine_.shard_count(), 0);
    out.t0 = clock_.now().seconds() + 0.05;
    t0_ = out.t0;

    if (traced_) {
      mirror_running_.store(true);
      consumer_ = std::thread([this, &out] { traced_consumer(out.consumer); });
      watchdog_ = std::thread([this, &out] { traced_watchdog(out.restarts); });
    } else {
      engine_.start(kConsumers, setup_.consumer_period,
                    setup_.watchdog_period);
    }
    subscriber_running_.store(true);
    std::thread subscriber([this, &out] { subscribe(out); });
    std::thread snapshotter;
    if (store_ != nullptr && setup_.spec.churn) {
      snapshotter = std::thread([this, &out] { snapshots(out); });
    }

    // Stops and joins every thread this run started, also when the
    // generator throws.
    const auto stop = [&] {
      if (traced_) {
        mirror_running_.store(false);
        if (consumer_.joinable()) consumer_.join();
        if (watchdog_.joinable()) watchdog_.join();
      } else {
        engine_.stop();
      }
    };
    const auto stop_subscriber = [&] {
      subscriber_running_.store(false);
      if (subscriber.joinable()) subscriber.join();
      if (snapshotter.joinable()) snapshotter.join();
    };
    try {
      generate(out);
    } catch (...) {
      stop();
      stop_subscriber();
      throw;
    }

    // Let the consumer catch up with the last due heartbeats, then stop.
    const double last_due = schedule_.events().empty()
                                ? 0.0
                                : schedule_.events().back().arrival.seconds();
    sleep_until(out.t0 + last_due + setup_.consumer_period.seconds() + 0.05);
    stop();
    if (!traced_) out.restarts = engine_.totals().restarts;
    const TimePoint end = clock_.now();
    for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
      (void)engine_.drain_shard(s, end);
    }
    stop_subscriber();
    out.wall_s = end.seconds() - out.t0;
    out.totals = engine_.totals();
    for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
      const rt::RiskReason risk = engine_.shard_risk(s);
      if (risk == rt::RiskReason::kConsumerStall) out.stalled = true;
      if (risk != rt::RiskReason::kNone) {
        std::printf("shard %zu: QoS at risk (%s)\n", s, rt::name(risk));
      }
    }
    out.memory_bytes = engine_.memory_bytes();
    return out;
  }

 private:
  void sleep_until(double t) const {
    for (;;) {
      const double left = t - clock_.now().seconds();
      if (left <= 0.0) return;
      clock_.sleep_for(chenfd::seconds(std::min(left, 0.01)));
    }
  }

  void generate(OpenLoop& out) {
    const std::vector<Heartbeat>& events = schedule_.events();
    out.late_s.reserve(events.size() / (kLateSampleMask + 1) + 1);
    if (traced_) out.offer_ns.reserve(events.size() / (kOfferSampleMask + 1) + 1);
    const double t0 = out.t0;
    std::size_t i = 0;
    while (i < events.size()) {
      const double now = clock_.now().seconds() - t0;
      const double next = events[i].arrival.seconds();
      if (next > now) {
        const double gap = next - now;
        if (gap > 300e-6) clock_.sleep_for(chenfd::seconds(gap - 200e-6));
        continue;
      }
      for (; i < events.size() && events[i].arrival.seconds() <= now; ++i) {
        Heartbeat hb = events[i];
        if ((i & kLateSampleMask) == 0) {
          out.late_s.push_back(now - hb.arrival.seconds());
        }
        hb.arrival = TimePoint(t0 + hb.arrival.seconds());
        if (traced_ && (i & kOfferSampleMask) == 0) {
          const std::int64_t a = now_ns();
          (void)engine_.offer(hb);
          out.offer_ns.push_back(static_cast<double>(now_ns() - a));
        } else {
          (void)engine_.offer(hb);
        }
      }
    }
  }

  void subscribe(OpenLoop& out) {
    std::vector<Span> spans;
    std::uint64_t batch = 0;
    for (bool last = false; !last;) {
      last = !subscriber_running_.load();
      const std::int64_t a = now_ns();
      std::vector<Transition> got = engine_.drain_transitions();
      const std::int64_t b = now_ns();
      const double recv = clock_.now().seconds();
      out.stream.insert(out.stream.end(), got.begin(), got.end());
      out.recv_s.insert(out.recv_s.end(), got.size(), recv);
      if (traced_) {
        spans.clear();
        spans.push_back(Span{kPoll, kNoParent, batch, a, now_ns()});
        spans.push_back(Span{kMerge, 0, batch, a, b});
        (*logs_)[1].commit(spans);
        ++batch;
        out.subscriber.merged += got.size();
        out.subscriber.merge_us.push_back(static_cast<double>(b - a) / 1e3);
      }
      if (!last) clock_.sleep_for(chenfd::seconds(kSubscriberPoll));
    }
  }

  // Periodic snapshots beside ingest (churn-100k), on a thread of their
  // own as in chenfd_rtd's main loop: the fsync blocks neither the
  // subscriber nor the generator.
  void snapshots(OpenLoop& out) {
    std::vector<Span> spans;
    std::uint64_t batch = 0;
    for (double next = out.t0 + kSnapshotEvery;; next += kSnapshotEvery) {
      while (subscriber_running_.load() && clock_.now().seconds() < next) {
        clock_.sleep_for(chenfd::seconds(0.01));
      }
      if (!subscriber_running_.load()) return;
      const double now = clock_.now().seconds();
      const std::int64_t a = now_ns();
      std::string bytes =
          persist::to_string(wrap(engine_, setup_.engine, now));
      const std::int64_t b = now_ns();
      store_->save(std::move(bytes), TimePoint(now));
      const std::int64_t c = now_ns();
      ++out.snapshots;
      if (traced_) {
        spans.clear();
        spans.push_back(Span{kSnapshot, kNoParent, batch, a, c});
        spans.push_back(Span{kEncode, 0, batch, a, b});
        spans.push_back(Span{kSave, 0, batch, b, c});
        (*logs_)[4].commit(spans);
        ++batch;
      }
    }
  }

  // Same calls, same order as RealtimeEngine::consumer_loop.
  void traced_consumer(ConsumerStats& st) {
    std::vector<Span> spans;
    std::uint64_t batch = 0;
    while (mirror_running_.load(std::memory_order_acquire)) {
      spans.clear();
      spans.push_back(Span{kPass, kNoParent, batch, now_ns(), 0});
      bool idle = true;
      const TimePoint now = clock_.now();
      for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
        st.depth_max = std::max(st.depth_max, engine_.pending(s));
        const double drain_start = clock_.now().seconds();
        const std::int64_t a = now_ns();
        const std::size_t n = engine_.drain_shard(s, now);
        const std::int64_t b = now_ns();
        spans.push_back(Span{kDrain, 0, batch, a, b});
        if (n != 0) {
          idle = false;
          st.ingested += n;
          st.batch.push_back(static_cast<double>(n));
          const std::vector<float>& dues = dues_[s];
          const std::size_t from = consumed_[s];
          const std::size_t to = std::min(from + n, dues.size());
          for (std::size_t k = from; k < to; ++k) {
            if ((k & kWaitSampleMask) == 0) {
              st.wait_s.push_back(drain_start - (t0_ + dues[k]));
            }
          }
          consumed_[s] += n;
        }
        const std::int64_t c = now_ns();
        engine_.advance_shard(s, now);
        spans.push_back(Span{kAdvance, 0, batch, c, now_ns()});
      }
      spans[0].end_ns = now_ns();
      (*logs_)[0].commit(spans);
      ++batch;
      ++st.passes;
      if (idle) {
        ++st.empty_passes;
        clock_.sleep_for(setup_.consumer_period);
      }
    }
  }

  // Same calls, same order as RealtimeEngine::watchdog_loop.
  void traced_watchdog(std::uint64_t& restarts) {
    while (mirror_running_.load(std::memory_order_acquire)) {
      const TimePoint now = clock_.now();
      for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
        if (engine_.poll_watchdog(s, now, true) == rt::WatchdogAction::kRestart) {
          engine_.warm_restart_shard(s, now);
          ++restarts;
        }
      }
      clock_.sleep_for(setup_.watchdog_period);
    }
  }

  const Setup& setup_;
  const Schedule& schedule_;
  rt::RealtimeEngine& engine_;
  rt::MonotonicClock& clock_;
  persist::FileSnapshotStore* store_;
  bool traced_;
  std::vector<SpanLog>* logs_;
  std::vector<std::vector<float>> dues_;
  std::vector<std::size_t> consumed_;
  std::atomic<bool> mirror_running_{false};
  std::atomic<bool> subscriber_running_{false};
  std::thread consumer_;
  std::thread watchdog_;
  double t0_ = 0.0;
};

// ---------------------------------------------------------------------------
// Closed loop (virtual time)
// ---------------------------------------------------------------------------

struct ClosedLoop {
  std::vector<Transition> stream;  ///< stable-sorted by (at, process)
  std::vector<std::uint8_t> initially_trusted;
  double wall_s = 0.0;
  double window_hbps = 0.0;  ///< rate over the measurement window
  rt::ShardCounters totals;
  std::uint64_t ingested = 0;
};

/// A close() horizon past every freshness point the schedule can produce.
TimePoint horizon(const Setup& setup) {
  return TimePoint(setup.schedule.end_s + 2.0 * setup.spec.eta_s);
}

/// The closed loop, on one thread: offer a chunk of heartbeats (advancing
/// virtual time to each), then one consumer pass — drain_shard and
/// advance_shard on every shard, as RealtimeEngine::consumer_loop does.
/// A chunk never exceeds one shard's queue capacity, so nothing is shed.
/// With `counters`, only the drain_shard calls count (ring pop plus monitor
/// ingest); with `log`, every drain and advance gets a span.
ClosedLoop run_closed(const Setup& setup, const Schedule& schedule,
                      persist::FileSnapshotStore* store, HwCounters* counters,
                      SpanLog* log) {
  ClosedLoop out;
  rt::VirtualTimeSource vt;
  rt::RealtimeEngine engine(setup.engine, vt);
  if (setup.spec.churn) restore_from(engine, *store);
  out.initially_trusted = verdicts(engine);

  const std::vector<Heartbeat>& events = schedule.events();
  const std::size_t chunk = std::min(kIngestBatch, setup.engine.queue_capacity);
  std::vector<Span> spans;
  std::uint64_t batch = 0;
  // The rate covers only the measurement window (steady state, after the
  // start-up burst of first Trusts).
  const double window_from = setup.warmup_s;
  const double window_to = setup.warmup_s + setup.measure_s;
  std::size_t window_begin = events.size();
  std::size_t window_end = events.size();
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < events.size(); i += chunk) {
    const double at = events[i].arrival.seconds();
    if (at >= window_from && window_begin == events.size()) {
      window_begin = i;
      window_start_ns = now_ns();
    }
    if (at >= window_to && window_end == events.size()) {
      window_end = i;
      window_end_ns = now_ns();
    }
    const std::size_t n = std::min(chunk, events.size() - i);
    for (std::size_t k = i; k < i + n; ++k) {
      vt.advance(events[k].arrival);
      (void)engine.offer(events[k]);
    }
    const TimePoint now = vt.now();
    if (log != nullptr) {
      spans.clear();
      spans.push_back(Span{kPass, kNoParent, batch, now_ns(), 0});
    }
    for (std::size_t s = 0; s < engine.shard_count(); ++s) {
      const std::int64_t a = log != nullptr ? now_ns() : 0;
      if (counters != nullptr) counters->start();
      const std::size_t got = engine.drain_shard(s, now);
      if (counters != nullptr) counters->stop();
      const std::int64_t b = log != nullptr ? now_ns() : 0;
      engine.advance_shard(s, now);
      out.ingested += got;
      if (log != nullptr) {
        spans.push_back(Span{kDrain, 0, batch, a, b});
        spans.push_back(Span{kAdvance, 0, batch, b, now_ns()});
      }
    }
    if (log != nullptr) {
      spans[0].end_ns = now_ns();
      log->commit(spans);
      ++batch;
    }
  }
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  if (window_end_ns == 0) window_end_ns = now_ns();
  if (window_end > window_begin && window_end_ns > window_start_ns) {
    out.window_hbps = static_cast<double>(window_end - window_begin) /
                      (static_cast<double>(window_end_ns - window_start_ns) * 1e-9);
  }

  engine.close(horizon(setup));
  out.stream = engine.drain_transitions();
  out.totals = engine.totals();
  return out;
}

// ---------------------------------------------------------------------------
// Single-FleetMonitor reference, and the counted passes of the traced run
// ---------------------------------------------------------------------------

struct Reference {
  std::vector<Transition> stream;
  std::uint64_t dropped_stale = 0;
  std::uint64_t dropped_pre_epoch = 0;
  std::uint64_t dropped_duplicate = 0;
  std::uint64_t advance_suspects = 0;
  HwCounters::Values counted;
};

/// Ingests the schedule through one FleetMonitor slice by slice, one slice
/// per wheel tick (eta / 8, the default resolution): advance() to the
/// slice's start fires the expiries due by then, then the slice's
/// heartbeats are ingested in batches.  Advancing to an instant no later
/// than the next arrival cannot change the stream.  With `counters`, only
/// the ingest calls count.
Reference run_reference(const Setup& setup, const Schedule& schedule,
                        HwCounters* counters, SpanLog* log) {
  Reference out;
  fleet::FleetOptions fo;
  fo.processes = setup.spec.processes;
  fo.shards = 1;
  fo.params = setup.engine.params;
  fleet::FleetMonitor monitor(fo);
  const double slice = fo.resolution().seconds();
  const std::vector<Heartbeat>& events = schedule.events();
  std::vector<Span> spans;
  std::uint64_t batch = 0;
  for (std::size_t i = 0; i < events.size();) {
    const double k = std::floor(events[i].arrival.seconds() / slice);
    std::size_t end = i;
    while (end < events.size() &&
           std::floor(events[end].arrival.seconds() / slice) == k) {
      ++end;
    }
    if (log != nullptr) spans.clear();
    const std::uint64_t before = monitor.suspects();
    const std::int64_t a = now_ns();
    monitor.advance(TimePoint(std::min(k * slice, events[i].arrival.seconds())));
    const std::int64_t b = now_ns();
    out.advance_suspects += monitor.suspects() - before;
    if (log != nullptr) {
      spans.push_back(Span{kFleetAdvance, kNoParent, batch, a, b});
      log->commit(spans);
      ++batch;
    }
    while (i < end) {
      const std::size_t n = std::min(kIngestBatch, end - i);
      const std::int64_t c = now_ns();
      if (counters != nullptr) counters->start();
      monitor.ingest(std::span<const Heartbeat>(events.data() + i, n));
      if (counters != nullptr) counters->stop();
      const std::int64_t d = now_ns();
      if (log != nullptr) {
        spans.clear();
        spans.push_back(Span{kIngest, kNoParent, batch, c, d});
        log->commit(spans);
        ++batch;
      }
      i += n;
    }
  }
  monitor.close(horizon(setup));
  out.stream = monitor.drain_transitions();
  out.dropped_stale = monitor.dropped_stale();
  out.dropped_pre_epoch = monitor.dropped_pre_epoch();
  out.dropped_duplicate = monitor.dropped_duplicate();
  if (counters != nullptr) out.counted = counters->read();
  return out;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Lag samples by window of the measurement window: windows of
/// max(1 s, 10 eta), so that each spans at least ten consumer idle periods.
struct Lags {
  std::vector<std::vector<double>> trust_ms;
  std::vector<std::vector<double>> suspect_ms;
  std::size_t unattributed = 0;  ///< Trusts with no delivered heartbeat
};

/// Lags of the transitions whose time falls in the measurement window.
Lags lags(const OpenLoop& ol, const Setup& setup, const Schedule& schedule) {
  Lags out;
  const double from = setup.warmup_s;
  const double to = setup.warmup_s + setup.measure_s;
  const double span = std::max(1.0, 10.0 * setup.spec.eta_s);
  const auto windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(setup.measure_s / span));
  out.trust_ms.resize(windows);
  out.suspect_ms.resize(windows);
  for (std::size_t i = 0; i < ol.stream.size(); ++i) {
    const Transition& t = ol.stream[i];
    const double at = t.at.seconds() - ol.t0;
    if (at < from || at >= to) continue;
    const auto w =
        std::min(static_cast<std::size_t>((at - from) / span), windows - 1);
    if (t.to == Verdict::kSuspect) {
      out.suspect_ms[w].push_back((ol.recv_s[i] - t.at.seconds()) * 1e3);
      continue;
    }
    const std::optional<double> due = schedule.cause_due(t.process, at);
    if (!due) {
      ++out.unattributed;
      continue;
    }
    out.trust_ms[w].push_back((ol.recv_s[i] - (ol.t0 + *due)) * 1e3);
  }
  return out;
}

std::uint64_t suspects_before(const std::vector<Transition>& stream,
                              double origin, double cut) {
  std::uint64_t n = 0;
  for (const Transition& t : stream) {
    if (t.to == Verdict::kSuspect && t.at.seconds() - origin < cut) ++n;
  }
  return n;
}

void check_open_loop(const OpenLoop& ol, const Setup& setup,
                     const Schedule& schedule, const char* phase,
                     Report& report) {
  std::vector<std::string> errors;
  check_alternation(ol.stream, ol.initially_trusted, errors);
  if (setup.spec.churn) {
    check_completeness(ol.stream, ol.t0, schedule, errors);
  }
  const rt::ShardCounters& c = ol.totals;
  if (c.produced != c.accepted + c.shed_total()) {
    errors.push_back("counter identity: produced != accepted + shed");
  }
  if (c.produced != schedule.events().size()) {
    errors.push_back("generator offered " + std::to_string(c.produced) +
                     " of " + std::to_string(schedule.events().size()) +
                     " heartbeats");
  }
  // A consumer stall fails the run.  A restart latched as
  // kWatchdogRestart (consumer seen dead) can only come from the engine's
  // start-up race — the watchdog's first poll may run before the consumer
  // thread has marked itself alive — and restarts an empty monitor, which
  // changes no verdict.  The watchdog then blocks in respawn_consumer until
  // stop() and never polls again, so no stall could have latched: the run
  // is marked INVALID, as a late generator is.
  if (ol.stalled) errors.push_back("a consumer stalled (watchdog restart)");
  if (ol.restarts != 0) {
    std::printf("INVALID %s: watchdog restarted %llu shard(s) at start-up; "
                "the engine's watchdog stops polling after such a restart, so "
                "the consumer-stall check may not have been in force\n",
                phase, static_cast<unsigned long long>(ol.restarts));
  }
  // A generator behind its schedule voids the run's lags, not the
  // program's outputs: it is reported, and `correct` stays an output check.
  const double late_p99 = quantile(ol.late_s, 0.99);
  if (late_p99 > setup.late_limit_s) {
    std::printf("INVALID %s: generator p99 lateness %.3f ms exceeds %.3f ms; "
                "do not use this run's lags\n",
                phase, late_p99 * 1e3, setup.late_limit_s * 1e3);
  }
  for (const std::string& e : errors) {
    report.fail(std::string(phase) + ": " + e);
  }
}

struct LagSummary {
  double lag_p50 = 0, lag_p99 = 0, detect_p50 = 0, detect_p99 = 0;
  std::size_t trust_n = 0, suspect_n = 0;
};

/// The median over windows of each window's percentile: a host slowdown
/// that covers part of the run moves it less than one pooled percentile.
/// Windows with fewer than 100 samples are skipped; when all are (tiny
/// runs), the percentile of all samples pooled is returned.
double windowed(const std::vector<std::vector<double>>& windows, double q,
                std::size_t& samples) {
  std::vector<double> per_window;
  std::vector<double> pooled;
  for (const std::vector<double>& w : windows) {
    pooled.insert(pooled.end(), w.begin(), w.end());
    if (w.size() >= 100) per_window.push_back(quantile(w, q));
  }
  samples = pooled.size();
  return per_window.empty() ? quantile(pooled, q) : median(per_window);
}

LagSummary summarize(const Lags& l) {
  LagSummary s;
  s.lag_p50 = windowed(l.trust_ms, 0.5, s.trust_n);
  s.lag_p99 = windowed(l.trust_ms, 0.99, s.trust_n);
  s.detect_p50 = windowed(l.suspect_ms, 0.5, s.suspect_n);
  s.detect_p99 = windowed(l.suspect_ms, 0.99, s.suspect_n);
  return s;
}

double relative(double traced, double untraced) {
  return untraced != 0.0 ? traced / untraced - 1.0 : 0.0;
}

}  // namespace

const std::vector<std::string>& serving_workloads() {
  static const std::vector<std::string> names{"steady-10k", "steady-1m",
                                              "churn-100k"};
  return names;
}

void run_serving(const std::string& workload, const RunOptions& opts,
                 Report& report) {
  const Setup setup = make_setup(workload, opts);
  std::printf("workload %s: %zu processes, eta %.3g s, %zu shards, queue "
              "capacity %zu/shard, consumer idle %.3g s\n",
              workload.c_str(), setup.spec.processes, setup.spec.eta_s,
              setup.engine.shards, setup.engine.queue_capacity,
              setup.consumer_period.seconds());

  std::int64_t t = now_ns();
  const Schedule schedule(setup.schedule, opts.seed);
  std::printf("schedule: %zu heartbeats over %.2f s (%.3g hb/s offered), %zu "
              "outages, %zu stale copies; generated in %.2f s\n",
              schedule.events().size(), setup.schedule.end_s,
              static_cast<double>(schedule.events().size()) /
                  setup.schedule.end_s,
              schedule.outage_count(), schedule.stale_count(),
              static_cast<double>(now_ns() - t) * 1e-9);
  std::fflush(stdout);

  rt::MonotonicClock clock;
  std::unique_ptr<persist::FileSnapshotStore> store;
  if (setup.spec.churn) {
    store = std::make_unique<persist::FileSnapshotStore>(
        opts.workdir + "/" + workload + ".snapshot");
    rt::RealtimeEngine seed_engine(setup.engine, clock);
    store->save(persist::to_string(
                    wrap(seed_engine, setup.engine, clock.now().seconds())),
                clock.now());
  }

  // setup_s: construction (+ snapshot load and warm restore) until the
  // first heartbeat can be offered.  Half of the set-ups run before the
  // open loop and half at the end of the run, so that the median spans
  // more than one phase of the host's speed; each half is at least
  // kSetupRepeats set-ups and as many as fit in kSetupBudget seconds.
  std::vector<double> setup_s;
  std::unique_ptr<rt::RealtimeEngine> engine;
  const auto set_up = [&] {
    double spent = 0.0;
    for (std::size_t r = 0;
         r < kSetupMax && (r < kSetupRepeats || spent < kSetupBudget); ++r) {
      engine.reset();
      // Every set-up starts from memory returned to the kernel, as a fresh
      // daemon's does; otherwise the first set-up pays page faults and
      // the rest reuse the freed heap.
      malloc_trim(0);
      const std::int64_t a = now_ns();
      engine = std::make_unique<rt::RealtimeEngine>(setup.engine, clock);
      if (store) restore_from(*engine, *store);
      setup_s.push_back(static_cast<double>(now_ns() - a) * 1e-9);
      spent += setup_s.back();
    }
  };
  set_up();

  // Span logs of the traced run, one per thread that records spans.
  std::vector<SpanLog> logs;
  if (opts.trace) {
    logs.emplace_back("consumer", span_names(), 1u << 20);
    logs.emplace_back("subscriber", span_names(), 1u << 18);
    logs.emplace_back("closed-consumer", span_names(), 1u << 18);
    logs.emplace_back("reference", span_names(), 1u << 16);
    logs.emplace_back("snapshot", span_names(), 1u << 10);
  }

  // ---- open loop, untraced ----
  OpenLoop open = OpenLoopRun(setup, schedule, *engine, clock, store.get(),
                              false, nullptr)
                      .run();
  check_open_loop(open, setup, schedule, "open loop", report);
  const Lags open_lags = lags(open, setup, schedule);
  if (open_lags.unattributed != 0) {
    report.fail("open loop: " + std::to_string(open_lags.unattributed) +
                " Trusts answer no delivered heartbeat");
  }
  const LagSummary lag = summarize(open_lags);
  const std::size_t memory = open.memory_bytes;
  engine.reset();

  // ---- closed loop, untraced, and its reference ----
  // realtime.capacity_hbps is this pass's window rate.
  ClosedLoop closed = run_closed(setup, schedule, store.get(), nullptr, nullptr);
  {
    std::vector<std::string> errors;
    check_alternation(closed.stream, closed.initially_trusted, errors);
    if (setup.spec.churn) check_completeness(closed.stream, 0.0, schedule, errors);
    if (closed.totals.shed_total() != 0) errors.push_back("closed loop shed");
    if (closed.totals.accepted != schedule.events().size()) {
      errors.push_back("closed loop accepted " +
                       std::to_string(closed.totals.accepted) + " of " +
                       std::to_string(schedule.events().size()));
    }
    for (const std::string& e : errors) report.fail("closed loop: " + e);
  }
  t = now_ns();
  const Reference ref =
      run_reference(setup, schedule, nullptr, opts.trace ? &logs[3] : nullptr);
  const double ref_s = static_cast<double>(now_ns() - t) * 1e-9;
  const std::uint32_t crc_closed = fleet::stream_crc(closed.stream);
  const std::uint32_t crc_ref = fleet::stream_crc(ref.stream);
  std::printf("closed loop: %zu transitions, crc %08x; reference %zu "
              "transitions, crc %08x\n",
              closed.stream.size(), crc_closed, ref.stream.size(), crc_ref);
  if (crc_closed != crc_ref || closed.stream.size() != ref.stream.size()) {
    report.fail("closed loop stream differs from the FleetMonitor reference");
  }
  if (ref.dropped_stale != schedule.stale_count()) {
    report.fail("incarnation fence dropped " +
                std::to_string(ref.dropped_stale) + " of " +
                std::to_string(schedule.stale_count()) + " stale heartbeats");
  }
  if (ref.dropped_duplicate != 0 || ref.dropped_pre_epoch != 0) {
    report.fail("reference dropped duplicate or pre-epoch heartbeats");
  }
  set_up();
  engine.reset();

  const double cut = setup.warmup_s + setup.measure_s;
  const double extra_suspects =
      static_cast<double>(suspects_before(open.stream, open.t0, cut)) -
      static_cast<double>(suspects_before(ref.stream, 0.0, cut));
  const double late_p99_ms = quantile(open.late_s, 0.99) * 1e3;

  report.attempted = open.totals.produced;
  report.failed = open.totals.shed_total();
  report.end_to_end("setup_s", median(setup_s), "s", setup_s.size());
  report.end_to_end("lag_p50_ms", lag.lag_p50, "ms", lag.trust_n);
  report.end_to_end("lag_p99_ms", lag.lag_p99, "ms", lag.trust_n);
  report.end_to_end("detect_lag_p50_ms", lag.detect_p50, "ms", lag.suspect_n);
  report.end_to_end("detect_lag_p99_ms", lag.detect_p99, "ms", lag.suspect_n);
  report.end_to_end("bytes_per_process",
                    static_cast<double>(memory) /
                        static_cast<double>(setup.spec.processes),
                    "B");
  std::printf("open loop: %.2f s wall, %llu offered, %llu shed, %zu "
              "snapshots; reference ingest %.2f s\n",
              open.wall_s, static_cast<unsigned long long>(open.totals.produced),
              static_cast<unsigned long long>(open.totals.shed_total()),
              open.snapshots, ref_s);

  report.layer("realtime.capacity_hbps", closed.window_hbps, "hb/s");
  if (!opts.trace) {
    report.layer("realtime.shed_ratio",
                 static_cast<double>(open.totals.shed_total()) /
                     static_cast<double>(open.totals.produced),
                 "ratio");
    report.layer("qos.extra_suspects", extra_suspects, "count");
    report.layer("bench.gen_late_p99_ms", late_p99_ms, "ms", open.late_s.size());
    return;
  }

  // ---- traced run ----

  engine = std::make_unique<rt::RealtimeEngine>(setup.engine, clock);
  if (store) restore_from(*engine, *store);
  OpenLoop topen = OpenLoopRun(setup, schedule, *engine, clock, store.get(),
                               true, &logs)
                       .run();
  check_open_loop(topen, setup, schedule, "traced open loop", report);
  const LagSummary tlag = summarize(lags(topen, setup, schedule));

  // Snapshot path, measured on the engine the traced run leaves behind.
  std::vector<double> encode_us;
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  std::size_t encoded_bytes = 0;
  {
    persist::FileSnapshotStore probe(opts.workdir + "/" + workload +
                                     ".probe.snapshot");
    for (int r = 0; r < 5; ++r) {
      const std::int64_t a = now_ns();
      std::string bytes =
          persist::to_string(wrap(*engine, setup.engine, clock.now().seconds()));
      const std::int64_t b = now_ns();
      encoded_bytes = bytes.size();
      probe.save(std::move(bytes), clock.now());
      const std::int64_t c = now_ns();
      restore_from(*engine, probe);
      const std::int64_t d = now_ns();
      encode_us.push_back(static_cast<double>(b - a) * 1e-3);
      save_ms.push_back(static_cast<double>(c - b) * 1e-6);
      restore_ms.push_back(static_cast<double>(d - c) * 1e-6);
    }
    probe.clear();
  }
  engine.reset();

  ClosedLoop tclosed =
      run_closed(setup, schedule, store.get(), nullptr, &logs[2]);
  if (fleet::stream_crc(tclosed.stream) != crc_ref) {
    report.fail("traced closed loop stream differs from the reference");
  }

  // Two counted passes over the same stream must agree.  A first pass
  // warms the allocator so both start from the same heap state; user-space
  // instruction counts are still not exact on every PMU (interrupts landing
  // in the counted region add a few), so they must agree to 1e-4.
  {
    HwCounters warm;
    (void)run_reference(setup, schedule, &warm, nullptr);
  }
  HwCounters counters;
  const Reference counted_a = run_reference(setup, schedule, &counters, nullptr);
  HwCounters counters_b;
  const Reference counted_b = run_reference(setup, schedule, &counters_b, nullptr);
  std::printf("fleet.ingest instructions, two passes: %llu %llu\n",
              static_cast<unsigned long long>(counted_a.counted.instructions),
              static_cast<unsigned long long>(counted_b.counted.instructions));
  HwCounters drain_counters;
  const ClosedLoop drain =
      run_closed(setup, schedule, store.get(), &drain_counters, nullptr);
  const HwCounters::Values drain_counted = drain_counters.read();
  const double hb = static_cast<double>(schedule.events().size());
  const auto ia = static_cast<double>(counted_a.counted.instructions);
  const auto ib = static_cast<double>(counted_b.counted.instructions);
  const bool counted = counted_a.counted.valid && counted_b.counted.valid;
  if (counted && (ia == 0.0 || std::fabs(ia - ib) > 1e-4 * ia)) {
    report.fail("fleet.ingest instruction count did not repeat: " +
                std::to_string(counted_a.counted.instructions) + " vs " +
                std::to_string(counted_b.counted.instructions));
  }
  if (!counted && counters.available()) {
    std::printf("hardware counters opened but did not run the whole pass "
                "(never scheduled or multiplexed): reported unavailable\n");
  }

  // Layer metrics.
  const std::vector<double>& offer_ns = topen.offer_ns;
  report.layer("realtime.offer.ns_p50", quantile(offer_ns, 0.5), "ns",
               offer_ns.size());
  report.layer("realtime.offer.ns_p99", quantile(offer_ns, 0.99), "ns",
               offer_ns.size());
  // Times from the span logs' self-time totals; counts from the threads.
  const ConsumerStats& cs = topen.consumer;
  const SpanLog::Totals& drains = logs[0].totals(kDrain);
  const SpanLog::Totals& advances = logs[0].totals(kAdvance);
  const SpanLog::Totals& merges = logs[1].totals(kMerge);
  const SpanLog::Totals& ingests = logs[3].totals(kIngest);
  const SpanLog::Totals& fleet_advances = logs[3].totals(kFleetAdvance);
  const auto per = [](std::int64_t ns, std::uint64_t n) {
    return n != 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  };
  report.layer("realtime.drain.ns_per_hb", per(drains.self_ns, cs.ingested),
               "ns");
  report.layer("realtime.drain.hb_per_call_p50", quantile(cs.batch, 0.5),
               "count", cs.batch.size());
  report.layer("realtime.drain.empty_ratio",
               cs.passes ? static_cast<double>(cs.empty_passes) /
                               static_cast<double>(cs.passes)
                         : 0.0,
               "ratio");
  std::vector<double> wait_ms;
  wait_ms.reserve(cs.wait_s.size());
  for (const double w : cs.wait_s) wait_ms.push_back(w * 1e3);
  report.layer("realtime.queue.wait_p50_ms", quantile(wait_ms, 0.5), "ms",
               wait_ms.size());
  report.layer("realtime.queue.wait_p99_ms", quantile(wait_ms, 0.99), "ms",
               wait_ms.size());
  report.layer("realtime.queue.depth_max", static_cast<double>(cs.depth_max),
               "count");
  report.layer("realtime.advance.us_per_call",
               per(advances.self_ns, advances.count) * 1e-3, "us",
               advances.count);
  const SubscriberStats& ss = topen.subscriber;
  report.layer("realtime.merge.ns_per_transition",
               per(merges.self_ns, ss.merged), "ns");
  report.layer("realtime.merge.us_p99", quantile(ss.merge_us, 0.99), "us",
               ss.merge_us.size());
  report.layer("realtime.consumer.busy_ratio",
               static_cast<double>(drains.self_ns + advances.self_ns) * 1e-9 /
                   topen.wall_s,
               "ratio");
  report.layer("realtime.shed_ratio",
               static_cast<double>(open.totals.shed_total()) /
                   static_cast<double>(open.totals.produced),
               "ratio");
  report.layer("fleet.ingest.ns_per_hb", per(ingests.self_ns, 1) / hb, "ns");
  if (counted) {
    report.layer("fleet.ingest.instructions_per_hb",
                 static_cast<double>(counted_a.counted.instructions) / hb,
                 "count");
    report.layer("fleet.ingest.cycles_per_hb",
                 static_cast<double>(counted_a.counted.cycles) / hb, "count");
    report.layer("fleet.ingest.llc_misses_per_hb",
                 static_cast<double>(counted_a.counted.llc_misses) / hb,
                 "count");
  } else {
    for (const char* n : {"fleet.ingest.instructions_per_hb",
                          "fleet.ingest.cycles_per_hb",
                          "fleet.ingest.llc_misses_per_hb"}) {
      report.layer_absent(n, "count", "unavailable");
    }
  }
  if (drain_counted.valid && drain.ingested != 0) {
    const auto ing = static_cast<double>(drain.ingested);
    report.layer("realtime.drain.instructions_per_hb",
                 static_cast<double>(drain_counted.instructions) / ing,
                 "count");
    report.layer("realtime.drain.llc_misses_per_hb",
                 static_cast<double>(drain_counted.llc_misses) / ing, "count");
  } else {
    report.layer_absent("realtime.drain.instructions_per_hb", "count",
                        "unavailable");
    report.layer_absent("realtime.drain.llc_misses_per_hb", "count",
                        "unavailable");
  }
  report.layer("fleet.advance.ns_per_suspect",
               per(fleet_advances.self_ns, ref.advance_suspects), "ns",
               ref.advance_suspects);
  report.layer("persist.encode.us", median(encode_us), "us", encode_us.size());
  report.layer("persist.encode.bytes", static_cast<double>(encoded_bytes), "B");
  report.layer("persist.save.ms_p50", median(save_ms), "ms", save_ms.size());
  report.layer("persist.restore.ms", median(restore_ms), "ms",
               restore_ms.size());
  report.layer("qos.extra_suspects", extra_suspects, "count");
  report.layer("bench.gen_late_p99_ms", late_p99_ms, "ms", open.late_s.size());
  report.layer("trace.overhead.lag_p50_ms", relative(tlag.lag_p50, lag.lag_p50),
               "ratio");
  report.layer("trace.overhead.lag_p99_ms", relative(tlag.lag_p99, lag.lag_p99),
               "ratio");
  report.layer("trace.overhead.detect_lag_p50_ms",
               relative(tlag.detect_p50, lag.detect_p50), "ratio");
  report.layer("trace.overhead.detect_lag_p99_ms",
               relative(tlag.detect_p99, lag.detect_p99), "ratio");
  report.layer("trace.overhead.capacity_hbps",
               relative(tclosed.window_hbps, closed.window_hbps), "ratio");

  const std::string path = opts.workdir + "/" + workload + "-seed" +
                           std::to_string(opts.seed) + ".spans.tsv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "thread\tbatch\tname\tparent\tstart_ns\tend_ns\tself_ns\n");
    for (const SpanLog& l : logs) l.write(f);
    std::fclose(f);
    std::printf("spans written to %s\n", path.c_str());
  }
}

}  // namespace perfbench
