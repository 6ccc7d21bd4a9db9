// chenfd_rtd — the real-time ingestion daemon (DESIGN.md section 14).
//
// Runs the RealtimeEngine (src/service/realtime/) in one of two modes:
//
//   chenfd_rtd --replay-smoke
//       Executes the canonical overload/stall/crash chaos scenarios across
//       the replay knob grid and checks byte-identity of every payload plus
//       the per-scenario oracles.  Exit 0 when the determinism contract
//       holds.  CI runs this under ASan/UBSan and TSan.
//
//   chenfd_rtd --live [options]
//       The actual daemon path: the same engine against a MonotonicClock,
//       with real producer threads generating heartbeat load, real consumer
//       threads draining shards, the watchdog supervising them, and
//       periodic snapshots persisted through a FileSnapshotStore.  On
//       startup a previous incarnation's snapshot (if any) is loaded, its
//       store-stamped age reported, and the fleet summary warm-restored.
//       Exits 1 when an oracle fails: the counter identity
//       produced == accepted + shed; per-process Suspect/Trust alternation
//       of the transition stream drained at exit, which starts from
//       all-suspect after a cold start and a warm restore alike; and, as no
//       fault is injected, zero watchdog restarts.  CI runs a short live
//       run under ASan/UBSan and TSan.
//
// Live options:
//   --processes N    monitored processes            (default 64)
//   --shards K       realtime shards                (default 4)
//   --consumers C    consumer threads               (default 2)
//   --rate HZ        per-process heartbeat rate     (default 10)
//   --duration S     run length in seconds          (default 2)
//   --policy P       drop-newest|drop-oldest|degrade-eta
//   --capacity N     logical queue capacity/shard   (default 1024)
//   --snapshot PATH  snapshot file (enables persistence)
//   --snapshot-interval S                           (default 0.5)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/verdict.hpp"
#include "persist/file_store.hpp"
#include "persist/snapshot.hpp"
#include "service/realtime/engine.hpp"
#include "service/realtime/monotonic_clock.hpp"
#include "service/realtime/replay.hpp"

namespace {

using namespace chenfd;

struct LiveConfig {
  std::size_t processes = 64;
  std::size_t shards = 4;
  std::size_t consumers = 2;
  double rate_hz = 10.0;
  double duration_s = 2.0;
  rt::OverloadPolicy policy = rt::OverloadPolicy::kDropNewest;
  std::size_t capacity = 1024;
  std::string snapshot_path;
  double snapshot_interval_s = 0.5;
};

bool parse_policy(const std::string& word, rt::OverloadPolicy& out) {
  if (word == "drop-newest") {
    out = rt::OverloadPolicy::kDropNewest;
  } else if (word == "drop-oldest") {
    out = rt::OverloadPolicy::kDropOldest;
  } else if (word == "degrade-eta") {
    out = rt::OverloadPolicy::kDegradeEta;
  } else {
    return false;
  }
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --replay-smoke\n"
               "       %s --live [--processes N] [--shards K] [--consumers C]"
               " [--rate HZ]\n"
               "                 [--duration S] [--policy P] [--capacity N]\n"
               "                 [--snapshot PATH] [--snapshot-interval S]\n",
               argv0, argv0);
  return 2;
}

// A structurally valid snapshot wrapping the engine's fleet summary.  The
// detector/estimator sections describe the per-process NFD-E template the
// engine runs (the fleet section is the part a restart actually consumes;
// see persist/snapshot.hpp on why it is a summary).
persist::MonitorSnapshot wrap_summary(const rt::RealtimeEngine& engine,
                                      const rt::RealtimeOptions& opts,
                                      TimePoint now) {
  persist::MonitorSnapshot snap;
  snap.taken_at_s = now.seconds();
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

// Transitions that break per-process Suspect/Trust alternation, every
// process starting suspected.
std::size_t alternation_breaks(const std::vector<fleet::Transition>& stream,
                               std::size_t processes) {
  std::vector<std::uint8_t> trusted(processes, 0);
  std::size_t breaks = 0;
  for (const fleet::Transition& t : stream) {
    const bool to_trust = t.to == Verdict::kTrust;
    if (t.process >= processes || (trusted[t.process] != 0) == to_trust) {
      ++breaks;
      continue;
    }
    trusted[t.process] = to_trust ? 1 : 0;
  }
  return breaks;
}

int run_live(const LiveConfig& cfg) {
  rt::MonotonicClock wall;

  rt::RealtimeOptions opts;
  opts.processes = cfg.processes;
  opts.shards = cfg.shards;
  opts.params.eta = seconds(1.0 / cfg.rate_hz);
  opts.params.alpha = seconds(2.0 / cfg.rate_hz);
  opts.queue_capacity = cfg.capacity;
  opts.policy = cfg.policy;
  opts.validate();

  rt::RealtimeEngine engine(opts, wall);

  // Previous incarnation's snapshot: report its store-stamped age, then
  // warm-restore the fleet summary when the payload checks out.
  std::optional<persist::FileSnapshotStore> store;
  if (!cfg.snapshot_path.empty()) {
    store.emplace(cfg.snapshot_path);
    if (const std::optional<persist::StoredSnapshot> prev = store->load()) {
      const double age_s = (wall.now() - prev->saved_at).seconds();
      try {
        const persist::MonitorSnapshot snap =
            persist::from_string(prev->bytes);
        std::printf("rtd: found snapshot, age %.3fs, fleet=%d\n", age_s,
                    snap.has_fleet ? 1 : 0);
        if (snap.has_fleet) {
          engine.restore_summary(snap.fleet, true);
          std::printf("rtd: warm-restored fleet summary (%llu processes)\n",
                      static_cast<unsigned long long>(snap.fleet.processes));
        }
      } catch (const persist::SnapshotError& e) {
        std::printf("rtd: stored snapshot rejected (%s), cold start\n",
                    e.what());
      }
    } else {
      std::printf("rtd: no usable snapshot at %s, cold start\n",
                  cfg.snapshot_path.c_str());
    }
  }

  // The longest a parked consumer waits with no offer, and so how often an
  // idle fleet's timing wheels advance.  Offers wake consumers at once, so
  // this does not delay ingestion.
  const Duration consumer_period = seconds(0.2 / cfg.rate_hz);
  const Duration watchdog_period = seconds(0.25);
  engine.start(cfg.consumers, consumer_period, watchdog_period);

  // Producer threads: each owns a contiguous slice of processes and sends
  // seq 1, 2, ... at the configured per-process rate.
  std::atomic<bool> producing{true};
  const std::size_t producer_count = std::min<std::size_t>(4, cfg.processes);
  std::vector<std::thread> producers;
  producers.reserve(producer_count);
  for (std::size_t t = 0; t < producer_count; ++t) {
    producers.emplace_back([&, t] {
      const std::size_t lo = cfg.processes * t / producer_count;
      const std::size_t hi = cfg.processes * (t + 1) / producer_count;
      const Duration tick = seconds(1.0 / cfg.rate_hz);
      net::SeqNo seq = 0;
      while (producing.load(std::memory_order_relaxed)) {
        ++seq;
        for (std::size_t p = lo; p < hi; ++p) {
          engine.offer_now(static_cast<fleet::ProcessIndex>(p), 0, seq);
        }
        wall.sleep_for(tick);
      }
    });
  }

  const TimePoint started = wall.now();
  TimePoint next_snapshot = started + seconds(cfg.snapshot_interval_s);
  while ((wall.now() - started).seconds() < cfg.duration_s) {
    wall.sleep_for(seconds(0.05));
    if (store && wall.now() >= next_snapshot) {
      const TimePoint now = wall.now();
      store->save(persist::to_string(wrap_summary(engine, opts, now)), now);
      next_snapshot = now + seconds(cfg.snapshot_interval_s);
    }
  }

  producing.store(false, std::memory_order_relaxed);
  for (std::thread& th : producers) th.join();
  engine.stop();

  // Final drain so the counters below satisfy the ingestion identity.
  const TimePoint end = wall.now();
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    (void)engine.drain_shard(s, end);
  }
  if (store) {
    store->save(persist::to_string(wrap_summary(engine, opts, end)), end);
    std::printf("rtd: final snapshot saved to %s\n", cfg.snapshot_path.c_str());
  }

  const rt::ShardCounters t = engine.totals();
  const std::vector<fleet::Transition> transitions = engine.drain_transitions();
  std::printf(
      "rtd: ran %.3fs, policy %s: produced %llu accepted %llu shed %llu "
      "consumed %llu restarts %llu transitions %zu\n",
      (end - started).seconds(), rt::name(cfg.policy),
      static_cast<unsigned long long>(t.produced),
      static_cast<unsigned long long>(t.accepted),
      static_cast<unsigned long long>(t.shed_total()),
      static_cast<unsigned long long>(t.consumed),
      static_cast<unsigned long long>(t.restarts), transitions.size());
  std::printf("rtd: qos_at_risk %d reason %s\n", engine.qos_at_risk() ? 1 : 0,
              rt::name(engine.risk_reason()));

  int status = 0;
  if (t.produced != t.accepted + t.shed_total()) {
    std::fprintf(stderr, "rtd: FAIL counter identity violated\n");
    status = 1;
  }
  const std::size_t breaks = alternation_breaks(transitions, cfg.processes);
  if (breaks != 0) {
    std::fprintf(stderr,
                 "rtd: FAIL %zu transitions break Suspect/Trust alternation\n",
                 breaks);
    status = 1;
  }
  if (t.restarts != 0) {
    std::fprintf(stderr,
                 "rtd: FAIL %llu watchdog restarts with no injected fault\n",
                 static_cast<unsigned long long>(t.restarts));
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--replay-smoke") == 0) {
    return rt::replay_smoke(std::cout) ? 0 : 1;
  }
  if (argc < 2 || std::strcmp(argv[1], "--live") != 0) return usage(argv[0]);

  LiveConfig cfg;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "chenfd_rtd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--processes") {
      cfg.processes = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--shards") {
      cfg.shards = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--consumers") {
      cfg.consumers = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--rate") {
      cfg.rate_hz = std::strtod(next(), nullptr);
    } else if (arg == "--duration") {
      cfg.duration_s = std::strtod(next(), nullptr);
    } else if (arg == "--capacity") {
      cfg.capacity = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--policy") {
      if (!parse_policy(next(), cfg.policy)) {
        std::fprintf(stderr, "chenfd_rtd: unknown policy\n");
        return 2;
      }
    } else if (arg == "--snapshot") {
      cfg.snapshot_path = next();
    } else if (arg == "--snapshot-interval") {
      cfg.snapshot_interval_s = std::strtod(next(), nullptr);
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.processes == 0 || cfg.shards == 0 || cfg.consumers == 0 ||
      cfg.rate_hz <= 0.0 || cfg.duration_s <= 0.0 || cfg.capacity == 0) {
    std::fprintf(stderr, "chenfd_rtd: invalid configuration\n");
    return 2;
  }
  try {
    return run_live(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chenfd_rtd: fatal: %s\n", e.what());
    return 1;
  }
}
