// Tests for the realtime ingestion front-end (DESIGN.md section 14):
// the MPSC ring, the shedding/watchdog policies, the RealtimeEngine's
// counter identity and latched risk, warm restarts, and the replay
// harness's knob-independence contract.
//
// The threaded cases (MultiProducer*, Live*) are the TSan targets: they
// exercise the producer path concurrently with a draining/stalled/killed/
// parked consumer and assert the lock-free bookkeeping stays exact, that an
// offer wakes a parked consumer long before its period, and that the
// watchdog never restarts a consumer that is only starting or stopping.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "service/realtime/engine.hpp"
#include "service/realtime/monotonic_clock.hpp"
#include "service/realtime/mpsc_queue.hpp"
#include "service/realtime/policies.hpp"
#include "service/realtime/replay.hpp"
#include "service/realtime/time_source.hpp"

namespace chenfd::rt {
namespace {

// ---------------------------------------------------------------------------
// MpscQueue
// ---------------------------------------------------------------------------

TEST(MpscQueue, CeilPow2) {
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(64), 64u);
  EXPECT_EQ(ceil_pow2(65), 128u);
}

TEST(MpscQueue, FifoOrderAndBoundedCapacity) {
  MpscQueue<int> q(5);  // rounds up to 8
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full: fails immediately, never blocks
  EXPECT_EQ(q.size(), 8u);

  int out = -1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_TRUE(q.try_push(8));  // freed slots are reusable (ring laps)

  int batch[8] = {};
  const std::size_t n = q.pop_batch(batch, 8);
  ASSERT_EQ(n, 6u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], static_cast<int>(i) + 3);
  }
  EXPECT_TRUE(q.empty());
  ASSERT_FALSE(q.try_pop(out));
}

TEST(MpscQueue, MultiProducerAccountingIsExact) {
  // TSan target: several producers race into a small ring while one
  // consumer drains.  Every push either succeeds or reports full, and the
  // consumer sees exactly the successful ones, per-producer in order.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  MpscQueue<std::uint64_t> q(64);

  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &pushed, &rejected, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t token =
            (static_cast<std::uint64_t>(p) << 32U) |
            static_cast<std::uint64_t>(i);
        if (q.try_push(token)) {
          pushed.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::uint64_t popped = 0;
  std::vector<std::uint64_t> last_seen(kProducers, 0);
  std::vector<bool> seen_any(kProducers, false);
  std::thread consumer([&] {
    std::uint64_t token = 0;
    for (;;) {
      if (q.try_pop(token)) {
        ++popped;
        const auto p = static_cast<std::size_t>(token >> 32U);
        const std::uint64_t i = token & 0xffffffffULL;
        if (seen_any[p]) {
          EXPECT_GT(i, last_seen[p]);  // per-producer FIFO
        }
        last_seen[p] = i;
        seen_any[p] = true;
      } else if (done.load(std::memory_order_acquire)) {
        if (!q.try_pop(token)) break;
        ++popped;
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(pushed.load() + rejected.load(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(popped, pushed.load());
  EXPECT_GT(pushed.load(), 0u);
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

TEST(RiskLatch, FirstReasonSticks) {
  RiskLatch latch;
  EXPECT_FALSE(latch.engaged());
  EXPECT_EQ(latch.reason(), RiskReason::kNone);
  EXPECT_TRUE(latch.latch(RiskReason::kOverload));
  EXPECT_FALSE(latch.latch(RiskReason::kWatchdogRestart));  // lost the race
  EXPECT_EQ(latch.reason(), RiskReason::kOverload);
  latch.reset();
  EXPECT_FALSE(latch.engaged());
  EXPECT_TRUE(latch.latch(RiskReason::kConsumerStall));
  EXPECT_EQ(latch.reason(), RiskReason::kConsumerStall);
}

TEST(Policies, Names) {
  EXPECT_STREQ(name(OverloadPolicy::kDropNewest), "drop-newest");
  EXPECT_STREQ(name(OverloadPolicy::kDropOldest), "drop-oldest");
  EXPECT_STREQ(name(OverloadPolicy::kDegradeEta), "degrade-eta");
  EXPECT_STREQ(name(RiskReason::kNone), "none");
  EXPECT_STREQ(name(RiskReason::kOverload), "overload");
  EXPECT_STREQ(name(RiskReason::kConsumerStall), "consumer-stall");
  EXPECT_STREQ(name(RiskReason::kWatchdogRestart), "watchdog-restart");
}

TEST(WatchdogPolicy, StallDetectionAndBoundedBackoff) {
  WatchdogConfig cfg;
  cfg.stall_timeout = seconds(2.0);
  cfg.backoff_base = seconds(1.0);
  cfg.backoff_cap = seconds(4.0);
  cfg.healthy_interval = seconds(10.0);
  WatchdogPolicy wd(cfg);

  // Healthy: progress recent, queue nonempty.
  wd.note_progress(TimePoint(1.0));
  EXPECT_EQ(wd.poll(TimePoint(2.0), true, true), WatchdogAction::kNone);
  // An empty queue is never a stall, no matter how stale progress is.
  EXPECT_EQ(wd.poll(TimePoint(100.0), true, false), WatchdogAction::kNone);

  // Stall: no progress for >= stall_timeout with work waiting.
  EXPECT_EQ(wd.poll(TimePoint(103.0), true, true), WatchdogAction::kRestart);
  EXPECT_EQ(wd.consecutive_restarts(), 1);
  // Inside the backoff window nothing restarts again...
  EXPECT_EQ(wd.poll(TimePoint(103.5), false, true), WatchdogAction::kBackoff);
  // ...and each restart doubles the delay: 1, 2, 4, then capped at 4.
  EXPECT_EQ(wd.poll(TimePoint(106.0), false, true), WatchdogAction::kRestart);
  EXPECT_EQ(wd.next_allowed_restart(), TimePoint(108.0));
  EXPECT_EQ(wd.poll(TimePoint(108.0), false, true), WatchdogAction::kRestart);
  EXPECT_EQ(wd.next_allowed_restart(), TimePoint(112.0));
  EXPECT_EQ(wd.poll(TimePoint(112.0), false, true), WatchdogAction::kRestart);
  EXPECT_EQ(wd.next_allowed_restart(), TimePoint(116.0));  // capped
  EXPECT_EQ(wd.consecutive_restarts(), 4);

  // A healthy_interval of progress after the last restart resets the streak.
  wd.note_progress(TimePoint(113.0));
  wd.note_progress(TimePoint(123.0));
  EXPECT_EQ(wd.consecutive_restarts(), 0);
}

TEST(WatchdogPolicy, DeadConsumerIsStalledEvenWithEmptyQueue) {
  WatchdogConfig cfg;
  cfg.stall_timeout = seconds(2.0);
  cfg.backoff_base = seconds(1.0);
  cfg.backoff_cap = seconds(4.0);
  WatchdogPolicy wd(cfg);
  wd.note_progress(TimePoint(0.5));
  EXPECT_EQ(wd.poll(TimePoint(1.0), false, false), WatchdogAction::kRestart);
}

// ---------------------------------------------------------------------------
// Engine shedding policies (deterministic, virtual time)
// ---------------------------------------------------------------------------

RealtimeOptions small_engine(OverloadPolicy policy) {
  RealtimeOptions opts;
  opts.processes = 4;
  opts.shards = 1;
  opts.params.eta = seconds(1.0);
  opts.params.alpha = seconds(2.0);
  opts.queue_capacity = 8;
  opts.policy = policy;
  return opts;
}

void expect_identity(const ShardCounters& c) {
  EXPECT_EQ(c.produced, c.accepted + c.shed_total());
}

TEST(RealtimeEngine, DropNewestShedsAtCapacityAndLatchesRisk) {
  VirtualTimeSource time;
  RealtimeEngine engine(small_engine(OverloadPolicy::kDropNewest), time);
  EXPECT_FALSE(engine.qos_at_risk());

  std::uint64_t admitted = 0;
  for (net::SeqNo seq = 1; seq <= 20; ++seq) {
    if (engine.offer(fleet::Heartbeat{0, 0, seq, TimePoint(0.01 * seq)})) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 8u);  // the logical bound, not the physical ring
  ShardCounters c = engine.counters(0);
  EXPECT_EQ(c.produced, 20u);
  EXPECT_EQ(c.shed_newest, 12u);
  EXPECT_EQ(c.shed_overflow, 0u);
  EXPECT_TRUE(engine.qos_at_risk());
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);
  EXPECT_EQ(engine.shard_risk(0), RiskReason::kOverload);

  time.advance(TimePoint(1.0));
  EXPECT_EQ(engine.drain_shard(0, TimePoint(1.0)), 8u);
  c = engine.counters(0);
  EXPECT_EQ(c.accepted, 8u);
  EXPECT_EQ(c.consumed, 8u);
  expect_identity(c);
  EXPECT_EQ(engine.pending(0), 0u);
  // The survivors reached the monitor: the sender is trusted.
  EXPECT_EQ(engine.verdict(0), Verdict::kTrust);
}

TEST(RealtimeEngine, DropOldestAdmitsAllAndShedsBacklogAtDrain) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropOldest);
  opts.ring_capacity = 32;  // physical headroom so nothing overflows here
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);

  for (net::SeqNo seq = 1; seq <= 20; ++seq) {
    EXPECT_TRUE(engine.offer(fleet::Heartbeat{1, 0, seq, TimePoint(0.01 * seq)}));
  }
  EXPECT_EQ(engine.pending(0), 20u);  // everything admitted

  time.advance(TimePoint(1.0));
  // Only the newest queue_capacity items survive the drain.
  EXPECT_EQ(engine.drain_shard(0, TimePoint(1.0)), 8u);
  const ShardCounters c = engine.counters(0);
  EXPECT_EQ(c.produced, 20u);
  EXPECT_EQ(c.consumed, 20u);
  EXPECT_EQ(c.shed_oldest, 12u);
  EXPECT_EQ(c.accepted, 8u);
  expect_identity(c);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);
}

TEST(RealtimeEngine, DropOldestRingOverflowIsCountedNotFatal) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropOldest);
  opts.queue_capacity = 4;  // ring defaults to 8 slots
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);
  std::uint64_t admitted = 0;
  for (net::SeqNo seq = 1; seq <= 12; ++seq) {
    if (engine.offer(fleet::Heartbeat{0, 0, seq, TimePoint(0.01 * seq)})) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 8u);  // the ring is the memory backstop
  ShardCounters c = engine.counters(0);
  EXPECT_EQ(c.shed_overflow, 4u);
  time.advance(TimePoint(1.0));
  engine.drain_shard(0, TimePoint(1.0));
  c = engine.counters(0);
  EXPECT_EQ(c.shed_oldest, 4u);  // 8 popped, capacity 4 kept
  EXPECT_EQ(c.accepted, 4u);
  expect_identity(c);
}

TEST(RealtimeEngine, DegradeEtaThinsAboveWatermarkThenShedsAtFull) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDegradeEta);
  opts.degrade_watermark = 0.5;  // thinning starts at occupancy 4
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);

  // Sequences 1..4 fill to the watermark; above it odd sequences are
  // thinned (effective eta doubles); at full occupancy even sequences are
  // shed bounded-admit style.
  for (net::SeqNo seq = 1; seq <= 24; ++seq) {
    engine.offer(fleet::Heartbeat{2, 0, seq, TimePoint(0.01 * seq)});
  }
  ShardCounters c = engine.counters(0);
  EXPECT_EQ(c.produced, 24u);
  EXPECT_GT(c.shed_degraded, 0u);  // thinned in the watermark band
  EXPECT_GT(c.shed_newest, 0u);    // rejected at full
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);

  time.advance(TimePoint(1.0));
  engine.drain_shard(0, TimePoint(1.0));
  expect_identity(engine.counters(0));
}

// ---------------------------------------------------------------------------
// Engine watchdog, warm restart, latched risk
// ---------------------------------------------------------------------------

TEST(RealtimeEngine, WatchdogRestartsStalledShardAndRiskSurvivesRecovery) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropNewest);
  opts.watchdog.stall_timeout = seconds(2.0);
  opts.watchdog.backoff_base = seconds(1.0);
  opts.watchdog.backoff_cap = seconds(4.0);
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);

  // Work arrives but nobody drains: after stall_timeout the watchdog
  // flags the (alive but stuck) consumer.
  ASSERT_TRUE(engine.offer(fleet::Heartbeat{0, 0, 1, TimePoint(0.1)}));
  EXPECT_EQ(engine.poll_watchdog(0, TimePoint(0.5), true),
            WatchdogAction::kNone);
  EXPECT_FALSE(engine.qos_at_risk());
  EXPECT_EQ(engine.poll_watchdog(0, TimePoint(3.0), true),
            WatchdogAction::kRestart);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kConsumerStall);

  engine.warm_restart_shard(0, TimePoint(3.0));
  EXPECT_EQ(engine.counters(0).restarts, 1u);

  // Recovery: the queue drains fine afterwards — but the latched reason
  // must survive (operators need "was it ever degraded").
  time.advance(TimePoint(4.0));
  EXPECT_EQ(engine.drain_shard(0, TimePoint(4.0)), 1u);
  expect_identity(engine.counters(0));
  EXPECT_TRUE(engine.qos_at_risk());
  EXPECT_EQ(engine.risk_reason(), RiskReason::kConsumerStall);
}

TEST(RealtimeEngine, WarmRestartLosesNoEmittedTransitions) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropNewest);
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);

  ASSERT_TRUE(engine.offer(fleet::Heartbeat{0, 0, 1, TimePoint(0.1)}));
  ASSERT_TRUE(engine.offer(fleet::Heartbeat{1, 0, 1, TimePoint(0.2)}));
  time.advance(TimePoint(0.5));
  engine.drain_shard(0, TimePoint(0.5));
  // The trust transitions are pending inside the monitor; a warm restart
  // must move them into the engine-side log, not drop them.
  engine.warm_restart_shard(0, TimePoint(0.6));

  const std::vector<fleet::Transition> out = engine.drain_transitions();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].at, TimePoint(0.1));
  EXPECT_EQ(out[0].process, 0u);
  EXPECT_EQ(out[0].to, Verdict::kTrust);
  EXPECT_EQ(out[1].process, 1u);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kWatchdogRestart);
}

TEST(RealtimeEngine, ShardOfPartitionsBalancedAndCountersSumAcrossShards) {
  RealtimeOptions opts;
  opts.processes = 10;
  opts.shards = 3;  // 4 + 3 + 3
  opts.params.eta = seconds(1.0);
  opts.params.alpha = seconds(2.0);
  opts.queue_capacity = 4;
  VirtualTimeSource time;
  RealtimeEngine engine(opts, time);
  ASSERT_EQ(engine.shard_count(), 3u);
  EXPECT_EQ(engine.shard_of(0), 0u);
  EXPECT_EQ(engine.shard_of(3), 0u);
  EXPECT_EQ(engine.shard_of(4), 1u);
  EXPECT_EQ(engine.shard_of(6), 1u);
  EXPECT_EQ(engine.shard_of(7), 2u);
  EXPECT_EQ(engine.shard_of(9), 2u);

  for (fleet::ProcessIndex p = 0; p < 10; ++p) {
    ASSERT_TRUE(engine.offer(
        fleet::Heartbeat{p, 0, 1, TimePoint(0.1 + 0.001 * p)}));
  }
  time.advance(TimePoint(1.0));
  for (std::size_t s = 0; s < 3; ++s) engine.drain_shard(s, TimePoint(1.0));
  const ShardCounters total = engine.totals();
  EXPECT_EQ(total.produced, 10u);
  EXPECT_EQ(total.accepted, 10u);
  expect_identity(total);
  // Transitions come back in global process ids, in (time, process) order.
  const auto out = engine.drain_transitions();
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].process, static_cast<fleet::ProcessIndex>(i));
  }
}

// ---------------------------------------------------------------------------
// Epoch rebase (wall-clock timestamps must not reach the timing wheel raw)
// ---------------------------------------------------------------------------

TEST(RealtimeEngine, RebasesWallEpochTimesAndMapsTransitionsBack) {
  // A time source that starts at a wall-like epoch: without the rebase the
  // first advance would try ~1e11 wheel ticks and effectively hang.
  constexpr double kEpoch = 1.7e9;
  VirtualTimeSource time{TimePoint(kEpoch)};
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropNewest);
  RealtimeEngine engine(opts, time);

  ASSERT_TRUE(engine.offer(fleet::Heartbeat{0, 0, 1, TimePoint(kEpoch + 0.5)}));
  time.advance(TimePoint(kEpoch + 1.0));
  EXPECT_EQ(engine.drain_shard(0, time.now()), 1u);
  engine.advance(time.now());
  const auto out = engine.drain_transitions();
  ASSERT_EQ(out.size(), 1u);
  // Output timestamps are in *source* time, not engine time.
  EXPECT_DOUBLE_EQ(out[0].at.seconds(), kEpoch + 0.5);
  EXPECT_EQ(out[0].to, Verdict::kTrust);
}

// ---------------------------------------------------------------------------
// Replay determinism
// ---------------------------------------------------------------------------

TEST(Replay, PayloadIsByteIdenticalAcrossKnobs) {
  const std::vector<ReplayScenario> scenarios = smoke_scenarios();
  ASSERT_FALSE(scenarios.empty());
  const ReplayScenario& sc = scenarios.front();

  const ReplayResult base = run_replay(sc, ReplayKnobs{1, 0, 64});
  EXPECT_FALSE(base.payload.empty());
  expect_identity(base.totals);

  const ReplayKnobs grid[] = {
      {2, 0, 64}, {3, 0, 1}, {1, 4096, 7}, {4, 1024, 128}};
  for (const ReplayKnobs& knobs : grid) {
    const ReplayResult r = run_replay(sc, knobs);
    EXPECT_EQ(r.payload, base.payload);
    EXPECT_EQ(r.crc, base.crc);
  }
}

TEST(Replay, SmokeScenarioOraclesHold) {
  std::ostringstream diag;
  EXPECT_TRUE(replay_smoke(diag)) << diag.str();
}

// ---------------------------------------------------------------------------
// Live mode (threaded; the TSan scenarios from ISSUE acceptance)
// ---------------------------------------------------------------------------

TEST(RealtimeLive, ProducersOutrunningStalledConsumerShedAndNeverBlock) {
  RealtimeOptions opts;
  opts.processes = 8;
  opts.shards = 2;
  opts.params.eta = seconds(1.0);
  opts.params.alpha = seconds(2.0);
  opts.queue_capacity = 16;
  opts.policy = OverloadPolicy::kDropNewest;
  VirtualTimeSource time(TimePoint(5.0));
  RealtimeEngine engine(opts, time);

  engine.start(2, seconds(0.01), seconds(0.05));
  engine.stall_consumer(0, true);
  engine.stall_consumer(1, true);

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto proc = static_cast<fleet::ProcessIndex>((p + i) % 8);
        engine.offer_now(proc, 0, static_cast<net::SeqNo>(i + 1));
      }
    });
  }
  // The producers finish although nobody drains: offer() never blocks.
  for (std::thread& t : producers) t.join();

  EXPECT_TRUE(engine.qos_at_risk());
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);

  // Un-stall, let the consumers catch up, then stop and settle.
  engine.stall_consumer(0, false);
  engine.stall_consumer(1, false);
  engine.stop();
  time.advance(TimePoint(6.0));
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    engine.drain_shard(s, time.now());
  }

  const ShardCounters total = engine.totals();
  EXPECT_EQ(total.produced,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  expect_identity(total);
  EXPECT_GT(total.shed_newest, 0u);
  // Recovery must not wash out the latched reason.
  EXPECT_TRUE(engine.qos_at_risk());
  EXPECT_EQ(engine.risk_reason(), RiskReason::kOverload);
}

TEST(RealtimeLive, KilledConsumerIsRespawnedWithinBackoffBound) {
  RealtimeOptions opts;
  opts.processes = 4;
  opts.shards = 1;
  opts.params.eta = seconds(1.0);
  opts.params.alpha = seconds(2.0);
  opts.queue_capacity = 64;
  opts.watchdog.stall_timeout = seconds(0.05);
  opts.watchdog.backoff_base = seconds(0.05);
  opts.watchdog.backoff_cap = seconds(0.2);
  MonotonicClock clock;
  RealtimeEngine engine(opts, clock);

  engine.start(1, seconds(0.002), seconds(0.01));
  engine.kill_consumer(0);
  // Keep work visible so the dead consumer counts as stalled.
  ASSERT_TRUE(engine.offer_now(0, 0, 1));

  // The watchdog must warm-restart and respawn within the backoff bound;
  // allow generous wall slack for CI, but the expected latency is
  // stall-detection + one backoff step (well under a second).
  const TimePoint deadline = clock.now() + seconds(10.0);
  while (engine.counters(0).restarts == 0 && clock.now() < deadline) {
    clock.sleep_for(seconds(0.005));
  }
  EXPECT_GE(engine.counters(0).restarts, 1u);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kWatchdogRestart);

  // The respawned consumer makes progress again: the queued heartbeat and
  // fresh ones get consumed.
  ASSERT_TRUE(engine.offer_now(1, 0, 1));
  while (engine.totals().consumed < 2 && clock.now() < deadline) {
    clock.sleep_for(seconds(0.005));
  }
  EXPECT_GE(engine.totals().consumed, 2u);

  engine.stop();
  expect_identity(engine.totals());
}

// ---- doorbell: offers wake parked consumers; stop() is prompt -----------

RealtimeOptions live_engine(std::size_t processes, std::size_t shards) {
  RealtimeOptions opts;
  opts.processes = processes;
  opts.shards = shards;
  opts.params.eta = seconds(1.0);
  opts.params.alpha = seconds(2.0);
  opts.queue_capacity = 1024;
  return opts;
}

TEST(RealtimeLive, OfferWakesParkedConsumerWellBeforeItsPeriod) {
  MonotonicClock clock;
  RealtimeEngine engine(live_engine(4, 1), clock);
  engine.start(1, seconds(1.0), seconds(0.05));
  // The consumer's first pass finds nothing and parks for up to 1 s.
  clock.sleep_for(seconds(0.02));
  const TimePoint offered = clock.now();
  ASSERT_TRUE(engine.offer_now(0, 0, 1));

  bool trusted = false;
  TimePoint seen = offered;
  const TimePoint deadline = offered + seconds(5.0);
  while (!trusted && clock.now() < deadline) {
    for (const fleet::Transition& t : engine.drain_transitions()) {
      if (t.process == 0 && t.to == Verdict::kTrust) trusted = true;
    }
    seen = clock.now();
    if (!trusted) clock.sleep_for(seconds(0.0005));
  }
  engine.stop();
  ASSERT_TRUE(trusted);
  EXPECT_LT((seen - offered).seconds(), 0.1);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kNone);
}

TEST(RealtimeLive, StopWakesParkedThreadsAtOnce) {
  MonotonicClock clock;
  RealtimeEngine engine(live_engine(4, 2), clock);
  engine.start(2, seconds(10.0), seconds(10.0));
  clock.sleep_for(seconds(0.02));  // both consumers and the watchdog park
  const TimePoint asked = clock.now();
  engine.stop();
  EXPECT_LT((clock.now() - asked).seconds(), 1.0);
  EXPECT_EQ(engine.totals().restarts, 0u);
}

TEST(RealtimeLive, SparseBurstsFromManyProducersAreConsumedWithinTheBound) {
  constexpr std::size_t kProcesses = 24;
  constexpr int kProducers = 3;
  constexpr int kRounds = 25;
  constexpr int kBurst = 16;
  // Consumers park between bursts; only the doorbell can wake them well
  // before the 2 s period.
  constexpr double kBound = 0.5;
  MonotonicClock clock;
  RealtimeEngine engine(live_engine(kProcesses, 4), clock);
  engine.start(2, seconds(2.0), seconds(0.05));

  std::vector<net::SeqNo> seq(kProcesses, 0);
  double worst = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      // Producer p owns processes p, p + kProducers, ...: each process's
      // sequence numbers stay increasing without sharing.
      producers.emplace_back([&engine, &seq, p] {
        for (int i = 0; i < kBurst; ++i) {
          const std::size_t proc =
              static_cast<std::size_t>(p) +
              static_cast<std::size_t>(kProducers) *
                  static_cast<std::size_t>(i % (kProcesses / kProducers));
          engine.offer_now(static_cast<fleet::ProcessIndex>(proc), 0,
                           ++seq[proc]);
        }
      });
    }
    for (std::thread& t : producers) t.join();
    const TimePoint sent = clock.now();
    const std::uint64_t produced = engine.totals().produced;
    const TimePoint deadline = sent + seconds(5.0);
    while (engine.totals().consumed < produced && clock.now() < deadline) {
      clock.sleep_for(seconds(0.0002));
    }
    ASSERT_EQ(engine.totals().consumed, produced) << "round " << round;
    worst = std::max(worst, (clock.now() - sent).seconds());
    // Leave the consumers time to park before the next burst.
    clock.sleep_for(seconds(0.002 + 0.001 * (round % 5)));
  }
  engine.stop();
  EXPECT_LT(worst, kBound);

  const ShardCounters total = engine.totals();
  EXPECT_EQ(total.produced,
            static_cast<std::uint64_t>(kProducers) * kRounds * kBurst);
  expect_identity(total);
  EXPECT_EQ(total.shed_total(), 0u);
  EXPECT_EQ(total.restarts, 0u);
}

// ---- watchdog start-up race ---------------------------------------------

TEST(RealtimeLive, StartStopCyclesNeverRestartAConsumer) {
  // Consumers are marked alive before their threads launch and a consumer
  // that leaves its loop because stop() began is not dead, so neither the
  // watchdog's first poll nor its last may restart anything.
  MonotonicClock clock;
  RealtimeEngine engine(live_engine(4, 4), clock);
  for (int cycle = 0; cycle < 200; ++cycle) {
    engine.start(2, seconds(0.01), seconds(0.001));
    engine.stop();
  }
  EXPECT_EQ(engine.totals().restarts, 0u);
  EXPECT_EQ(engine.risk_reason(), RiskReason::kNone);
}

// ---------------------------------------------------------------------------
// Option validation
// ---------------------------------------------------------------------------

TEST(RealtimeOptions, ValidateRejectsMisuse) {
  RealtimeOptions opts = small_engine(OverloadPolicy::kDropNewest);
  opts.shards = 8;  // more shards than processes
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = small_engine(OverloadPolicy::kDropNewest);
  opts.queue_capacity = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = small_engine(OverloadPolicy::kDropNewest);
  opts.ring_capacity = 4;  // < queue_capacity
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = small_engine(OverloadPolicy::kDropNewest);
  opts.degrade_watermark = 0.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = small_engine(OverloadPolicy::kDropNewest);
  opts.watchdog.backoff_cap = seconds(0.1);  // < base
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace chenfd::rt
