#include "service/realtime/engine.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace chenfd::rt {

void RealtimeOptions::validate() const {
  CHENFD_EXPECTS(processes >= 1, "RealtimeOptions: processes must be >= 1");
  CHENFD_EXPECTS(shards >= 1, "RealtimeOptions: shards must be >= 1");
  CHENFD_EXPECTS(shards <= processes,
                 "RealtimeOptions: more shards than processes");
  params.validate();
  CHENFD_EXPECTS(wheel_resolution >= Duration::zero(),
                 "RealtimeOptions: wheel resolution must be >= 0");
  CHENFD_EXPECTS(queue_capacity >= 1,
                 "RealtimeOptions: queue_capacity must be >= 1");
  CHENFD_EXPECTS(ring_capacity == 0 || ring_capacity >= queue_capacity,
                 "RealtimeOptions: ring_capacity must be >= queue_capacity "
                 "(the physical ring absorbs the logical admission bound)");
  CHENFD_EXPECTS(degrade_watermark > 0.0 && degrade_watermark <= 1.0,
                 "RealtimeOptions: degrade_watermark must be in (0, 1]");
  CHENFD_EXPECTS(drain_chunk >= 1, "RealtimeOptions: drain_chunk must be >= 1");
  watchdog.validate();
}

// ---------------------------------------------------------------------------
// Shard state
// ---------------------------------------------------------------------------

struct RealtimeEngine::Shard {
  Shard(const fleet::FleetOptions& fleet_opts, std::size_t ring_capacity,
        const WatchdogConfig& wd)
      : opts(fleet_opts),
        queue(ring_capacity),
        monitor(std::make_unique<fleet::FleetMonitor>(fleet_opts)),
        watchdog(wd) {}

  fleet::FleetOptions opts;  ///< single-shard options with first_process set

  // ---- producer-facing (lock-free) ----
  MpscQueue<fleet::Heartbeat> queue;
  /// Logical pushed-minus-popped.  Also the doorbell handshake's "is there
  /// work" word: producers change it with seq_cst RMWs before they read the
  /// bell, and a parking consumer reads it after publishing kParked.
  std::atomic<std::size_t> occupancy{0};
  /// Doorbell of the consumer thread that owns this shard (null until the
  /// first start()).
  std::atomic<Bell*> bell{nullptr};
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> shed_newest{0};
  std::atomic<std::uint64_t> shed_degraded{0};
  std::atomic<std::uint64_t> shed_overflow{0};
  RiskLatch risk;

  // ---- consumer/watchdog side (under mutex; producers never take it) ----
  mutable std::mutex mutex;
  std::unique_ptr<fleet::FleetMonitor> monitor;
  std::vector<fleet::Transition> transitions;  ///< survives warm restarts
  std::vector<fleet::Heartbeat> scratch;
  double ingest_floor_s = 0.0;  ///< max(ingested arrivals, advance targets)
  WatchdogPolicy watchdog;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> shed_oldest{0};
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> restarts{0};
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

RealtimeEngine::RealtimeEngine(RealtimeOptions opts, TimeSource& time)
    : opts_(opts), time_(time) {
  opts_.validate();
  base_s_ = time_.now().seconds();
  base_members_ = opts_.processes / opts_.shards;
  big_shards_ = opts_.processes % opts_.shards;
  shards_.reserve(opts_.shards);
  fleet::ProcessIndex first = 0;
  for (std::size_t s = 0; s < opts_.shards; ++s) {
    const std::size_t members = base_members_ + (s < big_shards_ ? 1 : 0);
    fleet::FleetOptions fleet_opts;
    fleet_opts.processes = members;
    fleet_opts.shards = 1;
    fleet_opts.params = opts_.params;
    fleet_opts.wheel_resolution = opts_.wheel_resolution;
    fleet_opts.first_process = first;
    shards_.push_back(std::make_unique<Shard>(
        fleet_opts, opts_.effective_ring_capacity(), opts_.watchdog));
    first += static_cast<fleet::ProcessIndex>(members);
  }
}

RealtimeEngine::~RealtimeEngine() { stop(); }

std::size_t RealtimeEngine::shard_of(fleet::ProcessIndex id) const {
  CHENFD_EXPECTS(id < opts_.processes,
                 "RealtimeEngine::shard_of: process index out of range");
  const std::size_t big_span = big_shards_ * (base_members_ + 1);
  if (id < big_span) return id / (base_members_ + 1);
  return big_shards_ + (id - big_span) / base_members_;
}

// ---------------------------------------------------------------------------
// Producer path
// ---------------------------------------------------------------------------

void RealtimeEngine::latch(Shard& shard, RiskReason reason) {
  shard.risk.latch(reason);
  risk_.latch(reason);
}

bool RealtimeEngine::admit_bounded(Shard& shard, const fleet::Heartbeat& hb) {
  // Reserve a logical slot first; the reservation (not a re-read) is the
  // admission decision, so concurrent producers can never exceed the bound.
  const std::size_t occ =
      shard.occupancy.fetch_add(1, std::memory_order_seq_cst);
  if (occ >= opts_.queue_capacity) {
    shard.occupancy.fetch_sub(1, std::memory_order_seq_cst);
    shard.shed_newest.fetch_add(1, std::memory_order_relaxed);
    latch(shard, RiskReason::kOverload);
    return false;
  }
  if (!shard.queue.try_push(hb)) {
    // Physical backstop — unreachable while ring_capacity >= queue_capacity
    // (validated), kept as a counted safety net rather than an assumption.
    shard.occupancy.fetch_sub(1, std::memory_order_seq_cst);
    shard.shed_overflow.fetch_add(1, std::memory_order_relaxed);
    latch(shard, RiskReason::kOverload);
    return false;
  }
  return true;
}

bool RealtimeEngine::offer(const fleet::Heartbeat& hb) {
  CHENFD_EXPECTS(hb.seq >= 1,
                 "RealtimeEngine::offer: sequence numbers start at 1");
  Shard& shard = *shards_[shard_of(hb.process)];
  shard.produced.fetch_add(1, std::memory_order_relaxed);
  fleet::Heartbeat rebased = hb;
  rebased.arrival = to_engine(hb.arrival);
  bool admitted = false;
  switch (opts_.policy) {
    case OverloadPolicy::kDropNewest:
      admitted = admit_bounded(shard, rebased);
      break;
    case OverloadPolicy::kDegradeEta: {
      const std::size_t occ =
          shard.occupancy.load(std::memory_order_acquire);
      const auto watermark = static_cast<std::size_t>(
          opts_.degrade_watermark *
          static_cast<double>(opts_.queue_capacity));
      if (occ < opts_.queue_capacity && occ >= watermark &&
          (hb.seq % 2) == 1) {
        // Thin to even sequence numbers: effective eta doubles, NFD-E's
        // freshness estimate absorbs the gaps.  At full we fall through to
        // the bounded admit, which sheds as drop-newest.
        shard.shed_degraded.fetch_add(1, std::memory_order_relaxed);
        latch(shard, RiskReason::kOverload);
        return false;
      }
      admitted = admit_bounded(shard, rebased);
      break;
    }
    case OverloadPolicy::kDropOldest: {
      // Always admit; the consumer sheds the *oldest* backlog at drain.
      // The physical ring is the memory backstop.
      if (!shard.queue.try_push(rebased)) {
        shard.shed_overflow.fetch_add(1, std::memory_order_relaxed);
        latch(shard, RiskReason::kOverload);
        return false;
      }
      shard.occupancy.fetch_add(1, std::memory_order_seq_cst);
      admitted = true;
      break;
    }
  }
  if (admitted) ring_if_parked(shard);
  return admitted;
}

// The producer half of the doorbell handshake (park() is the other).  The
// occupancy RMW above and the bell load below are seq_cst, as are park()'s
// kParked store and occupancy load, so in their single total order either
// the consumer's load sees this heartbeat's occupancy or this load sees
// kParked: a ring that races the park is never lost.  The common case — a
// consumer that is not parked — costs one load.
void RealtimeEngine::ring_if_parked(Shard& shard) {
  Bell* bell = shard.bell.load(std::memory_order_acquire);
  if (bell != nullptr && bell->load(std::memory_order_seq_cst) == kParked) {
    ring(*bell);
  }
}

// Only the caller that flips kParked to kAwake makes the wake call: at most
// one wake per park however many producers race here.
void RealtimeEngine::ring(Bell& bell) {
  if (bell.exchange(kAwake, std::memory_order_seq_cst) == kParked) {
    time_.wake(bell);
  }
}

bool RealtimeEngine::offer_now(fleet::ProcessIndex process,
                               std::uint32_t incarnation, net::SeqNo seq) {
  return offer(fleet::Heartbeat{process, incarnation, seq, time_.now()});
}

// ---------------------------------------------------------------------------
// Consumer path
// ---------------------------------------------------------------------------

std::size_t RealtimeEngine::ingest_locked(Shard& shard,
                                          fleet::Heartbeat* batch,
                                          std::size_t n) {
  if (n == 0) return 0;
  // Arrival monotonization: a live producer can stamp now() and get
  // preempted before pushing, so the FIFO queue may hold arrivals slightly
  // out of order (or behind an advance target).  Clamp to the shard's
  // ingest floor — FleetMonitor requires batches sorted at or above its
  // watermark.
  double floor_s = shard.ingest_floor_s;
  for (std::size_t i = 0; i < n; ++i) {
    if (batch[i].arrival.seconds() < floor_s) {
      batch[i].arrival = TimePoint(floor_s);
    } else {
      floor_s = batch[i].arrival.seconds();
    }
  }
  shard.ingest_floor_s = floor_s;
  shard.monitor->ingest(std::span<const fleet::Heartbeat>(batch, n));
  shard.accepted.fetch_add(n, std::memory_order_relaxed);
  return n;
}

std::size_t RealtimeEngine::drain_shard(std::size_t shard_index,
                                        TimePoint now) {
  CHENFD_EXPECTS(shard_index < shards_.size(),
                 "RealtimeEngine::drain_shard: shard index out of range");
  Shard& shard = *shards_[shard_index];
  const TimePoint engine_now = to_engine(now);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  std::size_t popped_total = 0;
  std::size_t ingested = 0;
  if (opts_.policy == OverloadPolicy::kDropOldest) {
    // Pop the whole backlog, then keep only the newest queue_capacity of
    // it — the oldest excess is shed (it would only delay fresher news).
    shard.scratch.clear();
    fleet::Heartbeat hb;
    while (shard.queue.try_pop(hb)) shard.scratch.push_back(hb);
    popped_total = shard.scratch.size();
    if (popped_total != 0) {
      shard.occupancy.fetch_sub(popped_total, std::memory_order_seq_cst);
      shard.consumed.fetch_add(popped_total, std::memory_order_relaxed);
      std::size_t start = 0;
      if (popped_total > opts_.queue_capacity) {
        start = popped_total - opts_.queue_capacity;
        shard.shed_oldest.fetch_add(start, std::memory_order_relaxed);
        latch(shard, RiskReason::kOverload);
      }
      ingested = ingest_locked(shard, shard.scratch.data() + start,
                               popped_total - start);
    }
  } else {
    shard.scratch.resize(opts_.drain_chunk);
    for (;;) {
      const std::size_t n =
          shard.queue.pop_batch(shard.scratch.data(), opts_.drain_chunk);
      if (n == 0) break;
      popped_total += n;
      shard.occupancy.fetch_sub(n, std::memory_order_seq_cst);
      shard.consumed.fetch_add(n, std::memory_order_relaxed);
      ingested += ingest_locked(shard, shard.scratch.data(), n);
      if (n < opts_.drain_chunk) break;
    }
  }
  if (popped_total != 0 || shard.queue.empty()) {
    shard.watchdog.note_progress(engine_now);
  }
  return ingested;
}

void RealtimeEngine::advance_shard(std::size_t shard_index, TimePoint to) {
  CHENFD_EXPECTS(shard_index < shards_.size(),
                 "RealtimeEngine::advance_shard: shard index out of range");
  Shard& shard = *shards_[shard_index];
  const TimePoint engine_to = to_engine(to);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.monitor->advance(engine_to);
  shard.ingest_floor_s = std::max(shard.ingest_floor_s, engine_to.seconds());
}

void RealtimeEngine::advance(TimePoint to) {
  CHENFD_EXPECTS(!to.is_infinite(),
                 "RealtimeEngine::advance: target must be finite");
  for (std::size_t s = 0; s < shards_.size(); ++s) advance_shard(s, to);
}

void RealtimeEngine::close(TimePoint horizon) {
  CHENFD_EXPECTS(!horizon.is_infinite(),
                 "RealtimeEngine::close: horizon must be finite");
  const TimePoint engine_horizon = to_engine(horizon);
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.monitor->close(engine_horizon);
    shard.ingest_floor_s =
        std::max(shard.ingest_floor_s, engine_horizon.seconds());
  }
}

// detlint: allow(R4) draining is legal in any state; an empty result is valid
std::vector<fleet::Transition> RealtimeEngine::drain_transitions() {
  std::vector<fleet::Transition> out;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<fleet::Transition> fresh = shard.monitor->drain_transitions();
    shard.transitions.insert(shard.transitions.end(), fresh.begin(),
                             fresh.end());
    out.insert(out.end(), shard.transitions.begin(), shard.transitions.end());
    shard.transitions.clear();
  }
  // Same total order as FleetMonitor::drain_transitions: each process's
  // stream lives in one shard (already in order), and (time, process)
  // totally orders same-time pairs of distinct processes across shards —
  // so the merged stream cannot depend on who drained which shard when.
  std::stable_sort(out.begin(), out.end(),
                   [](const fleet::Transition& a, const fleet::Transition& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.process < b.process;
                   });
  // Back to source time (identity under a zero-epoch VirtualTimeSource).
  if (base_s_ != 0.0) {
    for (fleet::Transition& t : out) t.at = TimePoint(t.at.seconds() + base_s_);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Watchdog and warm restart
// ---------------------------------------------------------------------------

WatchdogAction RealtimeEngine::poll_watchdog(std::size_t shard_index,
                                             TimePoint now,
                                             bool consumer_alive) {
  CHENFD_EXPECTS(shard_index < shards_.size(),
                 "RealtimeEngine::poll_watchdog: shard index out of range");
  Shard& shard = *shards_[shard_index];
  const TimePoint engine_now = to_engine(now);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const WatchdogAction action =
      shard.watchdog.poll(engine_now, consumer_alive, !shard.queue.empty());
  if (action != WatchdogAction::kNone) {
    latch(shard, consumer_alive ? RiskReason::kConsumerStall
                                : RiskReason::kWatchdogRestart);
  }
  return action;
}

void RealtimeEngine::warm_restart_shard(std::size_t shard_index,
                                        TimePoint now) {
  CHENFD_EXPECTS(shard_index < shards_.size(),
                 "RealtimeEngine::warm_restart_shard: shard index out of "
                 "range");
  Shard& shard = *shards_[shard_index];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  // Nothing already emitted may be lost: move the dying monitor's pending
  // transitions into the engine-side log before replacing it.
  std::vector<fleet::Transition> pending = shard.monitor->drain_transitions();
  shard.transitions.insert(shard.transitions.end(), pending.begin(),
                           pending.end());
  const persist::FleetState summary = shard.monitor->export_summary();
  shard.monitor = std::make_unique<fleet::FleetMonitor>(shard.opts);
  shard.monitor->restore_summary(summary, /*warm=*/true);
  // The reborn monitor starts at the restart instant; queued heartbeats
  // stamped during the outage are ingested as of now.
  shard.ingest_floor_s =
      std::max(shard.ingest_floor_s, to_engine(now).seconds());
  shard.restarts.fetch_add(1, std::memory_order_relaxed);
  latch(shard, RiskReason::kWatchdogRestart);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

std::size_t RealtimeEngine::pending(std::size_t shard_index) const {
  CHENFD_EXPECTS(shard_index < shards_.size(),
                 "RealtimeEngine::pending: shard index out of range");
  return shards_[shard_index]->queue.size();
}

ShardCounters RealtimeEngine::counters(std::size_t shard_index) const {
  CHENFD_EXPECTS(shard_index < shards_.size(),
                 "RealtimeEngine::counters: shard index out of range");
  const Shard& shard = *shards_[shard_index];
  ShardCounters c;
  c.produced = shard.produced.load(std::memory_order_acquire);
  c.accepted = shard.accepted.load(std::memory_order_acquire);
  c.shed_newest = shard.shed_newest.load(std::memory_order_acquire);
  c.shed_degraded = shard.shed_degraded.load(std::memory_order_acquire);
  c.shed_oldest = shard.shed_oldest.load(std::memory_order_acquire);
  c.shed_overflow = shard.shed_overflow.load(std::memory_order_acquire);
  c.consumed = shard.consumed.load(std::memory_order_acquire);
  c.restarts = shard.restarts.load(std::memory_order_acquire);
  return c;
}

ShardCounters RealtimeEngine::totals() const {
  ShardCounters total;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardCounters c = counters(s);
    total.produced += c.produced;
    total.accepted += c.accepted;
    total.shed_newest += c.shed_newest;
    total.shed_degraded += c.shed_degraded;
    total.shed_oldest += c.shed_oldest;
    total.shed_overflow += c.shed_overflow;
    total.consumed += c.consumed;
    total.restarts += c.restarts;
  }
  return total;
}

RiskReason RealtimeEngine::shard_risk(std::size_t shard_index) const {
  CHENFD_EXPECTS(shard_index < shards_.size(),
                 "RealtimeEngine::shard_risk: shard index out of range");
  return shards_[shard_index]->risk.reason();
}

Verdict RealtimeEngine::verdict(fleet::ProcessIndex id) const {
  const Shard& shard = *shards_[shard_of(id)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.monitor->verdict(id);
}

std::size_t RealtimeEngine::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    const std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.queue.memory_bytes();
    total += shard.monitor->memory_bytes();
    total += shard.transitions.capacity() * sizeof(fleet::Transition);
    total += shard.scratch.capacity() * sizeof(fleet::Heartbeat);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Supervisor persistence
// ---------------------------------------------------------------------------

persist::FleetState RealtimeEngine::export_summary() const {
  persist::FleetState state;
  state.processes = opts_.processes;
  state.shards.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const persist::FleetState sub = shard.monitor->export_summary();
    persist::FleetShardState shard_state = sub.shards.front();
    shard_state.shard = s;
    state.shards.push_back(shard_state);
  }
  return state;
}

void RealtimeEngine::restore_summary(
    const std::optional<persist::FleetState>& state, bool warm) {
  if (warm) {
    expects(state.has_value(),
            "RealtimeEngine::restore_summary: warm restore requires a "
            "summary");
    expects(state->processes == opts_.processes,
            "RealtimeEngine::restore_summary: snapshot fleet size mismatch");
    expects(state->shards.size() == shards_.size(),
            "RealtimeEngine::restore_summary: snapshot shard count mismatch");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (warm) {
      persist::FleetState sub;
      sub.processes = shard.opts.processes;
      persist::FleetShardState shard_state = state->shards[s];
      shard_state.shard = 0;
      sub.shards.push_back(shard_state);
      shard.monitor->restore_summary(sub, /*warm=*/true);
    } else {
      shard.monitor->restore_summary(std::nullopt, /*warm=*/false);
    }
  }
}

// ---------------------------------------------------------------------------
// Live mode
// ---------------------------------------------------------------------------

void RealtimeEngine::start(std::size_t consumers, Duration consumer_period,
                           Duration watchdog_period) {
  expects(consumers >= 1, "RealtimeEngine::start: need >= 1 consumer");
  expects(consumer_period > Duration::zero(),
          "RealtimeEngine::start: consumer_period must be > 0");
  expects(watchdog_period > Duration::zero(),
          "RealtimeEngine::start: watchdog_period must be > 0");
  expects(!running_.load(std::memory_order_acquire),
          "RealtimeEngine::start: already running");
  const std::lock_guard<std::mutex> lock(threads_mutex_);
  consumer_count_ = consumers;
  consumer_period_ = consumer_period;
  watchdog_period_ = watchdog_period;
  threads_.clear();
  thread_alive_.clear();
  thread_stalled_.clear();
  thread_killed_.clear();
  for (std::size_t t = 0; t < consumers; ++t) {
    // Alive from before the launch: the watchdog must never take a consumer
    // that has not been scheduled yet for a dead one.
    thread_alive_.push_back(std::make_unique<std::atomic<bool>>(true));
    thread_stalled_.push_back(std::make_unique<std::atomic<bool>>(false));
    thread_killed_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  while (bells_.size() < consumers) {
    bells_.push_back(std::make_unique<Bell>(kAwake));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->bell.store(bells_[s % consumers].get(),
                           std::memory_order_release);
  }
  running_.store(true, std::memory_order_seq_cst);
  threads_.reserve(consumers);
  for (std::size_t t = 0; t < consumers; ++t) {
    threads_.emplace_back([this, t] { consumer_loop(t); });
  }
  watchdog_thread_ = std::thread([this] { watchdog_loop(); });
}

// detlint: allow(R4) stopping is legal in any state (idempotent)
void RealtimeEngine::stop() {
  if (!running_.exchange(false, std::memory_order_seq_cst)) return;
  ring(watchdog_bell_);
  for (std::size_t t = 0; t < consumer_count_; ++t) ring(*bells_[t]);
  // The watchdog is the only thread that respawns consumers; join it first
  // so the consumer roster is stable while we join the rest.
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  const std::lock_guard<std::mutex> lock(threads_mutex_);
  for (std::thread& th : threads_) {
    if (th.joinable()) th.join();
  }
  threads_.clear();
}

void RealtimeEngine::stall_consumer(std::size_t thread_index, bool stalled) {
  CHENFD_EXPECTS(thread_index < thread_stalled_.size(),
                 "RealtimeEngine::stall_consumer: thread index out of range");
  thread_stalled_[thread_index]->store(stalled, std::memory_order_release);
}

void RealtimeEngine::kill_consumer(std::size_t thread_index) {
  CHENFD_EXPECTS(thread_index < thread_killed_.size(),
                 "RealtimeEngine::kill_consumer: thread index out of range");
  thread_killed_[thread_index]->store(true, std::memory_order_seq_cst);
  ring(*bells_[thread_index]);
}

void RealtimeEngine::consumer_loop(std::size_t thread_index) {
  const std::atomic<bool>& killed = *thread_killed_[thread_index];
  while (running_.load(std::memory_order_seq_cst) &&
         !killed.load(std::memory_order_seq_cst)) {
    if (thread_stalled_[thread_index]->load(std::memory_order_acquire)) {
      time_.sleep_for(consumer_period_);
      continue;
    }
    bool idle = true;
    const TimePoint now = time_.now();
    for (std::size_t s = thread_index; s < shards_.size();
         s += consumer_count_) {
      if (drain_shard(s, now) != 0) idle = false;
      advance_shard(s, now);
    }
    if (idle) park(thread_index);
  }
  thread_alive_[thread_index]->store(false, std::memory_order_release);
}

// The consumer half of the doorbell handshake (see ring_if_parked): publish
// kParked, then re-check every reason to run — work in an owned shard,
// stop(), kill_consumer() — and block only if there is none.  The wait is
// value-compared, so a ring between the re-check and the block returns at
// once; consumer_period_ bounds it even if a ring were missed.
void RealtimeEngine::park(std::size_t thread_index) {
  Bell& bell = *bells_[thread_index];
  bell.store(kParked, std::memory_order_seq_cst);
  bool wake = !running_.load(std::memory_order_seq_cst) ||
              thread_killed_[thread_index]->load(std::memory_order_seq_cst);
  for (std::size_t s = thread_index; !wake && s < shards_.size();
       s += consumer_count_) {
    wake = shards_[s]->occupancy.load(std::memory_order_seq_cst) != 0;
  }
  if (!wake) time_.wait(bell, kParked, consumer_period_);
  bell.store(kAwake, std::memory_order_relaxed);
}

void RealtimeEngine::watchdog_loop() {
  while (running_.load(std::memory_order_seq_cst)) {
    const TimePoint now = time_.now();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::size_t t = s % consumer_count_;
      // A consumer that left its loop because stop() has begun is not
      // dead: running_ is read after thread_alive_, so such an exit is
      // always seen together with running_ == false.
      const bool alive =
          (thread_alive_[t]->load(std::memory_order_acquire) &&
           !thread_killed_[t]->load(std::memory_order_acquire)) ||
          !running_.load(std::memory_order_acquire);
      if (poll_watchdog(s, now, alive) == WatchdogAction::kRestart) {
        warm_restart_shard(s, now);
        if (!alive) respawn_consumer(t);
      }
    }
    watchdog_bell_.store(kParked, std::memory_order_seq_cst);
    if (running_.load(std::memory_order_seq_cst)) {
      time_.wait(watchdog_bell_, kParked, watchdog_period_);
    }
    watchdog_bell_.store(kAwake, std::memory_order_relaxed);
  }
}

// Never joins a running consumer: one still marked alive (a killed thread
// that has not yet left its loop) is left for a later poll to respawn.
void RealtimeEngine::respawn_consumer(std::size_t thread_index) {
  const std::lock_guard<std::mutex> lock(threads_mutex_);
  if (!running_.load(std::memory_order_acquire)) return;
  if (thread_alive_[thread_index]->load(std::memory_order_acquire)) return;
  if (threads_[thread_index].joinable()) threads_[thread_index].join();
  thread_killed_[thread_index]->store(false, std::memory_order_release);
  thread_stalled_[thread_index]->store(false, std::memory_order_release);
  thread_alive_[thread_index]->store(true, std::memory_order_release);
  threads_[thread_index] = std::thread([this, thread_index] {
    consumer_loop(thread_index);
  });
}

}  // namespace chenfd::rt
