// Tracing for the per-layer run: spans recorded around each call the
// benchmark makes into a layer, self times derived from them, and
// user-space hardware counters (perf_event_open) around the counted calls.
//
// Spans live in memory while the run measures and are written out when it
// ends.  A span has a name, a start and an end (steady-clock ns), the index
// of the span that caused it (its parent) and a batch id shared by every
// span of one batch (one consumer pass, one subscriber poll, one ingest
// batch).  A layer's self time is its span's duration minus the part of
// that interval its child spans cover.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoParent = 0xffffffffU;

struct Span {
  std::uint32_t name = 0;          ///< index into the log's name table
  std::uint32_t parent = kNoParent;  ///< index within the same batch
  std::uint64_t batch = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of each span of one batch: its duration minus the union of
/// its direct children's intervals clipped to it.  Parents precede their
/// children; `parent` indexes into `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// One thread's span log: aggregates every committed batch per span name
/// and keeps the first `keep` spans verbatim for the trace file.
class SpanLog {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;  ///< summed durations
    std::int64_t self_ns = 0;   ///< summed self times
  };

  SpanLog(std::string thread, std::vector<std::string> names,
          std::size_t keep);

  /// Commits one batch (a root span and its descendants).
  void commit(const std::vector<Span>& batch);

  [[nodiscard]] const Totals& totals(std::uint32_t name) const {
    return totals_[name];
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Appends the kept spans as TSV rows:
  /// thread batch name parent start_ns end_ns self_ns.
  void write(std::FILE* out) const;

 private:
  std::string thread_;
  std::vector<std::string> names_;
  std::size_t keep_;
  std::vector<Span> kept_;
  std::vector<std::int64_t> kept_self_;
  std::vector<Totals> totals_;
  std::uint64_t dropped_ = 0;
};

/// User-space hardware counters of the calling thread: instructions,
/// cycles and last-level cache misses (PERF_COUNT_HW_CACHE_MISSES).  Any
/// counter the kernel refuses leaves the set unavailable, and read() marks
/// its values invalid when the group did not run for all the time it was
/// enabled; callers report "unavailable" then.  Counting is off until
/// start() and accumulates over start()/stop() pairs.
class HwCounters {
 public:
  struct Values {
    /// False when the counters were refused, never ran, or were
    /// multiplexed: then the counts mean nothing.
    bool valid = false;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t llc_misses = 0;
  };

  HwCounters();
  ~HwCounters();
  HwCounters(const HwCounters&) = delete;
  HwCounters& operator=(const HwCounters&) = delete;

  [[nodiscard]] bool available() const { return available_; }
  void start();
  void stop();
  [[nodiscard]] Values read() const;

 private:
  int fds_[3] = {-1, -1, -1};
  bool available_ = false;
};

}  // namespace perfbench
