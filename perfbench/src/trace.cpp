#include "trace.hpp"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  struct Child {
    std::uint32_t parent;
    std::int64_t lo;
    std::int64_t hi;
  };
  std::vector<Child> children;
  children.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent || s.parent >= spans.size()) continue;
    const Span& p = spans[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children.push_back(Child{s.parent, lo, hi});
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return a.parent != b.parent ? a.parent < b.parent : a.lo < b.lo;
            });
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  // Subtract the union of each parent's child intervals, run by run.
  for (std::size_t i = 0; i < children.size();) {
    const std::uint32_t parent = children[i].parent;
    std::int64_t run_lo = children[i].lo;
    std::int64_t run_hi = children[i].hi;
    for (++i; i < children.size() && children[i].parent == parent; ++i) {
      if (children[i].lo <= run_hi) {
        run_hi = std::max(run_hi, children[i].hi);
        continue;
      }
      self[parent] -= run_hi - run_lo;
      run_lo = children[i].lo;
      run_hi = children[i].hi;
    }
    self[parent] -= run_hi - run_lo;
  }
  return self;
}

SpanLog::SpanLog(std::string thread, std::vector<std::string> names,
                 std::size_t keep)
    : thread_(std::move(thread)),
      names_(std::move(names)),
      keep_(keep),
      totals_(names_.size()) {
  kept_.reserve(keep_);
  kept_self_.reserve(keep_);
}

void SpanLog::commit(const std::vector<Span>& batch) {
  const std::vector<std::int64_t> self = self_times(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Totals& t = totals_[batch[i].name];
    ++t.count;
    t.total_ns += batch[i].end_ns - batch[i].start_ns;
    t.self_ns += self[i];
  }
  if (kept_.size() + batch.size() <= keep_) {
    kept_.insert(kept_.end(), batch.begin(), batch.end());
    kept_self_.insert(kept_self_.end(), self.begin(), self.end());
  } else {
    dropped_ += batch.size();
  }
}

void SpanLog::write(std::FILE* out) const {
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(out, "%s\t%llu\t%s\t%lld\t%lld\t%lld\t%lld\n",
                 thread_.c_str(), static_cast<unsigned long long>(s.batch),
                 names_[s.name].c_str(),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(kept_self_[i]));
  }
}

namespace {

int open_counter(std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  attr.disabled = group_fd == -1 ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
}

}  // namespace

HwCounters::HwCounters() {
  fds_[0] = open_counter(PERF_COUNT_HW_INSTRUCTIONS, -1);
  if (fds_[0] < 0) return;
  fds_[1] = open_counter(PERF_COUNT_HW_CPU_CYCLES, fds_[0]);
  fds_[2] = open_counter(PERF_COUNT_HW_CACHE_MISSES, fds_[0]);
  available_ = fds_[1] >= 0 && fds_[2] >= 0;
  if (available_) ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
}

HwCounters::~HwCounters() {
  for (const int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

void HwCounters::start() {
  if (available_) ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

void HwCounters::stop() {
  if (available_) ioctl(fds_[0], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
}

HwCounters::Values HwCounters::read() const {
  Values v;
  if (!available_) return v;
  // nr, time enabled, time running, then one value per counter.
  std::uint64_t buf[6] = {0, 0, 0, 0, 0, 0};
  if (::read(fds_[0], buf, sizeof buf) !=
      static_cast<ssize_t>(sizeof buf)) {
    return v;
  }
  // A group the kernel accepted but never scheduled, or multiplexed with
  // other events, counted nothing or only part of the time.
  if (buf[2] == 0 || buf[2] < buf[1]) return v;
  v.valid = true;
  v.instructions = buf[3];
  v.cycles = buf[4];
  v.llc_misses = buf[5];
  return v;
}

}  // namespace perfbench
