#include "service/realtime/monotonic_clock.hpp"

#include <chrono>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>
#endif

namespace chenfd::rt {

namespace {

[[nodiscard]] double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#if defined(__linux__)
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "futex words must be plain lock-free 32-bit atomics");

// The futex word is the atomic's own storage: the kernel compares it with
// `expected` and queues the caller in one step.
long futex(const std::atomic<std::uint32_t>& word, int op, std::uint32_t val,
           const timespec* timeout) {
  return syscall(SYS_futex,
                 const_cast<std::uint32_t*>(
                     reinterpret_cast<const std::uint32_t*>(&word)),
                 op, val, timeout, nullptr, 0);
}
#endif

}  // namespace

MonotonicClock::MonotonicClock()
    : epoch_s_(std::chrono::duration<double>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count()),
      origin_s_(steady_seconds()) {}

TimePoint MonotonicClock::now() const {
  return TimePoint(epoch_s_ + (steady_seconds() - origin_s_));
}

void MonotonicClock::sleep_for(Duration d) const {
  if (d <= Duration::zero()) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(d.seconds()));
}

#if defined(__linux__)

void MonotonicClock::wait(const std::atomic<std::uint32_t>& word,
                          std::uint32_t expected, Duration timeout) const {
  if (timeout <= Duration::zero()) return;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(timeout.seconds()))
                      .count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  // EAGAIN (the word already moved), ETIMEDOUT and EINTR all mean "return
  // and let the caller re-check", which is the contract.
  (void)futex(word, FUTEX_WAIT_PRIVATE, expected, &ts);
}

void MonotonicClock::wake(std::atomic<std::uint32_t>& word) const {
  (void)futex(word, FUTEX_WAKE_PRIVATE, 1, nullptr);
}

#else

// Portable fallback: poll the word in short sleeps.  A wake costs at most
// one slice of latency; the timeout still bounds the wait.
void MonotonicClock::wait(const std::atomic<std::uint32_t>& word,
                          std::uint32_t expected, Duration timeout) const {
  const double until = steady_seconds() + timeout.seconds();
  while (word.load(std::memory_order_acquire) == expected &&
         steady_seconds() < until) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void MonotonicClock::wake(std::atomic<std::uint32_t>& /*word*/) const {}

#endif

}  // namespace chenfd::rt
