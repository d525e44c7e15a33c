// Hang guard for wait-path tests: a lost wakeup would otherwise show up
// only as a ctest timeout with no hint of where the test was stuck.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace portabench::test_support {

/// Aborts the process, naming `what` and the last finished round, when
/// tick() has not been called for `limit`.  Call tick() after every round.
class Watchdog {
 public:
  explicit Watchdog(const char* what, std::chrono::seconds limit = std::chrono::seconds(30))
      : what_(what), limit_(limit), thread_([this] { watch(); }) {}

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }

  void tick() { rounds_.fetch_add(1); }

 private:
  void watch() {
    using Clock = std::chrono::steady_clock;
    unsigned long last = rounds_.load();
    Clock::time_point since = Clock::now();
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const unsigned long now = rounds_.load();
      if (now != last) {
        last = now;
        since = Clock::now();
      } else if (Clock::now() - since > limit_) {
        std::fprintf(stderr, "watchdog: %s hung after %lu rounds\n", what_, last);
        std::abort();
      }
    }
  }

  const char* what_;
  std::chrono::seconds limit_;
  std::atomic<unsigned long> rounds_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace portabench::test_support
