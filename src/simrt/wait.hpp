// The runtime's one way to block: spin on a 32-bit word for a constant
// budget, then park on that word with C++20 std::atomic::wait.  Each
// waiter parks on the word whose change it needs, and each signaller
// changes the word with an RMW and then notifies it, so no wait needs a
// mutex, a condition variable or a "parked" flag.  Words are 32 bits, the
// futex width: with GCC 12's libstdc++ a 64-bit atomic waits on a shared
// proxy word and its notify_one becomes notify_all.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace portabench::simrt {

/// Polls before parking: `pause` rounds of cpu_pause(), then `yield`
/// rounds of std::this_thread::yield().  libstdc++'s wait adds its own
/// short spin either way.
struct SpinBudget {
  int pause = 0;
  int yield = 0;
};

/// One spin-loop iteration's worth of politeness: a pipeline hint on
/// architectures that have one, a scheduler yield elsewhere.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Wrap-safe `count >= target` for a 32-bit counter that only grows:
/// exact while `count` is less than 2^31 past `target`.
[[nodiscard]] constexpr bool reached(std::uint32_t count, std::uint32_t target) noexcept {
  return static_cast<std::int32_t>(count - target) >= 0;
}

/// Block until done(value) holds for an acquire load of `word`, and
/// return that value: spin for `budget`, then park until the word
/// changes and re-test.  Whoever changes the word so that done() may
/// flip must notify it afterwards, as advance() does.
template <class Done>
std::uint32_t wait_until(const std::atomic<std::uint32_t>& word, SpinBudget budget, Done done) {
  std::uint32_t value = word.load(std::memory_order_acquire);
  int spins = 0;
  while (!done(value)) {
    if (spins < budget.pause) {
      cpu_pause();
      ++spins;
    } else if (spins < budget.pause + budget.yield) {
      std::this_thread::yield();
      ++spins;
    } else {
      word.wait(value, std::memory_order_acquire);
    }
    value = word.load(std::memory_order_acquire);
  }
  return value;
}

/// Count one step on `word` (a release RMW, so a waiter that sees the new
/// count sees what the caller wrote before) and wake its waiters.
inline void advance(std::atomic<std::uint32_t>& word) noexcept {
  word.fetch_add(1, std::memory_order_release);
  word.notify_all();
}

}  // namespace portabench::simrt
