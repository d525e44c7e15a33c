// portacheck runtime hooks: the tiny substrate the runtimes consult.
//
// simrt and gpusim ask three questions at the top of every parallel
// region: is checking active, what execution-order seed applies, and what
// shadow "region epoch" are we in.  When checking is off (the default)
// each dispatch pays exactly one relaxed atomic load and takes its
// original code path, so the sanitizer costs nothing unless enabled —
// the same zero-overhead-by-default contract as Julia's `@inbounds`
// ablation in the paper (bounds discipline is a *mode*, not a rebuild).
//
// Lanes: every logical unit of parallelism (one parallel_for iteration,
// one SIMT thread, one team) is assigned a lane id via a thread_local.
// The shadow layer (shadow.hpp) attributes each memory access to the
// current lane; two accesses to one cell from different lanes inside one
// region epoch are a race, because the runtime provides no ordering
// between lanes of a region.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace portabench::portacheck {

namespace detail {

struct Globals {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> seed{0};
  std::atomic<std::uint64_t> region{0};
};

/// Process-wide state; first call reads PORTABENCH_CHECK /
/// PORTABENCH_CHECK_SEED from the environment.
Globals& globals() noexcept;

// constinit: the lane has no dynamic initializer, so other translation
// units access it directly instead of through the TLS init wrapper.
extern constinit thread_local std::uint64_t tls_lane;

}  // namespace detail

/// True when sanitized execution is active (env PORTABENCH_CHECK=1 or a
/// live ScopedCheck).  The one query on every dispatch hot path.
[[nodiscard]] inline bool active() noexcept {
  return detail::globals().enabled.load(std::memory_order_relaxed);
}

/// Seed for the permutation scheduler; 0 keeps natural order even when
/// checking is active.  Env: PORTABENCH_CHECK_SEED=N.
[[nodiscard]] inline std::uint64_t order_seed() noexcept {
  return detail::globals().seed.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept;
void set_seed(std::uint64_t seed) noexcept;

/// RAII programmatic enable (tests): activates checking with `seed`,
/// restoring the previous state on destruction.
class ScopedCheck {
 public:
  explicit ScopedCheck(std::uint64_t seed = 1) noexcept;
  ScopedCheck(const ScopedCheck&) = delete;
  ScopedCheck& operator=(const ScopedCheck&) = delete;
  ~ScopedCheck();

 private:
  bool prev_enabled_;
  std::uint64_t prev_seed_;
};

// --- lanes -----------------------------------------------------------------

[[nodiscard]] inline std::uint64_t current_lane() noexcept { return detail::tls_lane; }
inline void set_current_lane(std::uint64_t lane) noexcept { detail::tls_lane = lane; }

/// Scoped lane identity for one logical unit of parallelism.
class LaneScope {
 public:
  explicit LaneScope(std::uint64_t lane) noexcept : prev_(detail::tls_lane) {
    detail::tls_lane = lane;
  }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;
  ~LaneScope() { detail::tls_lane = prev_; }

 private:
  std::uint64_t prev_;
};

// --- region epochs ---------------------------------------------------------

/// Open a new shadow epoch.  Called at the top of every parallel region
/// (and at every barrier of a cooperative kernel): accesses from
/// different epochs never conflict, because the region boundary is a
/// synchronization point.
inline std::uint64_t begin_region() noexcept {
  return detail::globals().region.fetch_add(1, std::memory_order_relaxed) + 1;
}

[[nodiscard]] inline std::uint64_t current_region() noexcept {
  return detail::globals().region.load(std::memory_order_relaxed);
}

// --- seeded permutation ----------------------------------------------------

/// Deterministic Fisher-Yates permutation of [0, n) from `seed`
/// (splitmix64 stream).  seed == 0 returns the identity, so "checking on,
/// no shuffle" is expressible.  Used by the permutation scheduler in
/// simrt::parallel_for / gpusim::launch to prove kernels are
/// execution-order-independent: a correct data-parallel kernel must
/// produce identical results under every block/chunk order.
[[nodiscard]] std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

}  // namespace portabench::portacheck
