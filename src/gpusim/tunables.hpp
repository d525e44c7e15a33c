// Launch schedule constants for the gpusim block engine.
//
// The launch fork-elision cutoff is the simrt one (so both layers agree
// on what "too small to fork" means); the block-dealing chunk factor is
// LaunchEngine::run_blocks' own.  Both only change block scheduling —
// per-block execution order and all arithmetic are untouched, so
// launches stay bitwise-identical to the serial walk.
#pragma once

#include <cstddef>

#include "simrt/tunables.hpp"

namespace portabench::gpusim {

/// Target block chunks per pool worker.
inline constexpr std::size_t kLaunchChunksPerWorker = 8;

/// The two launch scheduling constants.
struct LaunchTunables {
  std::size_t fork_cutoff;        ///< simulated threads below which a launch runs serially
  std::size_t chunks_per_worker;  ///< target block chunks per worker
};

[[nodiscard]] constexpr LaunchTunables launch_tunables() noexcept {
  return {simrt::kForkCutoff, kLaunchChunksPerWorker};
}

}  // namespace portabench::gpusim
