// Timed tuner objectives over the real kernels.
//
// Each factory returns an Objective closure that owns its workload state
// (matrices, a thread team) so repeated evaluations measure the same
// work; one call = one timed evaluation in milliseconds.  Candidates
// reach the workload as per-call arguments, so a measurement never
// leaks scheduling state into the caller.
//
// These live in a separate library (portabench_tune_objectives) because
// the serve-batch objective needs the serving layer, and serve itself
// links the tune core — the split keeps the dependency graph acyclic.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/precision.hpp"
#include "search.hpp"

namespace portabench::tune {

/// Tiled-GEMM schedule objective: one n x n GEMM at precision `p` over a
/// persistent thread team; candidate configs name "mc"/"kc"/"tier".
[[nodiscard]] Objective gemm_tile_objective(Precision p, std::size_t n);

/// Serving objective: stream `jobs` tiled-GEMM jobs of size `n` through
/// a fresh ServeEngine per evaluation; candidates name "batch_jobs".
[[nodiscard]] Objective serve_batch_objective(std::size_t jobs = 2048, std::uint32_t n = 48);

}  // namespace portabench::tune
