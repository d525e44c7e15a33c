// Dispatch schedule constants.
//
// The fork-elision grain (ThreadPool::run_auto) and the dynamic-schedule
// chunk heuristic (detail::default_chunk).  Every value only changes
// *scheduling* — lane decomposition and reduction join order are
// invariant, so results are bitwise-identical to any other setting
// (dispatch_stress_test pins inline against forked lanes).
//
// They live here, in a `tunables` header, because portalint's
// tn-magic-tile rule gives every hard-coded scheduling literal one
// sanctioned home (a tunables module).
#pragma once

#include <cstddef>

namespace portabench::simrt {

/// Work items below which a parallel region runs inline on the caller
/// instead of forking: the rendezvous costs a few microseconds even on
/// the lock-free path, which is thousands of cheap iterations.  OpenMP's
/// `if` clause and Kokkos' host back ends make the same call, and the
/// gpusim launch engine uses the same cutoff.
inline constexpr std::size_t kForkCutoff = 4096;

/// Target dynamic chunks per thread.
inline constexpr std::size_t kChunksPerThread = 8;

/// Minimum iterations per dynamic chunk.
inline constexpr std::size_t kMinGrain = 8;

}  // namespace portabench::simrt
