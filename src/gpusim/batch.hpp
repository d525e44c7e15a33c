// Batched item execution over the launch engine.
//
// The serving layer and the multigpu sharded GEMM and stencil share one
// execution shape: N independent items (one served job, one row block
// of a sharded GEMM or stencil sweep), run as a single "launch" —
// forked across the engine's worker team when the batch is big enough,
// serial on the caller otherwise.  run_batch() is that shape, plus the
// piece LaunchEngine::run_blocks deliberately does not own: the
// portacheck path.  Under the sanitizer every batch must execute as a
// seed-permuted *serial* schedule with one lane per item (items of a
// batch are unordered, exactly like blocks of a grid), so a batch that
// is only correct in submission order fails the sanitized tier.
//
// The body receives (worker, item): `worker` indexes the engine's
// per-worker arenas when the batch forked, or LaunchEngine::kSerialWorker
// on the serial/sanitized path (use batch_scratch() below to pick the
// right arena either way).
#pragma once

#include <cstddef>
#include <span>

#include "engine.hpp"
#include "portacheck/hooks.hpp"

namespace portabench::gpusim {

template <class Body>
void run_batch(LaunchEngine& engine, std::size_t items, std::size_t total_threads,
               Body&& body) {
  if (items == 0) return;
  if (portacheck::active()) {
    portacheck::begin_region();
    const auto order = portacheck::permutation(items, portacheck::order_seed());
    for (std::size_t slot = 0; slot < items; ++slot) {
      const std::size_t item = order[slot];
      portacheck::LaneScope lane(item);
      body(LaunchEngine::kSerialWorker, item);
    }
    return;
  }
  engine.run_blocks(items, total_threads, std::forward<Body>(body));
}

/// Zero-filled scratch for one batch item: the engine's pooled per-worker
/// arena on the forked path, the thread-local pooled arena on the serial
/// path.  Either way the steady state performs no allocation.
[[nodiscard]] inline std::span<std::byte> batch_scratch(LaunchEngine& engine,
                                                        std::size_t worker,
                                                        std::size_t bytes) {
  return worker == LaunchEngine::kSerialWorker ? LaunchEngine::local_arena(bytes)
                                               : engine.worker_arena(worker, bytes);
}

}  // namespace portabench::gpusim
