// Kernel launch: functional SIMT execution of device kernels.
//
// launch() runs a per-thread functor for every (block, thread) coordinate
// of the grid — sufficient for every kernel in the paper (Fig. 3 kernels
// are barrier-free).  launch_blocks() additionally supports cooperative
// kernels: the functor receives a BlockCtx whose for_lanes() regions have
// barrier semantics between successive calls (the standard "thread-loop
// fission" lowering of __syncthreads used by SIMT-on-CPU runtimes), with
// block-shared scratch memory — used by the tiled shared-memory GEMM that
// the ablation benches contrast against the paper's naive kernels.
//
// Execution model (see docs/PERF.md, "The gpusim launch engine"): blocks
// of a CUDA grid are independent, so both entry points run blocks in
// parallel across the device's LaunchEngine by default — the host-side
// analogue of blocks landing on different SMs.  Sub-cutoff grids run
// serially inline (fork elision), the sanitized path keeps its serial
// seed-permuted schedule with per-SIMT-thread shadow lanes, and
// launch_serial()/launch_blocks_serial() pin the serial walk explicitly
// (the baseline the micro_launch bench measures against).  Block-shared
// scratch comes from the engine's pooled per-worker arenas: the
// steady-state launch path allocates nothing.
#pragma once

#include <cstddef>
#include <span>

#include "common/buffer.hpp"
#include "device.hpp"
#include "dim3.hpp"
#include "engine.hpp"
#include "portacheck/hooks.hpp"

namespace portabench::gpusim {

namespace detail {

/// Linear block id, x-fastest (CUDA convention).
inline std::size_t linear_block(const Dim3& grid, const Dim3& idx) noexcept {
  return idx.x + grid.x * (idx.y + grid.y * idx.z);
}

/// Block coordinates of a linear block id (inverse of linear_block).
inline Dim3 block_from_linear(const Dim3& grid, std::size_t linear) noexcept {
  return {linear % grid.x, (linear / grid.x) % grid.y, linear / (grid.x * grid.y)};
}

/// Shadow lane for a simulated SIMT thread: its linear global thread id.
/// Derived from the block's ORIGINAL coordinates, so a permuted schedule
/// reports the same lane ids as the canonical one.
inline std::size_t simt_lane(const Dim3& grid, const Dim3& block, const Dim3& block_idx,
                             const Dim3& thread_idx) noexcept {
  const std::size_t in_block =
      thread_idx.x + block.x * (thread_idx.y + block.y * thread_idx.z);
  return linear_block(grid, block_idx) * block.volume() + in_block;
}

/// Run `kernel(tc)` for every lane of tc's block: the 3-deep thread-index
/// nest flattened into one strength-reduced carry walk (x fastest, the
/// CUDA linearization — execution order is identical to the nested
/// loops, so results are bitwise-identical).  The caller hoists all
/// other ThreadCtx state; only thread_idx changes per lane.
template <class F>
inline void run_block_lanes(ThreadCtx& tc, F&& kernel) {
  const Dim3 block = tc.block_dim;
  const std::size_t lanes = block.volume();
  tc.thread_idx = {0, 0, 0};
  for (std::size_t lin = 0; lin < lanes; ++lin) {
    kernel(tc);
    if (++tc.thread_idx.x == block.x) {
      tc.thread_idx.x = 0;
      if (++tc.thread_idx.y == block.y) {
        tc.thread_idx.y = 0;
        ++tc.thread_idx.z;
      }
    }
  }
}

/// Sanitized lane walk of one block: seed-permuted-order-independent by
/// construction (lane order inside a barrier-free launch is arbitrary),
/// every simulated thread tagged with its linear global thread id.
template <class F>
inline void run_block_lanes_checked(ThreadCtx& tc, F&& kernel) {
  const Dim3 block = tc.block_dim;
  for (std::size_t tz = 0; tz < block.z; ++tz) {
    for (std::size_t ty = 0; ty < block.y; ++ty) {
      for (std::size_t tx = 0; tx < block.x; ++tx) {
        tc.thread_idx = {tx, ty, tz};
        portacheck::LaneScope lane(
            simt_lane(tc.grid_dim, block, tc.block_idx, tc.thread_idx));
        kernel(tc);
      }
    }
  }
}

}  // namespace detail

/// Execute `kernel(ThreadCtx)` for every thread of the grid with the
/// serial block walk (deterministic block order; the pre-engine seed
/// behaviour).  launch() routes sub-cutoff grids here; the micro_launch
/// bench uses it as the serial baseline.
template <class F>
void launch_serial(DeviceContext& ctx, const Dim3& grid, const Dim3& block, F&& kernel) {
  ctx.validate_launch_cached(grid, block, 0);
  ctx.note_launch(grid, block);

  ThreadCtx tc;
  tc.grid_dim = grid;
  tc.block_dim = block;

  if (portacheck::active()) {
    // Sanitized path: blocks execute in a seed-permuted order and every
    // simulated thread carries its linear global thread id as shadow lane,
    // so write-write conflicts between SIMT threads are flagged even though
    // the simulation itself is serial.
    portacheck::begin_region();
    const auto order = portacheck::permutation(grid.volume(), portacheck::order_seed());
    for (const std::size_t linear : order) {
      tc.block_idx = detail::block_from_linear(grid, linear);
      detail::run_block_lanes_checked(tc, kernel);
    }
    return;
  }

  const std::size_t num_blocks = grid.volume();
  for (std::size_t linear = 0; linear < num_blocks; ++linear) {
    tc.block_idx = detail::block_from_linear(grid, linear);
    detail::run_block_lanes(tc, kernel);
  }
}

/// Execute `kernel(ThreadCtx)` for every thread of the grid.  Blocks run
/// in parallel across the device's LaunchEngine (blocks are independent
/// in the CUDA model, so this is semantics-preserving for any correct
/// kernel); sub-cutoff grids run serially inline, and the sanitized path
/// is the serial seed-permuted schedule.  Throws precondition_error on an
/// invalid configuration, mirroring a CUDA launch failure.
template <class F>
void launch(DeviceContext& ctx, const Dim3& grid, const Dim3& block, F&& kernel) {
  if (portacheck::active()) {
    launch_serial(ctx, grid, block, std::forward<F>(kernel));
    return;
  }
  ctx.validate_launch_cached(grid, block, 0);
  ctx.note_launch(grid, block);

  const std::size_t num_blocks = grid.volume();
  ctx.engine().run_blocks(
      num_blocks, num_blocks * block.volume(), [&](std::size_t, std::size_t linear) {
        ThreadCtx tc;
        tc.grid_dim = grid;
        tc.block_dim = block;
        tc.block_idx = detail::block_from_linear(grid, linear);
        detail::run_block_lanes(tc, kernel);
      });
}

/// Per-block execution context for cooperative kernels.  The shared
/// memory span is a zero-filled slice of a pooled per-worker arena owned
/// by the launch engine — valid for the duration of the block only.
class BlockCtx {
 public:
  BlockCtx(Dim3 grid, Dim3 block, Dim3 block_idx, std::span<std::byte> shared)
      : grid_(grid), block_(block), block_idx_(block_idx), shared_(shared) {}

  [[nodiscard]] const Dim3& grid_dim() const noexcept { return grid_; }
  [[nodiscard]] const Dim3& block_dim() const noexcept { return block_; }
  [[nodiscard]] const Dim3& block_idx() const noexcept { return block_idx_; }

  /// Run `region(ThreadCtx)` for every lane of the block.  Two successive
  /// for_lanes() calls are separated by an implicit __syncthreads().
  template <class G>
  void for_lanes(G&& region) {
    ThreadCtx tc;
    tc.grid_dim = grid_;
    tc.block_dim = block_;
    tc.block_idx = block_idx_;

    if (portacheck::active()) {
      // A for_lanes region is one barrier-to-barrier span: open a fresh
      // shadow epoch so accesses before the implicit __syncthreads never
      // conflict with accesses after it, permute lane order within the
      // region, and tag each lane with its global SIMT thread id.
      portacheck::begin_region();
      const auto order =
          portacheck::permutation(block_.volume(), portacheck::order_seed());
      for (const std::size_t lin : order) {
        tc.thread_idx = {lin % block_.x, (lin / block_.x) % block_.y,
                         lin / (block_.x * block_.y)};
        portacheck::LaneScope lane(
            detail::simt_lane(grid_, block_, block_idx_, tc.thread_idx));
        region(tc);
      }
      return;
    }

    detail::run_block_lanes(tc, region);
  }

  /// Block-shared scratch: a typed span carved from the block's shared
  /// memory arena (__shared__ analogue).  Offsets are byte-based and the
  /// caller composes multiple arrays by advancing `byte_offset`.
  template <class T>
  [[nodiscard]] std::span<T> shared(std::size_t count, std::size_t byte_offset = 0) {
    PB_EXPECTS(byte_offset % alignof(T) == 0);
    PB_EXPECTS(byte_offset + count * sizeof(T) <= shared_.size());
    return {reinterpret_cast<T*>(shared_.data() + byte_offset), count};
  }

  [[nodiscard]] std::size_t shared_bytes() const noexcept { return shared_.size(); }

 private:
  Dim3 grid_;
  Dim3 block_;
  Dim3 block_idx_;
  std::span<std::byte> shared_;
};

/// Serial cooperative launch (deterministic block order); launch_blocks()
/// routes sub-cutoff grids here.  Shared memory still comes from the
/// pooled thread-local arena — zero allocations, same zero-fill contract.
template <class F>
void launch_blocks_serial(DeviceContext& ctx, const Dim3& grid, const Dim3& block,
                          std::size_t shared_bytes, F&& kernel) {
  ctx.validate_launch_cached(grid, block, shared_bytes);
  ctx.note_launch(grid, block);

  if (portacheck::active()) {
    // Blocks of a cooperative launch are still independent — shuffle them.
    // (Cross-block conflicts through global memory are flagged only if the
    // blocks land in the same epoch; for_lanes() bumps the epoch per
    // barrier span, so this check is intra-span by design.)
    const auto order = portacheck::permutation(grid.volume(), portacheck::order_seed());
    for (const std::size_t linear : order) {
      BlockCtx bc(grid, block, detail::block_from_linear(grid, linear),
                  LaunchEngine::local_arena(shared_bytes));
      kernel(bc);
    }
    return;
  }

  const std::size_t num_blocks = grid.volume();
  for (std::size_t linear = 0; linear < num_blocks; ++linear) {
    BlockCtx bc(grid, block, detail::block_from_linear(grid, linear),
                LaunchEngine::local_arena(shared_bytes));
    kernel(bc);
  }
}

/// Launch a cooperative kernel: `kernel(BlockCtx&)` runs once per block
/// with `shared_bytes` of zero-filled block-shared memory.  Blocks run in
/// parallel across the device's LaunchEngine with per-worker pooled
/// arenas (zero allocations steady-state); shared memory size is
/// validated against the device limit, mirroring a CUDA launch error for
/// oversized dynamic shared memory.
template <class F>
void launch_blocks(DeviceContext& ctx, const Dim3& grid, const Dim3& block,
                   std::size_t shared_bytes, F&& kernel) {
  if (portacheck::active()) {
    launch_blocks_serial(ctx, grid, block, shared_bytes, std::forward<F>(kernel));
    return;
  }
  ctx.validate_launch_cached(grid, block, shared_bytes);
  ctx.note_launch(grid, block);

  LaunchEngine& engine = ctx.engine();
  const std::size_t num_blocks = grid.volume();
  engine.run_blocks(
      num_blocks, num_blocks * block.volume(),
      [&](std::size_t worker, std::size_t linear) {
        // Pool workers carve from their padded arena slot; the serial /
        // nested path uses the thread-local arena so concurrent serial
        // launches never share scratch.
        const std::span<std::byte> scratch =
            worker == LaunchEngine::kSerialWorker
                ? LaunchEngine::local_arena(shared_bytes)
                : engine.worker_arena(worker, shared_bytes);
        BlockCtx bc(grid, block, detail::block_from_linear(grid, linear), scratch);
        kernel(bc);
      });
}

}  // namespace portabench::gpusim
