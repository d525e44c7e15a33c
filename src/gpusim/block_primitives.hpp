// Cooperative block-level primitives: reduce and scan across the lanes of
// one thread block, templated on element type and binary op.
//
// CUDA/HIP kernels build these from __shared__ staging plus
// __syncthreads(); under the simulator's thread-loop-fission lowering the
// same algorithms are expressed as successive for_lanes() regions over a
// shared-memory scratch array.
//
// Ops are simrt::ReductionOpFor<Op, T> (src/simrt/op.hpp): the LEFT
// operand of every combine is the earlier lane, so non-commutative ops
// and tie-breaking resolve left-to-right.  The combination TREE is a pure
// function of (lanes, op) — never of the sanitizer's permuted lane order
// — so for exact ops (integers, min/max, bit ops) the result is
// bitwise-identical to a plain left fold, and for floating-point ops it
// is bitwise-reproducible run-to-run.
#pragma once

#include <bit>
#include <span>
#include <utility>

#include "launch.hpp"
#include "simrt/op.hpp"
#include "warp.hpp"

namespace portabench::gpusim {

/// Reduce one value per lane across the block with an arbitrary op:
/// hierarchical warp-shuffle trees (warp_reduce_leaders) followed by a
/// left-to-right fold of the warp leaders by lane 0.  `scratch` must hold
/// at least block_dim.volume() elements; after the call scratch[0] holds
/// the block result, which is also returned.
///
/// For exact ops the value equals the plain left fold of the lanes; for
/// floating-point sums it is the fixed (lanes, op)-determined tree.
template <class T, class Op, class F>
  requires simrt::ReductionOpFor<Op, T>
T block_reduce(BlockCtx& bc, std::span<T> scratch, Op op, F&& value_of) {
  const std::size_t lanes = bc.block_dim().volume();
  PB_EXPECTS(scratch.size() >= lanes);

  warp_reduce_leaders(bc, scratch, op, std::forward<F>(value_of));
  bc.for_lanes([&](const ThreadCtx& tc) {
    if (tc.lane_in_block() != 0) return;
    T acc = scratch[0];
    for (std::size_t base = kWarpSize; base < lanes; base += kWarpSize) {
      acc = op(acc, scratch[base]);
    }
    scratch[0] = acc;
  });
  return scratch[0];
}

/// Work-efficient exclusive scan of one value per lane (Blelloch
/// upsweep/downsweep over shared memory; O(n) combines versus the
/// O(n log n) of the Hillis-Steele shape it replaces).  `scratch` must
/// hold at least 2 * lanes elements (the tree is built on the
/// power-of-two ceiling, which is at most that).  On return scratch[i]
/// holds the exclusive prefix of lane i.  Non-commutative ops are
/// supported: the downsweep combines the incoming prefix on the LEFT of
/// the left-subtree total, preserving lane order.  Correct for blocks of
/// any dimensionality (lanes are linearized in the CUDA order).
template <class T, class Op, class F>
  requires simrt::ReductionOpFor<Op, T>
void block_exclusive_scan(BlockCtx& bc, std::span<T> scratch, Op op, F&& value_of) {
  const std::size_t lanes = bc.block_dim().volume();
  PB_EXPECTS(scratch.size() >= 2 * lanes);
  const std::size_t m = std::bit_ceil(lanes);

  bc.for_lanes([&](const ThreadCtx& tc) {
    const std::size_t lane = tc.lane_in_block();
    scratch[lane] = value_of(tc);
    if (lane == 0) {
      for (std::size_t pad = lanes; pad < m; ++pad) scratch[pad] = op.identity();
    }
  });

  // Upsweep: each region is one tree level; the writer of slot
  // (j+1)*2*stride-1 reads slot (2j+1)*stride-1, which no other lane
  // writes in the same region.
  for (std::size_t stride = 1; stride < m; stride *= 2) {
    bc.for_lanes([&](const ThreadCtx& tc) {
      const std::size_t right = (tc.lane_in_block() + 1) * 2 * stride - 1;
      if (right < m) scratch[right] = op(scratch[right - stride], scratch[right]);
    });
  }

  bc.for_lanes([&](const ThreadCtx& tc) {
    if (tc.lane_in_block() == 0) scratch[m - 1] = op.identity();
  });

  // Downsweep: node slots hold the exclusive prefix of their subtree; the
  // right child's prefix is op(parent prefix, left-subtree total) — the
  // parent prefix stays on the left, which is what makes non-commutative
  // ops come out in lane order.
  for (std::size_t stride = m / 2; stride >= 1; stride /= 2) {
    bc.for_lanes([&](const ThreadCtx& tc) {
      const std::size_t right = (tc.lane_in_block() + 1) * 2 * stride - 1;
      if (right >= m) return;
      const std::size_t left = right - stride;
      const T t = scratch[left];
      scratch[left] = scratch[right];
      scratch[right] = op(scratch[right], t);
    });
  }
}

/// Inclusive scan: exclusive prefix combined (on the right) with the
/// lane's own value.
template <class T, class Op, class F>
  requires simrt::ReductionOpFor<Op, T>
void block_inclusive_scan(BlockCtx& bc, std::span<T> scratch, Op op, F&& value_of) {
  block_exclusive_scan(bc, scratch, op, value_of);
  bc.for_lanes([&](const ThreadCtx& tc) {
    const std::size_t lane = tc.lane_in_block();
    scratch[lane] = op(scratch[lane], value_of(tc));
  });
}

}  // namespace portabench::gpusim
