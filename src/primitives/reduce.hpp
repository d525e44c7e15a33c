// Device-wide hierarchical reduction over arbitrary types and operators.
//
// Structure (docs/PRIMITIVES.md):
//   partials  — the input is cut into kSegment-element slices; each lane
//               folds whole slices sequentially (fp sum/max slices route
//               through the pinned-width simrt::simd_* kernels, so the
//               SIMD layer's fixed association IS the slice fold)
//   combine   — exact ops (Op::kExact) run a second hierarchical
//               block→grid pass built on the warp-shuffle reduction
//               trees, then a host fold of the block totals in ascending
//               order: any tree equals the left fold bit-for-bit.
//               Non-exact ops (fp sum/prod) fold the slice partials on
//               the host in ascending slice order — the fixed two-level
//               association the serial oracle replays.
// Either way the result is a pure function of (T, op, n, kSegment):
// lanes, grain, block count, and the sanitizer's permuted schedules never
// touch the bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "gpusim/block_primitives.hpp"
#include "gpusim/launch.hpp"
#include "simrt/op.hpp"
#include "simrt/simd_reduce.hpp"
#include "tunables.hpp"

namespace portabench::primitives {

/// Schedule-only knobs (searchable; see the `primitives-scan` space).
struct ReduceConfig {
  std::size_t lanes = kDefaultLanes;
  std::size_t items_per_lane = kDefaultItemsPerLane;  ///< segments per lane
};

namespace detail {

[[nodiscard]] constexpr std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

/// Fold one [lo, hi) slice of `in` with `op` (identity-seeded left
/// fold).  Floating-point sum/max slices route through the pinned-width
/// simrt SIMD kernels — a pure function of (T, slice), shared verbatim by
/// the device path and the serial oracle, so both see identical bits.
template <class T, class Op>
[[nodiscard]] T segment_fold(std::span<const T> in, std::size_t lo, std::size_t hi,
                             Op op) {
  if (lo >= hi) return op.identity();
  if constexpr (std::is_same_v<Op, simrt::SumOp<T>> && std::is_floating_point_v<T>) {
    return simrt::simd_sum(in.data() + lo, hi - lo);
  } else if constexpr (std::is_same_v<Op, simrt::MaxOp<T>> && std::is_floating_point_v<T>) {
    return simrt::simd_max(in.data() + lo, hi - lo);
  } else {
    T acc = op.identity();
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, in[i]);
    return acc;
  }
}

/// Ascending left fold of a partials array (the grid-level combine both
/// the non-exact device path and the oracle use).
template <class T, class Op>
[[nodiscard]] T fold_ascending(std::span<const T> partials, Op op) {
  T acc = partials[0];
  for (std::size_t i = 1; i < partials.size(); ++i) acc = op(acc, partials[i]);
  return acc;
}

/// Hierarchical combine of a partials array for exact ops: one
/// cooperative launch of warp-tree block reductions, then an ascending
/// host fold of the block totals.  Exactness makes this bitwise-equal to
/// fold_ascending for any block size.
template <class T, class Op>
[[nodiscard]] T combine_exact(gpusim::DeviceContext& ctx, std::span<const T> partials,
                              Op op, std::size_t lanes) {
  const std::size_t m = partials.size();
  if (m == 1) return partials[0];
  const std::size_t blocks = ceil_div(m, lanes);
  std::vector<T> block_totals(blocks);
  gpusim::launch_blocks(
      ctx, {blocks, 1, 1}, {lanes, 1, 1}, lanes * sizeof(T),
      [&](gpusim::BlockCtx& bc) {
        auto scratch = bc.template shared<T>(lanes);
        const std::size_t base = bc.block_idx().x * lanes;
        const T total =
            gpusim::block_reduce(bc, scratch, op, [&](const gpusim::ThreadCtx& tc) {
              const std::size_t i = base + tc.thread_idx.x;
              return i < m ? partials[i] : op.identity();
            });
        bc.for_lanes([&](const gpusim::ThreadCtx& tc) {
          if (tc.thread_idx.x == 0) block_totals[bc.block_idx().x] = total;
        });
      });
  return fold_ascending(std::span<const T>(block_totals), op);
}

/// Compute one partial per segment: lane-strided segment ownership inside
/// items_per_lane * lanes sized block tiles.  `fold(seg, lo, hi)` must
/// write the segment's partial (each segment is written exactly once).
template <class Fold>
void for_segments(gpusim::DeviceContext& ctx, std::size_t n, std::size_t segments,
                  std::size_t lanes, std::size_t grain, Fold&& fold) {
  const std::size_t per_block = lanes * grain;
  const std::size_t blocks = ceil_div(segments, per_block);
  gpusim::launch(ctx, {blocks, 1, 1}, {lanes, 1, 1}, [&](const gpusim::ThreadCtx& tc) {
    const std::size_t base = tc.block_idx.x * per_block;
    for (std::size_t k = 0; k < grain; ++k) {
      const std::size_t seg = base + k * lanes + tc.thread_idx.x;
      if (seg >= segments) break;
      const std::size_t lo = seg * kSegment;
      fold(seg, lo, std::min(n, lo + kSegment));
    }
  });
}

}  // namespace detail

/// Reduce `in` with `op`.  Returns op.identity() for an empty input.
template <class T, class Op>
  requires simrt::ReductionOpFor<Op, T>
[[nodiscard]] T device_reduce(gpusim::DeviceContext& ctx, std::span<const T> in, Op op,
                              const ReduceConfig& cfg = {}) {
  const std::size_t n = in.size();
  if (n == 0) return op.identity();
  const std::size_t lanes = std::max<std::size_t>(1, cfg.lanes);
  const std::size_t grain = std::max<std::size_t>(1, cfg.items_per_lane);
  const std::size_t segments = detail::ceil_div(n, kSegment);

  std::vector<T> partials(segments);
  detail::for_segments(ctx, n, segments, lanes, grain,
                       [&](std::size_t seg, std::size_t lo, std::size_t hi) {
                         partials[seg] = detail::segment_fold(in, lo, hi, op);
                       });

  if constexpr (Op::kExact) {
    return detail::combine_exact(ctx, std::span<const T>(partials), op, lanes);
  } else {
    return detail::fold_ascending(std::span<const T>(partials), op);
  }
}

/// Reduce f(0), ..., f(n-1) with `op` without materializing the values.
/// Same segment association as device_reduce.
template <class T, class Op, class F>
  requires simrt::ReductionOpFor<Op, T>
[[nodiscard]] T device_transform_reduce(gpusim::DeviceContext& ctx, std::size_t n, Op op,
                                        F&& f, const ReduceConfig& cfg = {}) {
  if (n == 0) return op.identity();
  const std::size_t lanes = std::max<std::size_t>(1, cfg.lanes);
  const std::size_t grain = std::max<std::size_t>(1, cfg.items_per_lane);
  const std::size_t segments = detail::ceil_div(n, kSegment);

  std::vector<T> partials(segments);
  detail::for_segments(ctx, n, segments, lanes, grain,
                       [&](std::size_t seg, std::size_t lo, std::size_t hi) {
                         T acc = op.identity();
                         for (std::size_t i = lo; i < hi; ++i) acc = op(acc, f(i));
                         partials[seg] = acc;
                       });

  if constexpr (Op::kExact) {
    return detail::combine_exact(ctx, std::span<const T>(partials), op, lanes);
  } else {
    return detail::fold_ascending(std::span<const T>(partials), op);
  }
}

}  // namespace portabench::primitives
