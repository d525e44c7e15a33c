// Jacobi sweep kernels across the substrates.
//
// One mathematical sweep — out(i,j) = average of in's four neighbours —
// expressed the way each programming model writes it: a serial loop nest,
// an MDRange dispatch (the Kokkos/host shape), an explicit-SIMD host
// sweep (simrt::simd row kernels, tier-dispatched), a fine-granularity
// device kernel (the Fig. 3 shape), and a shared-memory tiled cooperative
// device kernel (the optimization the naive version leaves out; its halo
// loads exercise the simulator's barrier semantics).
#pragma once

#include "gpusim/launch.hpp"
#include "gpusim/memory.hpp"
#include "grid.hpp"
#include "simrt/simd.hpp"

namespace portabench::stencil {

/// Serial reference sweep.  View-generic (plain or shadow views).
template <class VIn, class VOut>
void sweep_serial(const VIn& in, VOut& out) {
  static_assert(VIn::is_row_major && VOut::is_row_major);
  for (std::size_t i = 1; i + 1 < in.extent(0); ++i) {
    for (std::size_t j = 1; j + 1 < in.extent(1); ++j) {
      out(i, j) = 0.25 * (in(i - 1, j) + in(i + 1, j) + in(i, j - 1) + in(i, j + 1));
    }
  }
}

/// Host-parallel sweep via MDRangePolicy (the Kokkos shape).
template <class Space, class VIn, class VOut>
void sweep_mdrange(const Space& space, const VIn& in, VOut& out) {
  static_assert(VIn::is_row_major && VOut::is_row_major);
  simrt::parallel_for(space,
                      simrt::MDRangePolicy2({1, 1}, {in.extent(0) - 1, in.extent(1) - 1}),
                      [&](std::size_t i, std::size_t j) {
                        out(i, j) = 0.25 * (in(i - 1, j) + in(i + 1, j) + in(i, j - 1) +
                                            in(i, j + 1));
                      });
}

namespace stencil_detail {

/// One interior row of the 5-point sweep over raw row pointers:
/// out[j] = 0.25 * (((up[j] + dn[j]) + mid[j-1]) + mid[j+1]) for
/// j in [1, cols-1) — the exact association order of the scalar sweep
/// expression, per lane, so every width gives the scalar bits (the op
/// is pure per-element; no accumulation crosses lanes).
template <std::size_t W>
inline void sweep_row_w(const double* up, const double* mid, const double* dn, double* out,
                        std::size_t cols) noexcept {
  using V = simrt::simd<double, W>;
  const V quarter(0.25);
  const std::size_t end = cols - 1;
  std::size_t j = 1;
  for (; j + W <= end; j += W) {
    const V s =
        ((V::load(up + j) + V::load(dn + j)) + V::load(mid + j - 1)) + V::load(mid + j + 1);
    (quarter * s).store(out + j);
  }
  for (; j < end; ++j) {
    out[j] = 0.25 * (up[j] + dn[j] + mid[j - 1] + mid[j + 1]);
  }
}

using sweep_row_fn = void (*)(const double*, const double*, const double*, double*,
                              std::size_t);

#if PORTABENCH_SIMD_HAS_X86_TIERS
PORTABENCH_SIMD_TARGET_AVX2 inline void sweep_row_avx2(const double* up, const double* mid,
                                                       const double* dn, double* out,
                                                       std::size_t cols) noexcept {
  sweep_row_w<4>(up, mid, dn, out, cols);
}
PORTABENCH_SIMD_TARGET_AVX512 inline void sweep_row_avx512(const double* up, const double* mid,
                                                           const double* dn, double* out,
                                                           std::size_t cols) noexcept {
  sweep_row_w<8>(up, mid, dn, out, cols);
}
#endif

/// Row kernel for an explicit tier (tests pin every tier bit-for-bit).
[[nodiscard]] inline sweep_row_fn sweep_row_for_tier(simrt::SimdTier tier) noexcept {
#if PORTABENCH_SIMD_HAS_X86_TIERS
  if (tier == simrt::SimdTier::kAvx512) return &sweep_row_avx512;
  if (tier == simrt::SimdTier::kAvx2) return &sweep_row_avx2;
#endif
  (void)tier;
  return &sweep_row_w<simrt::native_lanes<double>>;
}

[[nodiscard]] inline sweep_row_fn pick_sweep_row() noexcept {
  static const sweep_row_fn fn = sweep_row_for_tier(simrt::simd_dispatch_tier());
  return fn;
}

}  // namespace stencil_detail

/// Explicit-SIMD host sweep over raw row-major views: the simrt::simd
/// row kernel above, tier-dispatched once per process, parallelized over
/// interior rows.  Bit-identical to sweep_serial/sweep_mdrange on every
/// tier (pinned per-lane association order; the sanitized suite checks).
template <class Space>
void sweep_simd(const Space& space, const simrt::View2<double, simrt::LayoutRight>& in,
                simrt::View2<double, simrt::LayoutRight>& out) {
  PB_EXPECTS(in.extent(0) == out.extent(0) && in.extent(1) == out.extent(1));
  PB_EXPECTS(in.stride(1) == 1 && out.stride(1) == 1);
  const std::size_t rows = in.extent(0);
  const std::size_t cols = in.extent(1);
  if (rows < 3 || cols < 3) return;
  const stencil_detail::sweep_row_fn row = stencil_detail::pick_sweep_row();
  const double* ibase = in.data();
  double* obase = out.data();
  const std::size_t istr = in.stride(0);
  const std::size_t ostr = out.stride(0);
  simrt::parallel_for(space, simrt::RangePolicy(1, rows - 1), [=](std::size_t i) {
    row(ibase + (i - 1) * istr, ibase + i * istr, ibase + (i + 1) * istr, obase + i * ostr,
        cols);
  });
}

/// Naive device sweep: one thread per interior point, global loads only.
/// `in`/`out` are anything flat-indexable (raw pointers or shadow device
/// buffers), row-major linearized.
template <class PIn, class POut>
void sweep_gpu_naive(gpusim::DeviceContext& ctx, const PIn& in, POut&& out,
                     std::size_t rows, std::size_t cols,
                     const gpusim::Dim3& block = {32, 8, 1}) {
  const gpusim::Dim3 grid{gpusim::blocks_for(cols, block.x),
                          gpusim::blocks_for(rows, block.y), 1};
  gpusim::launch(ctx, grid, block, [&](const gpusim::ThreadCtx& tc) {
    const std::size_t i = tc.global_y();
    const std::size_t j = tc.global_x();
    if (i >= 1 && i + 1 < rows && j >= 1 && j + 1 < cols) {
      out[i * cols + j] = 0.25 * (in[(i - 1) * cols + j] + in[(i + 1) * cols + j] +
                                  in[i * cols + j - 1] + in[i * cols + j + 1]);
    }
  });
}

/// Shared-memory tiled device sweep: each block cooperatively stages its
/// tile plus halo, then computes from shared memory — the classic stencil
/// optimization, expressed with the simulator's barrier semantics.
template <class PIn, class POut>
void sweep_gpu_tiled(gpusim::DeviceContext& ctx, const PIn& in, POut&& out,
                     std::size_t rows, std::size_t cols,
                     std::size_t tile = 16) {  // portalint: tn-magic-tile-ok(device smem tile bound by the modeled 48KB budget, not host-tunable)
  PB_EXPECTS(tile >= 2);
  const std::size_t halo = tile + 2;
  const gpusim::Dim3 block{tile, tile, 1};
  const gpusim::Dim3 grid{gpusim::blocks_for(cols, tile), gpusim::blocks_for(rows, tile), 1};
  const std::size_t shared_bytes = halo * halo * sizeof(double);

  gpusim::launch_blocks(ctx, grid, block, shared_bytes, [&](gpusim::BlockCtx& bc) {
    auto shared = bc.shared<double>(halo * halo);
    const std::size_t base_i = bc.block_idx().y * tile;  // tile origin (interior coords)
    const std::size_t base_j = bc.block_idx().x * tile;

    // Phase 1: cooperative halo load — each lane loads its cell plus a
    // strided share of the halo ring.
    bc.for_lanes([&](const gpusim::ThreadCtx& tc) {
      for (std::size_t idx = tc.lane_in_block(); idx < halo * halo;
           idx += tc.block_dim.volume()) {
        const std::size_t li = idx / halo;
        const std::size_t lj = idx % halo;
        const std::size_t gi = base_i + li;  // global row of shared(li, lj)
        const std::size_t gj = base_j + lj;
        shared[idx] = (gi < rows && gj < cols) ? in[gi * cols + gj] : 0.0;
      }
    });

    // Phase 2 (after the implicit barrier): compute from shared memory.
    bc.for_lanes([&](const gpusim::ThreadCtx& tc) {
      const std::size_t li = tc.thread_idx.y + 1;  // interior of the halo tile
      const std::size_t lj = tc.thread_idx.x + 1;
      const std::size_t gi = base_i + li;
      const std::size_t gj = base_j + lj;
      if (gi >= 1 && gi + 1 < rows && gj >= 1 && gj + 1 < cols) {
        out[gi * cols + gj] = 0.25 * (shared[(li - 1) * halo + lj] +
                                      shared[(li + 1) * halo + lj] +
                                      shared[li * halo + lj - 1] +
                                      shared[li * halo + lj + 1]);
      }
    });
  });
}

/// Run Jacobi to convergence: sweeps until the max-norm update falls
/// below `tolerance` or `max_sweeps` is hit.  Returns the sweep count.
template <class Space>
std::size_t solve_jacobi(const Space& space, Grid2D& grid, double tolerance,
                         std::size_t max_sweeps) {
  PB_EXPECTS(tolerance > 0.0 && max_sweeps > 0);
  for (std::size_t sweep = 1; sweep <= max_sweeps; ++sweep) {
    sweep_simd(space, grid.front(), grid.back());
    const double r = residual_max(space, grid.front(), grid.back());
    grid.swap();
    if (r < tolerance) return sweep;
  }
  return max_sweeps;
}

}  // namespace portabench::stencil
