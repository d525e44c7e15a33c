// Multi-device GEMM: panel-split C = A * B across the topology.
//
// Decomposition: the M dimension is cut into ShardPlan row panels;
// device d streams its contiguous panel range through the double-
// buffered pipeline (gpusim/pipeline.hpp) — H2D of A panel k+1 overlaps
// the tiled kernel on panel k, D2H of C panel k-1 overlaps both.  B is
// broadcast to every device once, on the copy-in stream ahead of the
// first panel, so its upload cost rides the same modeled NUMA link as
// the panels.
//
// Bitwise contract: every MC row block of a panel is one
// gemm_tiled_serial_scratch call, which runs the tiled GEMM's shared
// pieces (pack_b, pack_a, macro_kernel) serially.  The accumulation
// order of any C(i,j) is the KC-block sequence over k — it does not
// depend on how rows are grouped into MC blocks, panels or devices, and
// KC is the constant gemm::tiled::kKC — so every panel split and every
// device count produces bit-identical C to the single-device serial
// oracle (gemm_tiled_serial_scratch over the whole matrix).
// tests/multigpu pins exactly that.  Each row block packs its own copy
// of B on every KC step; sharing one packed B per device is a change to
// this driver alone.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "gemm/kernels_tiled.hpp"
#include "gpusim/batch.hpp"
#include "gpusim/copy.hpp"
#include "gpusim/pipeline.hpp"
#include "multigpu/shard.hpp"
#include "simrt/mdarray.hpp"

namespace portabench::multigpu {

struct GemmShardOptions {
  std::size_t panel_rows = 0;  ///< 0: 2 * gemm::tiled::kMC
  bool overlap = true;
};

/// C = A * B (C overwritten), sharded across every device of `topo`.
/// A, B, C are dense row-major host matrices; A and C row ranges are
/// staged per panel, so only B and two panel slots are resident per
/// device.  Returns the pipeline timing summary.
template <class T>
gpusim::PipelineStats gemm_sharded(gpusim::DeviceTopology& topo,
                                   simrt::RawView2<const T> A, simrt::RawView2<const T> B,
                                   simrt::RawView2<T> C, const GemmShardOptions& opt = {}) {
  const std::size_t m = A.extent(0);
  const std::size_t k = A.extent(1);
  const std::size_t n = B.extent(1);
  PB_EXPECTS(B.extent(0) == k && C.extent(0) == m && C.extent(1) == n);
  // Panel staging copies whole row ranges: views must be dense row-major.
  PB_EXPECTS(A.stride(1) == 1 && A.stride(0) == k);
  PB_EXPECTS(B.stride(1) == 1 && B.stride(0) == n);
  PB_EXPECTS(C.stride(1) == 1 && C.stride(0) == n);

  constexpr std::size_t mc = gemm::tiled::kMC;
  std::size_t panel_rows = opt.panel_rows;
  if (panel_rows == 0) panel_rows = 2 * mc;
  if (m == 0 || n == 0 || k == 0) return {};

  const ShardPlan plan = ShardPlan::rows(m, panel_rows, topo.devices());

  struct DeviceState {
    std::vector<gpusim::DeviceBuffer<T>> a_slots;
    std::vector<gpusim::DeviceBuffer<T>> c_slots;
    gpusim::DeviceBuffer<T> b;
  };
  std::vector<DeviceState> dev(topo.devices());
  for (std::size_t d = 0; d < topo.devices(); ++d) {
    if (plan.panels_of(d) == 0) continue;
    gpusim::DeviceContext& ctx = topo.context(d);
    for (std::size_t s = 0; s < gpusim::kPipelineSlots; ++s) {
      dev[d].a_slots.emplace_back(ctx, panel_rows * k);
      dev[d].c_slots.emplace_back(ctx, panel_rows * n);
    }
    dev[d].b = gpusim::DeviceBuffer<T>(ctx, k * n);
  }

  const auto h2d = [&](gpusim::Stream& s, std::size_t d, std::size_t kk, std::size_t slot) {
    if (kk == 0) {
      // Broadcast B ahead of the first panel on the same copy-in queue.
      gpusim::copy_to_device_async(topo, d, s, dev[d].b, 0,
                                   std::span<const T>(B.data(), k * n), topo.numa_domain_of(d));
    }
    const Panel& p = plan.panel(d, kk);
    gpusim::copy_to_device_async(
        topo, d, s, dev[d].a_slots[slot], 0,
        std::span<const T>(A.data() + p.begin * k, p.rows() * k), topo.numa_domain_of(d));
  };

  const auto compute = [&](gpusim::Stream& s, std::size_t d, std::size_t kk,
                           std::size_t slot) {
    const Panel& p = plan.panel(d, kk);
    T* a_ptr = dev[d].a_slots[slot].data();
    T* c_ptr = dev[d].c_slots[slot].data();
    T* b_ptr = dev[d].b.data();
    gpusim::LaunchEngine* engine = &topo.engine(d);
    gpusim::DeviceContext* ctx = &topo.context(d);
    const std::size_t rows = p.rows();
    // Kernels cost no modeled time: the makespan models the transfers.
    s.enqueue(0.0, [=] {
      // One MC row block per batch item: per-element accumulation order
      // is KC-major regardless of the row grouping, so this forked
      // schedule matches the serial oracle bit for bit.
      const std::size_t blocks = (rows + mc - 1) / mc;
      ctx->note_launch(gpusim::Dim3{blocks, 1, 1},
                       gpusim::Dim3{ctx->spec().warp_size, 1, 1});
      std::memset(c_ptr, 0, rows * n * sizeof(T));
      gpusim::run_batch(*engine, blocks, rows * n, [=](std::size_t worker, std::size_t b) {
        const std::size_t r0 = b * mc;
        const std::size_t r1 = std::min(rows, r0 + mc);
        const simrt::RawView2<const T> Ab(a_ptr + r0 * k, r1 - r0, k);
        const simrt::RawView2<const T> Bv(b_ptr, k, n);
        simrt::RawView2<T> Cb(c_ptr + r0 * n, r1 - r0, n);
        const std::size_t bytes = gemm::gemm_tiled_scratch_bytes<T>(r1 - r0, n, k);
        auto scratch = gpusim::batch_scratch(*engine, worker, bytes);
        gemm::gemm_tiled_serial_scratch<T>(Ab, Bv, Cb, scratch);
      });
    });
  };

  const auto d2h = [&](gpusim::Stream& s, std::size_t d, std::size_t kk, std::size_t slot) {
    const Panel& p = plan.panel(d, kk);
    gpusim::copy_to_host_async(topo, d, s,
                               std::span<T>(C.data() + p.begin * n, p.rows() * n),
                               dev[d].c_slots[slot], 0, topo.numa_domain_of(d));
  };

  return gpusim::run_sharded_pipeline(topo, plan.panels_per_device(), opt.overlap, h2d,
                                      compute, d2h);
}

/// Single-device serial oracle for gemm_sharded: the whole matrix through
/// gemm_tiled_serial_scratch with the default tile, C overwritten.
template <class T>
void gemm_sharded_oracle(simrt::RawView2<const T> A, simrt::RawView2<const T> B,
                         simrt::RawView2<T> C) {
  const std::size_t m = A.extent(0);
  const std::size_t k = A.extent(1);
  const std::size_t n = B.extent(1);
  std::vector<std::byte> scratch(gemm::gemm_tiled_scratch_bytes<T>(m, n, k));
  std::fill_n(C.data(), m * n, T{});
  gemm::gemm_tiled_serial_scratch<T>(A, B, C, scratch);
}

}  // namespace portabench::multigpu
