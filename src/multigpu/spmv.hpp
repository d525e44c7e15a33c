// Multi-device SpMV: CSR row blocks across the topology.
//
// Row-block decomposition over the ShardPlan: device d streams its
// contiguous panels of rows through the pipeline — for each panel the
// H2D stage ships the row_ptr slice plus exactly the col_idx/values
// window [row_ptr[begin], row_ptr[end]) that those rows touch, the
// kernel walks rows with spmv_reference's accumulation order, and the
// D2H stage lands the y block.  x is broadcast whole to every device
// ahead of the first panel (column indices are global).
//
// Bitwise contract: y[r] is a single ordered dot product over row r's
// entries; the row-block split changes only which device walks the row.
// tests/multigpu pins y identical to spmv_reference for every device
// count.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "gpusim/batch.hpp"
#include "gpusim/copy.hpp"
#include "gpusim/pipeline.hpp"
#include "multigpu/shard.hpp"
#include "spmv/kernels.hpp"

namespace portabench::multigpu {

struct SpmvShardOptions {
  std::size_t panel_rows = 2048;
  bool overlap = true;
  bool numa_aware_staging = true;
  /// Rows per batch item inside a panel (device-side parallelism grain).
  std::size_t rows_per_block = 256;
};

/// y = A * x, row blocks sharded across every device of `topo`.
template <class T>
gpusim::PipelineStats spmv_sharded(gpusim::DeviceTopology& topo,
                                   const spmv::CsrMatrix<T>& A, std::span<const T> x,
                                   std::span<T> y, const SpmvShardOptions& opt = {}) {
  PB_EXPECTS(x.size() == A.cols && y.size() == A.rows);
  PB_EXPECTS(opt.panel_rows > 0 && opt.rows_per_block > 0);
  if (A.rows == 0) return {};

  const ShardPlan plan = ShardPlan::rows(A.rows, opt.panel_rows, topo.devices());

  // Widest col_idx/values window any panel needs: slots are sized once.
  std::size_t max_panel_nnz = 0;
  for (const Panel& p : plan.panels) {
    max_panel_nnz = std::max(max_panel_nnz, A.row_ptr[p.end] - A.row_ptr[p.begin]);
  }

  struct DeviceState {
    std::vector<gpusim::DeviceBuffer<std::size_t>> rp_slots;
    std::vector<gpusim::DeviceBuffer<std::size_t>> ci_slots;
    std::vector<gpusim::DeviceBuffer<T>> val_slots;
    std::vector<gpusim::DeviceBuffer<T>> y_slots;
    gpusim::DeviceBuffer<T> x;
  };
  std::vector<DeviceState> dev(topo.devices());
  for (std::size_t d = 0; d < topo.devices(); ++d) {
    if (plan.panels_of(d) == 0) continue;
    gpusim::DeviceContext& ctx = topo.context(d);
    for (std::size_t s = 0; s < gpusim::kPipelineSlots; ++s) {
      dev[d].rp_slots.emplace_back(ctx, opt.panel_rows + 1);
      dev[d].ci_slots.emplace_back(ctx, std::max<std::size_t>(1, max_panel_nnz));
      dev[d].val_slots.emplace_back(ctx, std::max<std::size_t>(1, max_panel_nnz));
      dev[d].y_slots.emplace_back(ctx, opt.panel_rows);
    }
    dev[d].x = gpusim::DeviceBuffer<T>(ctx, A.cols);
  }

  const auto domain_of = [&](std::size_t d) {
    return opt.numa_aware_staging ? topo.numa_domain_of(d) : std::size_t{0};
  };

  const auto h2d = [&](gpusim::Stream& s, std::size_t d, std::size_t kk, std::size_t slot) {
    if (kk == 0) {
      gpusim::copy_to_device_async(topo, d, s, dev[d].x, 0,
                                   std::span<const T>(x.data(), x.size()), domain_of(d));
    }
    const Panel& p = plan.panel(d, kk);
    const std::size_t e0 = A.row_ptr[p.begin];
    const std::size_t e1 = A.row_ptr[p.end];
    gpusim::copy_to_device_async(
        topo, d, s, dev[d].rp_slots[slot], 0,
        std::span<const std::size_t>(A.row_ptr.data() + p.begin, p.rows() + 1),
        domain_of(d));
    gpusim::copy_to_device_async(
        topo, d, s, dev[d].ci_slots[slot], 0,
        std::span<const std::size_t>(A.col_idx.data() + e0, e1 - e0), domain_of(d));
    gpusim::copy_to_device_async(topo, d, s, dev[d].val_slots[slot], 0,
                                 std::span<const T>(A.values.data() + e0, e1 - e0),
                                 domain_of(d));
  };

  const auto compute = [&](gpusim::Stream& s, std::size_t d, std::size_t kk,
                           std::size_t slot) {
    const Panel& p = plan.panel(d, kk);
    const std::size_t rows = p.rows();
    const std::size_t base = A.row_ptr[p.begin];
    const std::size_t rpb = opt.rows_per_block;
    const std::size_t* rp = dev[d].rp_slots[slot].data();
    const std::size_t* ci = dev[d].ci_slots[slot].data();
    const T* val = dev[d].val_slots[slot].data();
    const T* xd = dev[d].x.data();
    T* yd = dev[d].y_slots[slot].data();
    gpusim::LaunchEngine* engine = &topo.engine(d);
    gpusim::DeviceContext* ctx = &topo.context(d);
    s.enqueue(0.0, [=] {
      const std::size_t blocks = (rows + rpb - 1) / rpb;
      ctx->note_launch(gpusim::Dim3{blocks, 1, 1},
                       gpusim::Dim3{ctx->spec().warp_size, 1, 1});
      gpusim::run_batch(*engine, blocks, rows, [=](std::size_t, std::size_t b) {
        const std::size_t r0 = b * rpb;
        const std::size_t r1 = std::min(rows, r0 + rpb);
        for (std::size_t r = r0; r < r1; ++r) {
          T sum{};
          // row_ptr entries are global; the entry window was rebased to
          // `base` when it was staged.
          for (std::size_t e = rp[r]; e < rp[r + 1]; ++e) {
            sum += val[e - base] * xd[ci[e - base]];
          }
          yd[r] = sum;
        }
      });
    });
  };

  const auto d2h = [&](gpusim::Stream& s, std::size_t d, std::size_t kk, std::size_t slot) {
    const Panel& p = plan.panel(d, kk);
    gpusim::copy_to_host_async(topo, d, s, y.subspan(p.begin, p.rows()),
                               dev[d].y_slots[slot], 0, domain_of(d));
  };

  return gpusim::run_sharded_pipeline(topo, plan.panels_per_device(), opt.overlap, h2d,
                                      compute, d2h);
}

}  // namespace portabench::multigpu
