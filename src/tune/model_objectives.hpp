// Modeled GPU cost functions for the unroll and block-geometry ablations.
//
// The paper's device-side findings (unroll-2 vs unroll-4 PTX,
// block-geometry traffic) have no host kernel to time, so their costs
// come from the calibrated perfmodel/gpusim analytics.
// bench/ablation_unroll and bench/ablation_block_size emit these
// functions into their BENCH_*.json artifacts (the `tuner_cost`
// columns): the smaller-is-better cost a search over the knob would
// minimize.
//
// Header-only on purpose: consumers must link portabench::perfmodel and
// portabench::gpusim (the tune library does not take a perfmodel
// dependency just to host two inline formulas).
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/precision.hpp"
#include "gpusim/coalescing.hpp"
#include "gpusim/occupancy.hpp"
#include "perfmodel/codegen.hpp"
#include "perfmodel/device_specs.hpp"
#include "perfmodel/machine_model.hpp"

namespace portabench::tune {

/// Modeled sustained-issue efficiency of the device inner loop at a
/// given unroll factor (vendor-GPU profile; the paper's Fig. 5 knob).
[[nodiscard]] inline double modeled_unroll_efficiency(long unroll) {
  perfmodel::CodegenProfile p = perfmodel::CodegenProfile::vendor_gpu();
  p.unroll = static_cast<int>(std::max<long>(1, unroll));
  return perfmodel::gpu_inner_loop_efficiency(p);
}

/// Smaller-is-better unroll cost (inverse efficiency).
[[nodiscard]] inline double modeled_unroll_cost(long unroll) {
  return 1.0 / std::max(1e-9, modeled_unroll_efficiency(unroll));
}

/// Per-shape analytics for one square block edge of the naive device
/// GEMM on the A100 model (the ablation table's columns).
struct BlockModelStats {
  double occupancy = 0.0;
  double traffic_bytes = 0.0;    ///< modeled DRAM traffic at n = kBlockModelN
  double expansion = 1.0;        ///< weighted coalescing sector expansion
};

/// Problem size the block-geometry model is evaluated at (the paper's
/// largest Fig. 2 size).
inline constexpr std::size_t kBlockModelN = 8192;

[[nodiscard]] inline BlockModelStats modeled_block_stats(long block_edge) {
  const auto spec = gpusim::GpuSpec::a100();
  const perfmodel::GpuMachineModel model(perfmodel::GpuPerfSpec::a100());
  const std::size_t edge =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::max<long>(1, block_edge)));
  const gpusim::Dim3 block{static_cast<unsigned>(edge), static_cast<unsigned>(edge), 1};
  const gpusim::KernelResources res{block.volume(), 32, 0};
  BlockModelStats out;
  out.occupancy = gpusim::compute_occupancy(spec, res).fraction;
  out.traffic_bytes = model.dram_traffic_bytes(Precision::kDouble, kBlockModelN, edge);
  out.expansion = gpusim::analyze_gemm_coalescing(spec, block, kBlockModelN,
                                                  sizeof(double))
                      .weighted_expansion(kBlockModelN);
  return out;
}

/// Smaller-is-better block cost: modeled time-proxy — traffic inflated
/// by poor coalescing, deflated by occupancy.
[[nodiscard]] inline double modeled_block_cost(long block_edge) {
  const BlockModelStats s = modeled_block_stats(block_edge);
  return s.traffic_bytes * s.expansion / std::max(1e-3, s.occupancy);
}

}  // namespace portabench::tune
