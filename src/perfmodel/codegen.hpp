// Inner-loop code-generation model.
//
// The paper traces its A100 Julia gap to generated code: "The generated
// low-level PTX ... indicated a difference in unrolled loop instructions,
// 2 for CUDA.jl and 4 in the native CUDA" (Section IV-B).  All four
// frontends are LLVM-based, so their performance differences on a fixed
// kernel largely reduce to code-generation choices: unroll factor,
// vectorization, bounds checks, FMA contraction.  This model makes those
// choices explicit and quantifies each one's efficiency cost, grounding
// the calibrated ModelTraits in mechanism rather than in bare constants.
#pragma once

#include <cstddef>

#include "device_specs.hpp"

namespace portabench::perfmodel {

/// What the compiler emitted for the innermost GEMM loop.
struct CodegenProfile {
  // portalint: tn-magic-tile-ok(models what the compiler emitted; the unroll ablation varies it)
  int unroll = 4;                 ///< independent accumulation chains
  std::size_t vector_bits = 256;  ///< vector width used (0 = scalar)
  bool bounds_checked = false;    ///< per-access bounds tests (Numba, Julia w/o @inbounds)
  bool fma_contraction = true;    ///< mul+add fused into FMA
  bool fastmath = true;           ///< reassociation allowed (enables vector reductions)

  /// The profiles the paper's stacks produce on this kernel.
  static CodegenProfile vendor_cpu(const CpuSpec& cpu);  ///< -O3 -fopenmp -march=native
  static CodegenProfile julia_cpu(const CpuSpec& cpu);   ///< @threads + @inbounds
  static CodegenProfile numba_cpu(const CpuSpec& cpu);   ///< @njit(parallel, fastmath)
  static CodegenProfile vendor_gpu();                    ///< nvcc/hipcc: unroll 4
  static CodegenProfile julia_gpu();                     ///< CUDA.jl: unroll 2 (the PTX finding)
  static CodegenProfile numba_gpu();                     ///< nvvm with checked indexing
};

/// Efficiency (0, 1] of a CPU inner loop relative to the ideal profile
/// (full vector width, unrolled, unchecked, contracted).
[[nodiscard]] double cpu_inner_loop_efficiency(const CodegenProfile& profile,
                                               const CpuSpec& cpu);

/// Efficiency (0, 1] of a GPU inner loop relative to the ideal profile.
/// Models the dependent-FMA pipeline: with unroll u independent chains
/// against an exposed-latency fraction (1 - alpha), sustained issue rate
/// is alpha + (1 - alpha) * min(1, u / latency_chains).
[[nodiscard]] double gpu_inner_loop_efficiency(const CodegenProfile& profile);

/// The unroll-2-vs-4 ratio the paper measured on the A100 (Julia CUDA.jl
/// FP64 efficiency ~0.867) falls out of gpu_inner_loop_efficiency:
/// gpu_inner_loop_efficiency(julia_gpu()) / gpu_inner_loop_efficiency(vendor_gpu()).
[[nodiscard]] double julia_a100_unroll_ratio();

}  // namespace portabench::perfmodel
