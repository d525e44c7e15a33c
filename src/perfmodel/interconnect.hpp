// End-to-end GEMM timing over a host<->device link.
//
// The paper's protocol measures kernel time only — the warm-up exclusion
// "also discards initial communication (threads and GPUs)" (Section IV).
// A downstream user porting this methodology to a real workflow needs the
// transfers back: this model composes a node's host link (a
// gpusim::LinkModel from the TopologyConfig presets — PCIe 4.0 on
// Wombat, Infinity Fabric on Crusher) with the kernel model, serially or
// overlapped (double buffering), which the transfer-overlap ablation
// quantifies.
#pragma once

#include <cstddef>

#include "common/precision.hpp"
#include "gpusim/topology.hpp"
#include "machine_model.hpp"

namespace portabench::perfmodel {

/// End-to-end timing decomposition for one device GEMM including data
/// movement (A and B in, C out).
struct EndToEndTime {
  double h2d_s = 0.0;
  double kernel_s = 0.0;
  double d2h_s = 0.0;
  double serial_s = 0.0;     ///< H2D; kernel; D2H strictly ordered
  double overlapped_s = 0.0; ///< pipelined over `batches` chunks
};

/// Compose link + kernel model for a batch of `batches` independent n^3
/// GEMMs (batches >= 1).  Overlap assumes double buffering over a duplex
/// link: chunk i+1's H2D and chunk i-1's D2H overlap chunk i's kernel.
[[nodiscard]] EndToEndTime end_to_end_gemm(const GpuMachineModel& model,
                                           const gpusim::LinkModel& link, Precision prec,
                                           std::size_t n, std::size_t batches = 1);

}  // namespace portabench::perfmodel
