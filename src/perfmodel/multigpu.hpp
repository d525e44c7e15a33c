// Multi-device scaling model.
//
// The paper measures single-GPU performance, but the nodes it describes
// carry more: Crusher has 8 MI250X GCDs and Wombat 2 A100s (Section I).
// This extension models the obvious next experiment — splitting the GEMM
// across G devices — with the two effects that dominate in practice:
// host-link contention (all devices share host memory bandwidth when
// staging operands) and the per-device efficiency loss when the partition
// shrinks the per-device problem.  Links and the NUMA domain map come
// from gpusim::TopologyConfig, the node description the simulator runs.
#pragma once

#include <cstddef>
#include <vector>

#include "gpusim/topology.hpp"
#include "machine_model.hpp"

namespace portabench::perfmodel {

struct MultiGpuPoint {
  std::size_t devices = 1;
  double kernel_s = 0.0;       ///< slowest device's kernel time
  double transfer_s = 0.0;     ///< staging time under link contention
  double total_s = 0.0;
  double speedup = 1.0;        ///< vs the 1-device total
  double efficiency = 1.0;     ///< speedup / devices
};

/// Strong-scaling sweep: one n x n GEMM row-partitioned across
/// 1..max_devices devices.  Each device computes an m/G x n block
/// (reading its A rows and all of B) over its own `link`; the links
/// share `host_bw_gbs` of aggregate host bandwidth when more than one
/// device stages at once.
[[nodiscard]] std::vector<MultiGpuPoint> strong_scaling_gemm(
    const GpuMachineModel& model, const gpusim::LinkModel& link, Precision prec,
    std::size_t n, std::size_t max_devices, double host_bw_gbs = 170.0);

/// Weak-scaling sweep: every device gets its own full n x n GEMM
/// (batched independent problems), contending only for the host link.
[[nodiscard]] std::vector<MultiGpuPoint> weak_scaling_gemm(
    const GpuMachineModel& model, const gpusim::LinkModel& link, Precision prec,
    std::size_t n, std::size_t max_devices, double host_bw_gbs = 170.0);

// --- NUMA-aware sharded-pipeline model -------------------------------

/// Knobs of the modeled sharded GEMM pipeline, matching
/// multigpu::gemm_sharded: B broadcast once per device, then per-panel
/// A-rows in / C-rows out double-buffered against the panel kernels.
struct ShardedGemmParams {
  std::size_t n = 1024;          ///< square GEMM edge
  std::size_t panel_rows = 128;  ///< rows per pipeline panel
  bool numa_aware_staging = true;  ///< stage each device from its own domain
  bool overlap = true;             ///< double-buffered vs strictly ordered
};

/// Predicted node time for the sharded pipeline at one device count.
struct ShardedPipelinePoint {
  std::size_t devices = 1;
  double broadcast_s = 0.0;  ///< slowest device's B upload
  double kernel_s = 0.0;     ///< slowest device's summed panel kernels
  double transfer_s = 0.0;   ///< slowest device's summed panel A-in/C-out
  double total_s = 0.0;      ///< pipeline makespan (max over devices)
  double speedup = 1.0;      ///< vs the 1-device point of the sweep
  double efficiency = 1.0;   ///< speedup / devices
  std::size_t remote_devices = 0;  ///< devices staging over the remote link
};

/// Sweep the sharded pipeline over 1..max_devices devices of `node`
/// (node.devices caps nothing here: each sweep point deals the same
/// multigpu::ShardPlan panels gemm_sharded runs across `g` devices, fed
/// per node's domain map and links).  Host-link contention caps the
/// aggregate H2D draw at host_bw_gbs, NUMA-remote staging rides the
/// remote link, and overlap hides per-panel transfers behind the
/// neighbor panel's kernel the way the double-buffered driver does.
[[nodiscard]] std::vector<ShardedPipelinePoint> sharded_pipeline_gemm(
    const GpuMachineModel& model, const gpusim::TopologyConfig& node, Precision prec,
    const ShardedGemmParams& params, std::size_t max_devices, double host_bw_gbs = 170.0);

/// True when two curves rank their points identically (the bench gate:
/// the predicted multi-GCD curve must match the measured curve's shape,
/// i.e. sorting by predicted time and by measured time agree).  Ties in
/// either curve accept any order within the tie.
[[nodiscard]] bool ranks_agree(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace portabench::perfmodel
