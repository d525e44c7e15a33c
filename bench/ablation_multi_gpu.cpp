// Ablation: multi-device scaling (beyond the paper's single-GPU runs).
//
// Crusher carries 8 MI250X GCDs per node and Wombat 2 A100s; the paper
// measures one device.  This bench runs the next experiment both ways:
//
//   modeled   strong/weak-scaling curves from perfmodel (host-link
//             contention + per-device efficiency loss), unchanged from
//             the original ablation tables;
//   measured  the real sharded GEMM pipeline (multigpu::gemm_sharded) on
//             the simulated Crusher topology at 1/2/4 GCDs, wall-clock
//             throughput with NUMA-pinned per-device engines, every run
//             verified bitwise against the single-device serial oracle.
//
// The measured sweep is cross-checked against the NUMA-aware predicted
// curve (perfmodel::sharded_pipeline_gemm): the two must rank the device
// counts identically (model_rank_match), the shape agreement the release
// gate pins.  --require X fails the run when the 4-GCD speedup is below
// X (CI passes 3 on >= 8-core runners, 0 elsewhere).
//
// Usage: ablation_multi_gpu [--n N] [--require X] [--out PATH]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "gpusim/topology.hpp"
#include "multigpu/gemm.hpp"
#include "perfmodel/multigpu.hpp"

namespace {

using namespace portabench;

void print_sweep(const char* title, const std::vector<perfmodel::MultiGpuPoint>& sweep) {
  std::cout << title << "\n";
  Table t({"devices", "kernel (ms)", "staging (ms)", "total (ms)", "speedup",
           "efficiency"});
  for (const auto& p : sweep) {
    t.add_row({std::to_string(p.devices), Table::num(p.kernel_s * 1e3, 2),
               Table::num(p.transfer_s * 1e3, 2), Table::num(p.total_s * 1e3, 2),
               Table::num(p.speedup, 2), Table::num(p.efficiency, 3)});
  }
  std::cout << t.to_markdown() << "\n";
}

struct MeasuredPoint {
  std::size_t devices = 0;
  double wall_s = 0.0;
  double modeled_s = 0.0;
  double speedup = 1.0;
  bool bitwise = false;
};

}  // namespace

int main(int argc, char** argv) {
  using gpusim::TopologyConfig;
  using perfmodel::GpuMachineModel;
  using perfmodel::GpuPerfSpec;

  std::size_t n = 768;
  double require = 0.0;  // minimum 4-GCD speedup; 0 = report only
  std::string out_path = "BENCH_multigpu.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--require") == 0 && i + 1 < argc) {
      require = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: ablation_multi_gpu [--n N] [--require X] [--out PATH]\n";
      return 2;
    }
  }

  std::cout << "=== Ablation: multi-device scaling (FP64) ===\n\n";

  // --- modeled curves (the original ablation tables, n = 16384) ---
  const GpuMachineModel mi250x(GpuPerfSpec::mi250x_gcd());
  const gpusim::LinkModel crusher_link = TopologyConfig::crusher_node().h2d_local;
  const auto strong = perfmodel::strong_scaling_gemm(mi250x, crusher_link,
                                                     Precision::kDouble, 16384, 8);
  print_sweep("Crusher node: 8 MI250X GCDs, strong scaling (one GEMM row-split)", strong);
  print_sweep("Crusher node: 8 GCDs, weak scaling (one GEMM per GCD)",
              perfmodel::weak_scaling_gemm(mi250x, crusher_link, Precision::kDouble, 16384,
                                           8));
  const GpuMachineModel a100(GpuPerfSpec::a100());
  print_sweep("Wombat node: 2 A100s, strong scaling",
              perfmodel::strong_scaling_gemm(a100, TopologyConfig::wombat_node().h2d_local,
                                             Precision::kDouble, 16384, 2));

  // --- measured sharded pipeline at 1/2/4 GCDs, host-sized problem ---
  const std::size_t m = n;
  const std::size_t k = n;
  std::vector<double> a(m * k);
  std::vector<double> b(k * n);
  std::vector<double> c(m * n);
  Xoshiro256 rng(0xB0A7ull);
  fill_uniform(std::span<double>(a), rng);
  fill_uniform(std::span<double>(b), rng);
  const simrt::RawView2<const double> A(a.data(), m, k);
  const simrt::RawView2<const double> B(b.data(), k, n);

  std::vector<double> oracle(m * n);
  multigpu::gemm_sharded_oracle<double>(A, B,
                                        simrt::RawView2<double>(oracle.data(), m, n));

  const std::size_t device_counts[] = {1, 2, 4};
  std::vector<MeasuredPoint> measured;
  int failures = 0;
  for (const std::size_t g : device_counts) {
    TopologyConfig tc = TopologyConfig::crusher_node(g);
    tc.throttle_links = false;  // scaling run: links modeled, not enforced
    gpusim::DeviceTopology topo(tc);

    multigpu::GemmShardOptions opt;
    opt.panel_rows = 128;
    // Warm-up rep (paper protocol: first rep carries thread spin-up),
    // then the timed rep.
    std::fill(c.begin(), c.end(), 0.0);
    (void)multigpu::gemm_sharded<double>(topo, A, B,
                                         simrt::RawView2<double>(c.data(), m, n), opt);
    std::fill(c.begin(), c.end(), 0.0);
    Timer timer;
    const auto stats = multigpu::gemm_sharded<double>(
        topo, A, B, simrt::RawView2<double>(c.data(), m, n), opt);
    MeasuredPoint p;
    p.devices = g;
    p.wall_s = timer.seconds();
    p.modeled_s = stats.modeled_s;
    p.bitwise = std::memcmp(c.data(), oracle.data(), m * n * sizeof(double)) == 0;
    if (!p.bitwise) {
      std::cout << "BITWISE MISMATCH at " << g << " devices\n";
      ++failures;
    }
    measured.push_back(p);
  }
  for (auto& p : measured) p.speedup = measured.front().wall_s / p.wall_s;

  // The NUMA-aware predicted curve at the same device counts must rank
  // them like the measured wall times do.
  perfmodel::ShardedGemmParams params;
  params.n = n;
  params.panel_rows = 128;
  const auto predicted = perfmodel::sharded_pipeline_gemm(
      mi250x, TopologyConfig::crusher_node(), Precision::kDouble, params, 4);
  std::vector<double> pred_totals;
  std::vector<double> meas_totals;
  for (const auto& p : measured) {
    pred_totals.push_back(predicted[p.devices - 1].total_s);
    meas_totals.push_back(p.wall_s);
  }
  const bool rank_match = perfmodel::ranks_agree(pred_totals, meas_totals);

  std::cout << "Measured: sharded GEMM pipeline, n = " << n << ", NUMA-pinned GCDs\n";
  Table t({"devices", "wall (ms)", "modeled (ms)", "predicted (ms)", "speedup",
           "bitwise"});
  for (const auto& p : measured) {
    t.add_row({std::to_string(p.devices), Table::num(p.wall_s * 1e3, 2),
               Table::num(p.modeled_s * 1e3, 2),
               Table::num(predicted[p.devices - 1].total_s * 1e3, 2),
               Table::num(p.speedup, 2), p.bitwise ? "yes" : "NO"});
  }
  std::cout << t.to_markdown() << "\n";
  std::cout << "model rank match (predicted vs measured ordering): "
            << (rank_match ? "yes" : "NO") << "\n\n";

  BenchArtifact artifact("ablation_multi_gpu");
  JsonWriter& w = artifact.writer();
  w.key("n");
  w.value(n);
  w.key("required_speedup");
  w.value(require);
  w.key("measured");
  w.begin_array();
  for (const auto& p : measured) {
    w.begin_object();
    w.key("devices");
    w.value(p.devices);
    w.key("wall_seconds");
    w.value(p.wall_s);
    w.key("modeled_seconds");
    w.value(p.modeled_s);
    w.key("predicted_seconds");
    w.value(predicted[p.devices - 1].total_s);
    w.key("speedup");
    w.value(p.speedup);
    w.key("bitwise_identical");
    w.value(p.bitwise);
    w.end_object();
  }
  w.end_array();
  w.key("model_rank_match");
  w.value(rank_match);
  w.key("speedup_4gcd");
  w.value(measured.back().speedup);
  if (const int rc = artifact.write(out_path); rc != 0) return rc;

  std::cout << "Takeaway: strong scaling pays twice — the full-B broadcast grows the\n"
               "per-device staging share while the kernel shrinks — whereas weak\n"
               "scaling holds ~constant efficiency until the shared host bandwidth\n"
               "saturates.  The programming-model question (does the frontend expose\n"
               "multi-device placement at all?) sits on top: CUDA.jl/AMDGPU.jl and\n"
               "Kokkos do; Numba requires manual context juggling.\n";

  if (failures != 0) return 1;
  // The shape gates only apply where the host has cores to scale across
  // (CI passes --require 3 on >= 8-core runners); small hosts oversub-
  // scribe 4 topologies' worth of workers and legitimately rank oddly.
  if (require > 0.0 && !rank_match) {
    std::cout << "FAILED: predicted multi-GCD curve does not rank like the measured one\n";
    return 1;
  }
  if (require > 0.0 && measured.back().speedup < require) {
    std::cout << "FAILED: 4-GCD speedup " << measured.back().speedup << "x is below the "
              << require << "x requirement\n";
    return 1;
  }
  return 0;
}
