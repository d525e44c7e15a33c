// Ablation: data-transfer overlap.
//
// Section IV excludes "initial communication (threads and GPUs)" from the
// measurements, and Section II notes that Kokkos' template-time back ends
// hinder "the overlap of data transfers with computations".  This bench
// puts the transfers back, three ways:
//
//   analytic     end-to-end batched GEMM over PCIe4 (Wombat) and Infinity
//                Fabric (Crusher), serial vs double-buffered (perfmodel),
//                cross-checked against a two-stream gpusim schedule;
//   scheduled    the sharded pipeline driver (gpusim/pipeline.hpp) fed
//                the modeled Crusher panel times at a transfer/compute-
//                balanced size — the deterministic makespan ratio the
//                --require gate pins (overlap must clear 1.3x);
//   operational  multigpu::gemm_sharded with *throttled* links (modeled
//                link seconds enforced in wall time), overlap on vs off,
//                verified bitwise against the serial oracle.
//
// Usage: ablation_transfer_overlap [--require X] [--out PATH]
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "gpusim/pipeline.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/topology.hpp"
#include "multigpu/gemm.hpp"
#include "perfmodel/interconnect.hpp"

namespace {

using namespace portabench;

/// Schedule the batched pipeline on gpusim streams (copy stream + compute
/// stream with events) and return the modeled makespan.
double stream_schedule(gpusim::DeviceContext& ctx, double h2d_s, double kernel_s,
                       double d2h_s, std::size_t batches) {
  gpusim::Stream copy(ctx);
  gpusim::Stream compute(ctx);
  gpusim::Event last_d2h;
  double makespan = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    copy.enqueue(h2d_s);
    gpusim::Event in_ready;
    copy.record(in_ready);
    compute.wait(in_ready);
    compute.enqueue(kernel_s);
    gpusim::Event done;
    compute.record(done);
    copy.wait(done);  // D2H shares the copy engine, ordered after H2D of the next batch
    copy.enqueue(d2h_s);
    copy.record(last_d2h);
    makespan = std::max(compute.now(), last_d2h.timestamp());
  }
  return makespan;
}

/// Modeled makespan of the panel pipeline driver itself on a one-device
/// topology: `panels` panels whose per-stage modeled seconds are given,
/// overlapped or strict.
double pipeline_makespan(gpusim::DeviceTopology& topo, std::size_t panels, double h2d_s,
                         double kernel_s, double d2h_s, bool overlap) {
  const auto stage = [](double cost) {
    return [cost](gpusim::Stream& s, std::size_t, std::size_t, std::size_t) {
      s.enqueue(cost);
    };
  };
  return gpusim::run_sharded_pipeline(topo, {panels}, overlap, stage(h2d_s),
                                      stage(kernel_s), stage(d2h_s))
      .modeled_s;
}

}  // namespace

int main(int argc, char** argv) {
  using perfmodel::end_to_end_gemm;
  using perfmodel::GpuMachineModel;
  using perfmodel::GpuPerfSpec;

  double require = 0.0;  // minimum scheduled overlap speedup; 0 = report only
  std::string out_path = "BENCH_overlap.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require") == 0 && i + 1 < argc) {
      require = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: ablation_transfer_overlap [--require X] [--out PATH]\n";
      return 2;
    }
  }

  std::cout << "=== Ablation: host<->device transfer overlap (batched GEMM) ===\n\n";

  struct Target {
    const char* label;
    GpuMachineModel model;
    gpusim::TopologyConfig node;  ///< host link and functional device spec
  };
  Target targets[] = {
      {"A100 over PCIe 4.0 x16", GpuMachineModel(GpuPerfSpec::a100()),
       gpusim::TopologyConfig::wombat_node()},
      {"MI250X GCD over Infinity Fabric", GpuMachineModel(GpuPerfSpec::mi250x_gcd()),
       gpusim::TopologyConfig::crusher_node()},
  };

  for (auto& target : targets) {
    std::cout << "--- " << target.label << " (FP64) ---\n";
    Table t({"n", "batches", "kernel (ms)", "H2D+D2H (ms)", "serial (ms)",
             "overlapped (ms)", "speedup", "stream-sched (ms)"});
    gpusim::DeviceContext ctx(target.node.device_spec);
    for (std::size_t n : {2048u, 4096u, 8192u}) {
      for (std::size_t batches : {1u, 4u, 16u}) {
        const auto e2e = end_to_end_gemm(target.model, target.node.h2d_local,
                                         Precision::kDouble, n, batches);
        const double streams =
            stream_schedule(ctx, e2e.h2d_s, e2e.kernel_s, e2e.d2h_s, batches);
        t.add_row({std::to_string(n), std::to_string(batches),
                   Table::num(e2e.kernel_s * 1e3, 2),
                   Table::num((e2e.h2d_s + e2e.d2h_s) * 1e3, 2),
                   Table::num(e2e.serial_s * 1e3, 2), Table::num(e2e.overlapped_s * 1e3, 2),
                   Table::num(e2e.serial_s / e2e.overlapped_s, 2),
                   Table::num(streams * 1e3, 2)});
      }
    }
    std::cout << t.to_markdown() << "\n";
  }

  // --- scheduled: the pipeline driver at a balanced Crusher point ---
  // n where per-panel kernel time matches per-panel A-in + C-out over
  // the 36 GB/s host Infinity Fabric (~2300 for FP64 on an MI250X GCD):
  // the regime where double buffering pays the most.  The makespans are
  // modeled clocks — deterministic on any host, so the gate always runs.
  const std::size_t bal_n = 2304;
  const std::size_t panel_rows = 128;
  const std::size_t panels = 16;
  const GpuMachineModel mi250x(GpuPerfSpec::mi250x_gcd());
  gpusim::TopologyConfig crusher = gpusim::TopologyConfig::crusher_node(1);
  crusher.pin_workers = false;  // degenerate one-GCD topology: the shared engine
  const double kernel_panel = mi250x.reference_time(Precision::kDouble, bal_n).total_s *
                              static_cast<double>(panel_rows) / static_cast<double>(bal_n);
  const double bytes_panel = static_cast<double>(panel_rows * bal_n) * sizeof(double);
  const double h2d_panel = crusher.h2d_local.seconds(bytes_panel);
  const double d2h_panel = h2d_panel;
  gpusim::DeviceTopology sched_topo(crusher);
  const double strict_s =
      pipeline_makespan(sched_topo, panels, h2d_panel, kernel_panel, d2h_panel, false);
  const double overlap_s =
      pipeline_makespan(sched_topo, panels, h2d_panel, kernel_panel, d2h_panel, true);
  const double sched_speedup = strict_s / overlap_s;
  std::cout << "Pipeline driver, balanced Crusher point (n=" << bal_n << ", " << panels
            << " panels of " << panel_rows << " rows):\n"
            << "  strict-order " << strict_s * 1e3 << " ms, double-buffered "
            << overlap_s * 1e3 << " ms -> " << sched_speedup << "x\n\n";

  // --- operational: sharded GEMM with throttled links, overlap on/off ---
  // Small host-sized problem; the links enforce their modeled seconds in
  // wall time, so the wall ratio shows real overlap.  Bitwise identity
  // against the serial oracle gates unconditionally.
  const std::size_t m = 1024;
  const std::size_t kk = 512;
  const std::size_t nn = 512;
  std::vector<double> a(m * kk);
  std::vector<double> b(kk * nn);
  std::vector<double> c(m * nn);
  std::vector<double> oracle(m * nn);
  Xoshiro256 rng(0x0F75ull);
  fill_uniform(std::span<double>(a), rng);
  fill_uniform(std::span<double>(b), rng);
  const simrt::RawView2<const double> A(a.data(), m, kk);
  const simrt::RawView2<const double> B(b.data(), kk, nn);
  multigpu::gemm_sharded_oracle<double>(A, B,
                                        simrt::RawView2<double>(oracle.data(), m, nn));

  int failures = 0;
  double wall[2] = {0.0, 0.0};
  double modeled[2] = {0.0, 0.0};
  bool bitwise[2] = {false, false};
  for (const bool overlap : {false, true}) {
    gpusim::TopologyConfig tc = gpusim::TopologyConfig::crusher_node(2);
    tc.throttle_links = true;  // modeled link seconds enforced in wall time
    gpusim::DeviceTopology topo(tc);
    multigpu::GemmShardOptions opt;
    opt.panel_rows = 128;
    opt.overlap = overlap;
    std::fill(c.begin(), c.end(), 0.0);
    Timer timer;
    const auto stats = multigpu::gemm_sharded<double>(
        topo, A, B, simrt::RawView2<double>(c.data(), m, nn), opt);
    wall[overlap ? 1 : 0] = timer.seconds();
    modeled[overlap ? 1 : 0] = stats.modeled_s;
    bitwise[overlap ? 1 : 0] =
        std::memcmp(c.data(), oracle.data(), m * nn * sizeof(double)) == 0;
    if (!bitwise[overlap ? 1 : 0]) {
      std::cout << "BITWISE MISMATCH (overlap=" << overlap << ")\n";
      ++failures;
    }
  }
  std::cout << "Sharded GEMM (m=" << m << ", throttled links, 2 GCDs): strict "
            << wall[0] * 1e3 << " ms wall, overlapped " << wall[1] * 1e3
            << " ms wall (" << wall[0] / wall[1] << "x)\n\n";

  BenchArtifact artifact("ablation_transfer_overlap");
  JsonWriter& w = artifact.writer();
  w.key("required_speedup");
  w.value(require);
  w.key("scheduled");
  w.begin_object();
  w.key("n");
  w.value(bal_n);
  w.key("panels");
  w.value(panels);
  w.key("strict_seconds");
  w.value(strict_s);
  w.key("overlap_seconds");
  w.value(overlap_s);
  w.key("speedup");
  w.value(sched_speedup);
  w.end_object();
  w.key("operational");
  w.begin_object();
  w.key("m");
  w.value(m);
  w.key("strict_wall_seconds");
  w.value(wall[0]);
  w.key("overlap_wall_seconds");
  w.value(wall[1]);
  w.key("strict_modeled_seconds");
  w.value(modeled[0]);
  w.key("overlap_modeled_seconds");
  w.value(modeled[1]);
  w.key("wall_speedup");
  w.value(wall[0] / wall[1]);
  w.key("bitwise_identical");
  w.value(bitwise[0] && bitwise[1]);
  w.end_object();
  if (const int rc = artifact.write(out_path); rc != 0) return rc;

  std::cout << "Takeaway: single-shot GEMM is kernel-dominated (the paper's choice to\n"
               "exclude transfers is benign), but batched pipelines recover nearly the\n"
               "full transfer cost — capability the high-level models must expose\n"
               "(CUDA.jl/AMDGPU.jl do; Kokkos routes it through back-end streams).\n";

  if (failures != 0) return 1;
  if (require > 0.0 && sched_speedup < require) {
    std::cout << "FAILED: scheduled overlap speedup " << sched_speedup
              << "x is below the " << require << "x requirement\n";
    return 1;
  }
  return 0;
}
