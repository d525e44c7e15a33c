// Ablation: inner-loop unroll factor (the paper's PTX finding).
//
// "The generated low-level PTX ... indicated a difference in unrolled
// loop instructions, 2 for CUDA.jl and 4 in the native CUDA" (Section
// IV-B).  The codegen model turns that observation into numbers: modeled
// sustained-issue efficiency vs unroll factor, the CUDA.jl/CUDA ratio it
// implies, and the CPU-side codegen factors for each frontend.
// The per-unroll efficiency numbers and the `tuner_cost` column come
// from tune::modeled_unroll_* (tune/model_objectives.hpp), the one
// home of the modeled unroll cost.
#include <cstring>
#include <iostream>

#include "bench_json.hpp"
#include "common/table.hpp"
#include "perfmodel/codegen.hpp"
#include "perfmodel/predict.hpp"
#include "tune/model_objectives.hpp"

int main(int argc, char** argv) {
  using namespace portabench;
  using perfmodel::CodegenProfile;

  std::string out_path = "BENCH_ablation_unroll.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: ablation_unroll [--out PATH]\n";
      return 2;
    }
  }

  std::cout << "=== Ablation: inner-loop codegen (unroll / vectorization / checks) ===\n\n";

  BenchArtifact artifact("ablation_unroll");
  JsonWriter& w = artifact.writer();

  std::cout << "GPU dependent-FMA pipeline vs unroll factor:\n";
  Table gpu({"unroll", "modeled issue efficiency", "vs unroll-4"});
  const double u4 = tune::modeled_unroll_efficiency(4);
  w.key("gpu_unroll");
  w.begin_array();
  for (int u : {1, 2, 4, 8}) {
    const double eff = tune::modeled_unroll_efficiency(u);
    gpu.add_row({std::to_string(u), Table::num(eff, 3), Table::num(eff / u4, 3)});
    w.begin_object();
    w.key("unroll");
    w.value(static_cast<long>(u));
    w.key("efficiency");
    w.value(eff);
    w.key("vs_unroll4");
    w.value(eff / u4);
    w.key("tuner_cost");
    w.value(tune::modeled_unroll_cost(u));
    w.end_object();
  }
  w.end_array();
  std::cout << gpu.to_markdown();
  std::cout << "\nCUDA.jl (unroll 2) vs native CUDA (unroll 4) modeled ratio: "
            << Table::num(perfmodel::julia_a100_unroll_ratio(), 3)
            << "  — paper Table III e_{A100} for Julia FP64: 0.867\n\n";

  std::cout << "CPU inner-loop codegen factors (EPYC 7A53):\n";
  const auto epyc = perfmodel::CpuSpec::epyc_7a53();
  Table cpu({"frontend", "unroll", "vector bits", "bounds checks", "efficiency"});
  struct Row {
    const char* label;
    CodegenProfile profile;
  };
  const Row rows[] = {
      {"C/OpenMP (-O3 -march=native)", CodegenProfile::vendor_cpu(epyc)},
      {"Julia @threads + @inbounds", CodegenProfile::julia_cpu(epyc)},
      {"Numba @njit(parallel, fastmath)", CodegenProfile::numba_cpu(epyc)},
  };
  for (const auto& row : rows) {
    cpu.add_row({row.label, std::to_string(row.profile.unroll),
                 std::to_string(row.profile.vector_bits),
                 row.profile.bounds_checked ? "yes" : "no",
                 Table::num(perfmodel::cpu_inner_loop_efficiency(row.profile, epyc), 3)});
  }
  std::cout << cpu.to_markdown();
  std::cout << "\nTakeaway: the Numba CPU gap decomposes into halved vector width plus\n"
               "checked indexing; Julia matches vendor codegen on this loop — the\n"
               "mechanistic story behind the calibrated Table III efficiencies.\n";

  w.key("julia_a100_unroll_ratio");
  w.value(perfmodel::julia_a100_unroll_ratio());
  w.key("cpu_factors");
  w.begin_array();
  for (const auto& row : rows) {
    w.begin_object();
    w.key("frontend");
    w.value(row.label);
    w.key("unroll");
    w.value(static_cast<long>(row.profile.unroll));
    w.key("vector_bits");
    w.value(static_cast<long>(row.profile.vector_bits));
    w.key("bounds_checked");
    w.value(row.profile.bounds_checked);
    w.key("efficiency");
    w.value(perfmodel::cpu_inner_loop_efficiency(row.profile, epyc));
    w.end_object();
  }
  w.end_array();
  return artifact.write(out_path);
}
