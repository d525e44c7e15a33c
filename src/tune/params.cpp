#include "params.hpp"

#include <algorithm>

#include "gemm/kernels_tiled.hpp"
#include "gpusim/tunables.hpp"
#include "primitives/tunables.hpp"
#include "simrt/simd.hpp"
#include "simrt/tunables.hpp"

namespace portabench::tune {

Config default_config(const SpaceDesc& space) {
  Config c;
  for (const ParamSpec& p : space.params) c[p.name] = p.def;
  return c;
}

std::size_t combinations(const SpaceDesc& space) {
  std::size_t total = 1;
  for (const ParamSpec& p : space.params) {
    if (!p.frozen) total *= std::max<std::size_t>(1, p.choices.size());
  }
  return total;
}

bool config_valid(const SpaceDesc& space, const Config& config) {
  for (const ParamSpec& p : space.params) {
    const auto it = config.find(p.name);
    if (it == config.end()) return false;
    if (std::find(p.choices.begin(), p.choices.end(), it->second) == p.choices.end()) {
      return false;
    }
    if (p.frozen && it->second != p.def) return false;
  }
  return config.size() == space.params.size();
}

long config_value(const SpaceDesc& space, const Config& config, std::string_view name) {
  const auto it = config.find(std::string(name));
  if (it != config.end()) return it->second;
  for (const ParamSpec& p : space.params) {
    if (p.name == name) return p.def;
  }
  return 0;
}

namespace {

std::vector<SpaceDesc> build_registry() {
  std::vector<SpaceDesc> spaces;

  {
    SpaceDesc s;
    s.name = "gemm-tile";
    s.what = "tiled GEMM schedule: MC row-block grain, frozen KC, SIMD tier";
    s.params.push_back({"mc",
                        {16, 32, 64, 128, 256},
                        static_cast<long>(gemm::tiled::kMC),
                        false,
                        "rows per parallel unit; pure work partitioning"});
    s.params.push_back({"kc",
                        {static_cast<long>(gemm::tiled::kKC)},
                        static_cast<long>(gemm::tiled::kKC),
                        true,
                        "ORDER-AFFECTING: KC grouping changes fp accumulation order"});
    // Tier candidates: -1 (host dispatch tier) plus every tier this host
    // can run; all are contract-pinned bit-identical, so tier is a pure
    // speed knob.
    ParamSpec tier{"tier", {-1}, -1, false,
                   "micro-kernel SIMD tier; -1 = host dispatch tier"};
    const int top = static_cast<int>(simrt::simd_dispatch_tier());
    for (int t = 0; t <= top; ++t) tier.choices.push_back(t);
    s.params.push_back(std::move(tier));
    spaces.push_back(std::move(s));
  }

  {
    SpaceDesc s;
    s.name = "dispatch";
    s.what = "simrt fork-elision grain and dynamic-chunk heuristic";
    s.params.push_back({"fork_cutoff",
                        {256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 262144},
                        static_cast<long>(simrt::kDefaultForkCutoff),
                        false,
                        "work items below which a region runs inline"});
    s.params.push_back({"chunks_per_thread",
                        {2, 4, 8, 16, 32},
                        static_cast<long>(simrt::kDefaultChunksPerThread),
                        false,
                        "target dynamic chunks per thread"});
    s.params.push_back({"min_grain",
                        {1, 2, 4, 8, 16, 32},
                        static_cast<long>(simrt::kDefaultMinGrain),
                        false,
                        "minimum iterations per dynamic chunk"});
    spaces.push_back(std::move(s));
  }

  {
    SpaceDesc s;
    s.name = "launch";
    s.what = "gpusim block-engine fork cutoff and block dealing";
    s.params.push_back({"fork_cutoff",
                        {256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 262144},
                        static_cast<long>(simrt::kDefaultForkCutoff),
                        false,
                        "simulated threads below which a launch walks serially"});
    s.params.push_back({"chunks_per_worker",
                        {2, 4, 8, 16, 32},
                        static_cast<long>(gpusim::kDefaultLaunchChunksPerWorker),
                        false,
                        "target block chunks per pool worker"});
    spaces.push_back(std::move(s));
  }

  {
    SpaceDesc s;
    s.name = "serve-batch";
    s.what = "ServeEngine jobs per flushed batch";
    s.params.push_back({"batch_jobs",
                        {8, 16, 32, 64, 128},
                        32,
                        false,
                        "jobs per shard flush; larger batches amortize launches, "
                        "smaller ones bound latency"});
    spaces.push_back(std::move(s));
  }

  {
    // Device-wide radix sort schedule.  Every knob is schedule-only: the
    // keys are integers after the radix bijection, so any digit width,
    // tile size, or lane count yields the identical (stable) sorted
    // output — tuned_vs_default pins that bitwise.
    SpaceDesc s;
    s.name = "primitives-radix";
    s.what = "device radix sort: digit width, block tile, privatized lanes";
    s.params.push_back({"radix_bits",
                        {2, 4, 8},
                        static_cast<long>(primitives::kDefaultRadixBits),
                        false,
                        "LSD digit width; wider digits mean fewer passes but "
                        "bigger privatized histograms"});
    s.params.push_back({"chunk",
                        {2048, 4096, 8192, 16384, 32768},
                        static_cast<long>(primitives::kDefaultSortChunk),
                        false,
                        "elements per count/scatter block tile"});
    s.params.push_back({"lanes",
                        {8, 16, 32, 64},
                        static_cast<long>(primitives::kDefaultSortLanes),
                        false,
                        "lanes per block (clamped by shared-memory limit)"});
    spaces.push_back(std::move(s));
  }

  {
    // Device-wide scan/reduce schedule.  The association unit (segment)
    // is FROZEN — fp results are a pure function of (T, op, n, segment),
    // exactly the gemm kc contract — while chunk/lanes/items_per_lane
    // only remap segments onto blocks and lanes.
    SpaceDesc s;
    s.name = "primitives-scan";
    s.what = "device scan/reduce: block tile, lanes, reduce grain";
    s.params.push_back({"chunk",
                        {1024, 2048, 4096, 8192, 16384},
                        static_cast<long>(primitives::kDefaultScanChunk),
                        false,
                        "elements per scan block tile (whole segments)"});
    s.params.push_back({"lanes",
                        {32, 64, 128, 256},
                        static_cast<long>(primitives::kDefaultLanes),
                        false,
                        "lanes per block for the partials passes"});
    s.params.push_back({"items_per_lane",
                        {1, 2, 4, 8},
                        static_cast<long>(primitives::kDefaultItemsPerLane),
                        false,
                        "segments each lane folds in the reduce pass"});
    s.params.push_back({"segment",
                        {static_cast<long>(primitives::kSegment)},
                        static_cast<long>(primitives::kSegment),
                        true,
                        "ORDER-AFFECTING: fp slice-fold unit; frozen like "
                        "gemm kc"});
    spaces.push_back(std::move(s));
  }

  {
    SpaceDesc s;
    s.name = "gpu-unroll";
    s.what = "modeled GPU inner-loop unroll factor (paper Fig. 5 ablation)";
    s.params.push_back({"unroll",
                        {1, 2, 4, 8},
                        4,
                        false,
                        "the paper's A100-vs-MI250X knob; objective is the "
                        "perfmodel sustained-issue model"});
    spaces.push_back(std::move(s));
  }

  {
    SpaceDesc s;
    s.name = "gpu-block";
    s.what = "modeled GPU block edge for the tiled device GEMM";
    s.params.push_back({"block_edge",
                        {4, 8, 16, 32},
                        32,
                        false,
                        "square block edge; objective couples occupancy, DRAM "
                        "traffic and coalescing expansion"});
    spaces.push_back(std::move(s));
  }

  return spaces;
}

}  // namespace

const std::vector<SpaceDesc>& registry() {
  static const std::vector<SpaceDesc> spaces = build_registry();
  return spaces;
}

const SpaceDesc* find_space(std::string_view name) {
  for (const SpaceDesc& s : registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace portabench::tune
