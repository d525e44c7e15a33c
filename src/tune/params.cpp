#include "params.hpp"

#include <algorithm>

#include "gemm/kernels_tiled.hpp"
#include "simrt/simd.hpp"

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
