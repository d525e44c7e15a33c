// Golden digests: committed FNV-1a-64 hashes over the raw bits of the
// results the determinism contract promises never change.
//
// Each case hashes one fixed workload: served checksums (run_serial over
// a fixed trace), one sharded GEMM C, one sharded stencil grid, and the
// device scan and radix sort outputs.  The oracle tests prove that a
// result equals its serial replay; these prove that the replay itself
// kept its bits across commits, build types and SIMD tiers.  CTest runs
// the binary once per PORTABENCH_SIMD_TIER value (a tier the host lacks
// falls back to its best one), so every tier must reproduce every digest.
//
// A change that alters a digest changes results: it must say why in
// CHANGES.md and update the constant here in the same commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/topology.hpp"
#include "multigpu/gemm.hpp"
#include "multigpu/stencil.hpp"
#include "primitives/scan.hpp"
#include "primitives/sort.hpp"
#include "serve/serial.hpp"
#include "serve/trace.hpp"
#include "simrt/simd.hpp"

namespace portabench {
namespace {

class Fnv1a64 {
 public:
  template <class T>
  void add(std::span<const T> values) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
    for (std::size_t i = 0; i < values.size_bytes(); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

template <class T>
std::uint64_t digest(const std::vector<T>& values) {
  Fnv1a64 h;
  h.add(std::span<const T>(values));
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  fill_uniform(std::span<double>(v), rng);
  return v;
}

gpusim::TopologyConfig two_gcds() {
  gpusim::TopologyConfig cfg = gpusim::TopologyConfig::crusher_node(2);
  cfg.workers_per_device = 2;
  return cfg;
}

#define EXPECT_DIGEST(got, want)                                                       \
  EXPECT_EQ(got, want) << "digest " << hex(got) << " (committed " << hex(want)        \
                       << ") at SIMD tier "                                            \
                       << simrt::simd_tier_name(simrt::simd_dispatch_tier())

TEST(GoldenDigest, ServedChecksums) {
  serve::TraceConfig tcfg;
  tcfg.seed = 1;
  tcfg.min_n = 8;
  tcfg.max_n = 96;
  serve::TraceGen gen(tcfg);
  std::vector<double> checksums(1000);
  for (double& c : checksums) c = serve::run_serial(gen.next()).checksum;
  EXPECT_DIGEST(digest(checksums), 0x62493902d78de94bull);
}

TEST(GoldenDigest, ShardedGemm) {
  constexpr std::size_t n = 192;
  const std::vector<double> a = random_doubles(n * n, 101);
  const std::vector<double> b = random_doubles(n * n, 102);
  std::vector<double> c(n * n);
  gpusim::DeviceTopology topo(two_gcds());
  multigpu::gemm_sharded<double>(topo, {a.data(), n, n}, {b.data(), n, n},
                                 {c.data(), n, n});
  EXPECT_DIGEST(digest(c), 0xe4d3ac0a727c2b5full);
}

TEST(GoldenDigest, ShardedStencil) {
  constexpr std::size_t n = 64;
  std::vector<double> grid = random_doubles(n * n, 103);
  gpusim::DeviceTopology topo(two_gcds());
  multigpu::StencilShardOptions opt;
  opt.iterations = 100;
  multigpu::stencil_sharded(topo, std::span<double>(grid), n, n, opt);
  EXPECT_DIGEST(digest(grid), 0x4723590ee78cf05bull);
}

TEST(GoldenDigest, DeviceScanAndRadixSort) {
  constexpr std::size_t n = 10007;
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());

  const std::vector<double> in = random_doubles(n, 104);
  std::vector<double> scanned(n);
  primitives::device_exclusive_scan(ctx, std::span<const double>(in),
                                    std::span<double>(scanned), simrt::SumOp<double>{});
  EXPECT_DIGEST(digest(scanned), 0xf50ee235cc836d9bull);

  // 16-bit keys repeat, so the digest also pins the stable order of the
  // values that ride along.
  Xoshiro256 rng(105);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng() & 0xffffull;
  std::vector<std::uint32_t> values(n);
  std::iota(values.begin(), values.end(), std::uint32_t{0});
  primitives::device_radix_sort_pairs(ctx, std::span<std::uint64_t>(keys),
                                      std::span<std::uint32_t>(values));
  Fnv1a64 h;
  h.add(std::span<const std::uint64_t>(keys));
  h.add(std::span<const std::uint32_t>(values));
  EXPECT_DIGEST(h.value(), 0xd7c76edcdb965bb5ull);
}

}  // namespace
}  // namespace portabench
