// The determinism contract under a consumer's own compiler flags.
//
// Much of the contract is header-only: run_serial, the tiled GEMM and the
// naive kernels compile in whichever translation unit includes them.
// This binary is built with -march=native where the compiler accepts it
// (hardware FMA on most x86-64 hosts; aarch64 has it in the baseline)
// and does not link portabench_warnings, so -ffp-contract=off reaches it
// only through portabench::common.  Without that flag the compiler may
// fuse a*b + c in this file's copy of run_serial, and the checksums the
// library serves stop matching it.  The sharded drivers and their oracles
// are header-only too, so both compile here under the same flags.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "multigpu/gemm.hpp"
#include "multigpu/stencil.hpp"
#include "serve/engine.hpp"
#include "serve/serial.hpp"
#include "serve/trace.hpp"

namespace portabench::serve {
namespace {

TEST(ConsumerFlags, ServedChecksumsEqualRunSerial) {
  TraceConfig tcfg;
  tcfg.seed = 1;
  tcfg.max_n = 96;
  TraceGen gen(tcfg);
  std::vector<JobDesc> trace(2000);
  for (JobDesc& d : trace) d = gen.next();

  std::mutex mutex;
  std::map<std::uint64_t, double> served;
  ServeConfig cfg;
  cfg.on_complete = [&](const JobResult& r) {
    std::lock_guard<std::mutex> lock(mutex);
    served[r.id] = r.checksum;
  };
  ServeEngine engine(cfg);
  for (const JobDesc& d : trace) {
    AdmitError e = engine.try_submit(d);
    while (e == AdmitError::kQueueFull) e = engine.try_submit(d);
    ASSERT_EQ(e, AdmitError::kNone) << "job " << d.id << " rejected: " << name(e);
  }
  engine.drain();

  std::size_t mismatches = 0;
  for (const JobDesc& d : trace) {
    const auto it = served.find(d.id);
    ASSERT_NE(it, served.end()) << "job " << d.id << " never completed";
    if (it->second != run_serial(d).checksum) {
      if (mismatches == 0) {
        ADD_FAILURE() << "first mismatch: " << name(d.kind) << "/" << name(d.frontend)
                      << " n=" << d.n << " seed=" << d.seed;
      }
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << trace.size() << " served checksums";
}

}  // namespace
}  // namespace portabench::serve

namespace portabench::multigpu {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
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

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ConsumerFlags, ShardedGemmEqualsItsOracle) {
  constexpr std::size_t m = 150, k = 70, n = 90;  // no dimension a tile multiple
  const std::vector<double> a = random_vector(m * k, 61);
  const std::vector<double> b = random_vector(k * n, 62);
  std::vector<double> c(m * n, -1.0);
  std::vector<double> expect(m * n);
  gemm_sharded_oracle<double>({a.data(), m, k}, {b.data(), k, n}, {expect.data(), m, n});
  gpusim::DeviceTopology topo(two_gcds());
  gemm_sharded<double>(topo, {a.data(), m, k}, {b.data(), k, n}, {c.data(), m, n});
  EXPECT_TRUE(same_bits(c, expect));
}

TEST(ConsumerFlags, ShardedStencilEqualsItsOracle) {
  constexpr std::size_t rows = 67, cols = 45;  // slabs of 34 and 33 rows
  const std::vector<double> init = random_vector(rows * cols, 63);
  std::vector<double> grid = init;
  StencilShardOptions opt;
  opt.iterations = 100;
  gpusim::DeviceTopology topo(two_gcds());
  stencil_sharded(topo, std::span<double>(grid), rows, cols, opt);
  EXPECT_TRUE(same_bits(grid, stencil_iterated_oracle(init, rows, cols, opt.iterations)));
}

}  // namespace
}  // namespace portabench::multigpu
