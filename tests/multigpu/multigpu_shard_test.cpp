// Multi-device sharding: bitwise replay contract and edge cases.
//
// The load-bearing assertions are EXPECT_EQ on doubles: every sharded
// result must be *bit-identical* to the single-device serial oracle for
// every device count and overlap mode.  Plus the
// edge cases ISSUE 9 calls out: the one-device degenerate topology runs
// through LaunchEngine::shared() exactly as before, Events order work
// across devices, peer copies reject OOB ranges and dead buffers
// eagerly, and per-device counters tally / reset independently.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/copy.hpp"
#include "gpusim/pipeline.hpp"
#include "multigpu/gemm.hpp"
#include "multigpu/shard.hpp"
#include "multigpu/stencil.hpp"
#include "perfmodel/multigpu.hpp"
#include "portacheck/hooks.hpp"

// Counting global allocator: the stencil's per-sweep ops must stay out
// of the heap, and this binary counts every operator new on every thread.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Out of line, so GCC does not inline free() into new-expressions and
// report a malloc/new mismatch.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace portabench::multigpu {
namespace {

using gpusim::DeviceTopology;
using gpusim::TopologyConfig;

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  fill_uniform(std::span<double>(v), rng);
  return v;
}

/// Small-worker Crusher-shaped topology: private engines, pinned
/// placement, but few workers so the suite stays fast under ctest -j.
TopologyConfig small_crusher(std::size_t devices) {
  TopologyConfig cfg = TopologyConfig::crusher_node(devices);
  cfg.workers_per_device = 2;
  return cfg;
}

// --- ShardPlan ---------------------------------------------------------------

TEST(ShardPlan, PanelsAreGlobalDisjointAndContiguous) {
  const ShardPlan plan = ShardPlan::rows(1000, 96, 3);
  ASSERT_EQ(plan.devices(), 3u);
  // ceil(1000/96) = 11 panels; global decomposition independent of devices.
  ASSERT_EQ(plan.panels.size(), 11u);
  std::size_t next = 0;
  for (const Panel& p : plan.panels) {
    EXPECT_EQ(p.begin, next);
    next = p.end;
  }
  EXPECT_EQ(next, 1000u);
  // Devices own contiguous runs covering every panel exactly once.
  EXPECT_EQ(plan.panels_of(0) + plan.panels_of(1) + plan.panels_of(2), 11u);
  EXPECT_EQ(plan.global_panel(1, 0), plan.first_panel[1]);
  // Leading devices take the remainder: 4 + 4 + 3.
  EXPECT_EQ(plan.panels_of(0), 4u);
  EXPECT_EQ(plan.panels_of(2), 3u);
}

TEST(ShardPlan, DeviceCountDoesNotChangePanelBoundaries) {
  const ShardPlan one = ShardPlan::rows(517, 64, 1);
  const ShardPlan four = ShardPlan::rows(517, 64, 4);
  ASSERT_EQ(one.panels.size(), four.panels.size());
  for (std::size_t p = 0; p < one.panels.size(); ++p) {
    EXPECT_EQ(one.panels[p].begin, four.panels[p].begin);
    EXPECT_EQ(one.panels[p].end, four.panels[p].end);
  }
}

TEST(ShardPlan, MoreDevicesThanPanelsLeavesTrailingDevicesEmpty) {
  const ShardPlan plan = ShardPlan::rows(10, 8, 4);  // 2 panels, 4 devices
  EXPECT_EQ(plan.panels_of(0), 1u);
  EXPECT_EQ(plan.panels_of(1), 1u);
  EXPECT_EQ(plan.panels_of(2), 0u);
  EXPECT_EQ(plan.panels_of(3), 0u);
}

// --- GEMM --------------------------------------------------------------------

class GemmSharded : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = random_vector(m_ * k_, 11);
    b_ = random_vector(k_ * n_, 12);
    oracle_.resize(m_ * n_);
    gemm_sharded_oracle<double>({a_.data(), m_, k_}, {b_.data(), k_, n_},
                                {oracle_.data(), m_, n_});
  }

  void expect_bitwise(std::span<const double> c) {
    for (std::size_t i = 0; i < oracle_.size(); ++i) {
      ASSERT_EQ(c[i], oracle_[i]) << "element " << i;
    }
  }

  // Ragged on purpose: m not divisible by panel, panels not by devices.
  const std::size_t m_ = 147, k_ = 53, n_ = 31;
  std::vector<double> a_, b_, oracle_;
};

TEST_F(GemmSharded, BitwiseIdenticalAcrossDeviceCounts) {
  for (std::size_t devices : {1u, 2u, 3u, 4u}) {
    DeviceTopology topo(small_crusher(devices));
    std::vector<double> c(m_ * n_, -1.0);
    GemmShardOptions opt;
    opt.panel_rows = 32;
    const auto stats = gemm_sharded<double>(topo, {a_.data(), m_, k_},
                                            {b_.data(), k_, n_}, {c.data(), m_, n_}, opt);
    EXPECT_EQ(stats.panels, (m_ + 31) / 32);
    expect_bitwise(c);
  }
}

TEST_F(GemmSharded, OverlapOffAndRemoteStagingStayBitwise) {
  DeviceTopology topo(small_crusher(2));
  for (const bool overlap : {false, true}) {
    std::vector<double> c(m_ * n_, -1.0);
    GemmShardOptions opt;
    opt.panel_rows = 48;
    opt.overlap = overlap;
    gemm_sharded<double>(topo, {a_.data(), m_, k_}, {b_.data(), k_, n_},
                         {c.data(), m_, n_}, opt);
    expect_bitwise(c);
  }
}

TEST_F(GemmSharded, DegenerateTopologyUsesSharedEngine) {
  // Default one-device config: no private engine, no pinning — the
  // exact single-device path that existed before this layer.
  TopologyConfig cfg;
  cfg.pin_workers = false;
  DeviceTopology topo(cfg);
  EXPECT_EQ(&topo.engine(0), &gpusim::LaunchEngine::shared());
  std::vector<double> c(m_ * n_, -1.0);
  gemm_sharded<double>(topo, {a_.data(), m_, k_}, {b_.data(), k_, n_},
                       {c.data(), m_, n_});
  expect_bitwise(c);
}

// --- Stencil -----------------------------------------------------------------

TEST(StencilSharded, BitwiseIdenticalAcrossDeviceCountsAndIterations) {
  // The epoch length k is the smallest slab height: heights 1-16, with
  // slabs differing by a row when rows % devices != 0, and iteration
  // counts k often does not divide, some shorter than one epoch.
  const std::size_t cols = 41;
  for (std::size_t devices : {1u, 2u, 3u, 4u}) {
    DeviceTopology topo(small_crusher(devices));
    for (std::size_t height : {1u, 2u, 3u, 7u, 16u}) {
      for (std::size_t extra : {0u, 1u, 2u}) {
        const std::size_t rows = devices * height + extra;
        if (extra >= devices || rows < 3) continue;
        const std::vector<double> init = random_vector(rows * cols, 31 + rows);
        for (std::size_t iters : {1u, 2u, 3u, 6u, 7u, 15u, 16u, 17u, 33u, 50u}) {
          const std::vector<double> expect = stencil_iterated_oracle(init, rows, cols, iters);
          std::vector<double> grid = init;
          StencilShardOptions opt;
          opt.iterations = iters;
          const auto stats = stencil_sharded(topo, std::span<double>(grid), rows, cols, opt);
          EXPECT_EQ(stats.panels, devices * iters);
          for (std::size_t i = 0; i < grid.size(); ++i) {
            ASSERT_EQ(grid[i], expect[i]) << "cell " << i << " devices " << devices << " rows "
                                          << rows << " iters " << iters;
          }
        }
      }
    }
  }
}

TEST(StencilSharded, MoreDevicesThanInteriorRows) {
  // 1-3 interior rows across 4 devices: some devices own no computed
  // rows and must neither deadlock nor corrupt the halos.  64 sweeps
  // give a halo copy many chances to race the sweep that overwrites
  // its source row.
  const std::size_t cols = 9;
  DeviceTopology topo(small_crusher(4));
  for (const std::size_t rows : {3u, 4u, 5u}) {
    for (const std::size_t iterations : {3u, 64u}) {
      const std::vector<double> init = random_vector(rows * cols, 41);
      const std::vector<double> expect =
          stencil_iterated_oracle(init, rows, cols, iterations);
      std::vector<double> grid = init;
      StencilShardOptions opt;
      opt.iterations = iterations;
      stencil_sharded(topo, std::span<double>(grid), rows, cols, opt);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_EQ(grid[i], expect[i]) << "rows " << rows << " iterations " << iterations;
      }
    }
  }
}

TEST(StencilSharded, SweepOpsStayInline) {
  // Each sweep enqueues one compute op per device; it must fit
  // ErasedOp's inline storage, or every sweep pays a heap allocation per
  // device (4,000 for this call).  What remains is per-call setup.
  if (portacheck::active()) {
    GTEST_SKIP() << "sanitized run: every batch allocates its permuted order";
  }
  TopologyConfig cfg = TopologyConfig::crusher_node(2);
  cfg.workers_per_device = 1;
  DeviceTopology topo(cfg);
  constexpr std::size_t kN = 64;
  const std::vector<double> init = random_vector(kN * kN, 51);
  StencilShardOptions opt;
  opt.iterations = 2000;
  std::vector<double> grid = init;
  stencil_sharded(topo, std::span<double>(grid), kN, kN, opt);  // warm-up
  grid = init;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  stencil_sharded(topo, std::span<double>(grid), kN, kN, opt);
  const std::size_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LT(allocations, 400u);
  EXPECT_EQ(grid, stencil_iterated_oracle(init, kN, kN, opt.iterations));
}

TEST(StencilSharded, OneLaunchAndOneExchangePerEpoch) {
  // Two 32-row slabs give k = 32: ceil(2000 / 32) = 63 epochs, each one
  // launch per device, and 62 exchanges of 32 rows in each direction.
  DeviceTopology topo(small_crusher(2));
  constexpr std::size_t kN = 64;
  const std::vector<double> init = random_vector(kN * kN, 52);
  std::vector<double> grid = init;
  StencilShardOptions opt;
  opt.iterations = 2000;
  const auto totals = [&] {
    gpusim::DeviceCounters sum;
    for (std::size_t d = 0; d < topo.devices(); ++d) {
      const gpusim::DeviceCounters c = topo.context(d).counters();
      sum.kernel_launches += c.kernel_launches;
      sum.bytes_d2d_in += c.bytes_d2d_in;
    }
    return sum;
  };
  const gpusim::DeviceCounters before = totals();
  stencil_sharded(topo, std::span<double>(grid), kN, kN, opt);
  const gpusim::DeviceCounters after = totals();
  EXPECT_EQ(after.kernel_launches - before.kernel_launches, 2u * 63u);
  EXPECT_EQ(after.bytes_d2d_in - before.bytes_d2d_in, 62u * 2u * 32u * kN * sizeof(double));
  EXPECT_EQ(grid, stencil_iterated_oracle(init, kN, kN, opt.iterations));
}

// --- Cross-device events -----------------------------------------------------

TEST(CrossDeviceEvents, WaitOrdersWorkAcrossDevices) {
  DeviceTopology topo(small_crusher(2));
  gpusim::Stream s0(topo.context(0), gpusim::StreamMode::kAsync);
  gpusim::Stream s1(topo.context(1), gpusim::StreamMode::kAsync);

  std::atomic<int> step{0};
  // Device 0 produces (slowly); device 1 must observe the produced value.
  s0.enqueue(0.0, [&] { step.store(1, std::memory_order_release); });
  gpusim::Event produced;
  s0.record(produced);
  s1.wait(produced);
  int observed = -1;
  s1.enqueue(0.0, [&] { observed = step.load(std::memory_order_acquire); });
  s1.synchronize();
  EXPECT_EQ(observed, 1);

  // Modeled clocks joined too: s1's clock jumped to at least s0's.
  s0.enqueue(2.0);
  gpusim::Event late;
  s0.record(late);
  s1.wait(late);
  EXPECT_GE(s1.now(), s0.now());
  s0.synchronize();
  s1.synchronize();
}

// --- Peer copy negative paths ------------------------------------------------

TEST(PeerCopyNegative, RejectsOutOfBoundsAndDeadBuffersEagerly) {
  DeviceTopology topo(small_crusher(2));
  gpusim::Stream s(topo.context(0), gpusim::StreamMode::kAsync);
  gpusim::DeviceBuffer<double> a(topo.context(0), 64);
  gpusim::DeviceBuffer<double> b(topo.context(1), 32);

  // OOB destination range, OOB source range, and offset past the end.
  EXPECT_THROW(gpusim::peer_copy_async(s, b, 0, a, 0, 33), precondition_error);
  EXPECT_THROW(gpusim::peer_copy_async(s, b, 0, a, 40, 32), precondition_error);
  EXPECT_THROW(gpusim::peer_copy_async(s, b, 33, a, 0, 0), precondition_error);

  // Overlapping self-copy rejected; disjoint self-copy fine.
  EXPECT_THROW(gpusim::peer_copy_async(s, a, 8, a, 0, 16), precondition_error);
  EXPECT_NO_THROW(gpusim::peer_copy_async(s, a, 32, a, 0, 16));

  // Freed (moved-from) buffers on either endpoint throw at the call
  // site, not at some later synchronize().
  gpusim::DeviceBuffer<double> stolen = std::move(a);
  EXPECT_THROW(gpusim::peer_copy_async(s, b, 0, a, 0, 8), precondition_error);
  EXPECT_THROW(gpusim::peer_copy_async(s, a, 0, b, 0, 8), precondition_error);
  std::vector<double> host(8);
  EXPECT_THROW(
      gpusim::copy_to_device_async(s, a, 0, std::span<const double>(host.data(), 8)),
      precondition_error);
  EXPECT_THROW(gpusim::copy_to_host_async(s, std::span<double>(host), a, 0),
               precondition_error);
  s.synchronize();
}

TEST(PeerCopyNegative, StreamMustBelongToH2DEndpointContext) {
  DeviceTopology topo(small_crusher(2));
  gpusim::Stream wrong(topo.context(1), gpusim::StreamMode::kAsync);
  gpusim::DeviceBuffer<double> a(topo.context(0), 8);
  std::vector<double> host(8);
  EXPECT_THROW(
      gpusim::copy_to_device_async(wrong, a, 0, std::span<const double>(host.data(), 8)),
      precondition_error);
  wrong.synchronize();
}

// --- Per-device counters -----------------------------------------------------

TEST(DeviceCounters, PerDeviceTransferTalliesAndReset) {
  DeviceTopology topo(small_crusher(2));
  gpusim::Stream s0(topo.context(0), gpusim::StreamMode::kAsync);
  gpusim::Stream s1(topo.context(1), gpusim::StreamMode::kAsync);
  gpusim::DeviceBuffer<double> a(topo.context(0), 16);
  gpusim::DeviceBuffer<double> b(topo.context(1), 16);
  std::vector<double> host(16, 1.0);

  gpusim::copy_to_device_async(s0, a, 0, std::span<const double>(host.data(), 16));
  gpusim::peer_copy_async(s0, b, 0, a, 0, 16);
  // s1's D2H reads b and overwrites host: order it after s0's H2D (which
  // reads host) and peer copy (which writes b).
  gpusim::Event copied;
  s0.record(copied);
  s1.wait(copied);
  gpusim::copy_to_host_async(s1, std::span<double>(host), b, 0);
  s0.synchronize();
  s1.synchronize();

  const auto c0 = topo.context(0).counters();
  const auto c1 = topo.context(1).counters();
  EXPECT_EQ(c0.bytes_h2d, 16 * sizeof(double));
  EXPECT_EQ(c0.bytes_d2d_out, 16 * sizeof(double));
  EXPECT_EQ(c0.bytes_d2d_in, 0u);
  EXPECT_EQ(c0.bytes_d2h, 0u);
  EXPECT_EQ(c1.bytes_d2d_in, 16 * sizeof(double));
  EXPECT_EQ(c1.bytes_d2d_out, 0u);
  EXPECT_EQ(c1.bytes_d2h, 16 * sizeof(double));
  EXPECT_EQ(c1.bytes_h2d, 0u);

  // Reset is per device: device 1 keeps its tallies until its own reset.
  topo.context(0).reset_counters();
  EXPECT_EQ(topo.context(0).counters().bytes_h2d, 0u);
  EXPECT_EQ(topo.context(0).counters().bytes_d2d_out, 0u);
  EXPECT_EQ(topo.context(1).counters().bytes_d2d_in, 16 * sizeof(double));
  topo.context(1).reset_counters();
  EXPECT_EQ(topo.context(1).counters().bytes_d2d_in, 0u);
  EXPECT_EQ(topo.context(1).counters().bytes_d2h, 0u);
}

// --- Topology shape ----------------------------------------------------------

TEST(Topology, CrusherShapeDomainsPackagesAndLinks) {
  DeviceTopology topo(TopologyConfig::crusher_node(8));
  const TopologyConfig& cfg = topo.config();
  EXPECT_EQ(topo.devices(), 8u);
  // GCD g is fed from domain g/2 (Table II cabling).
  for (std::size_t g = 0; g < 8; ++g) EXPECT_EQ(topo.numa_domain_of(g), g / 2);
  // Same staging domain: local link; other domain: remote link.
  EXPECT_GT(cfg.h2d_link(0, 0).bw_gbs, cfg.h2d_link(0, 3).bw_gbs);
  // MCM pair (0,1) rides the wide fabric; (0,2) crosses packages.
  EXPECT_GT(cfg.d2d_link(0, 1).bw_gbs, cfg.d2d_link(0, 2).bw_gbs);
  EXPECT_LT(cfg.d2d_link(0, 1).seconds(1 << 20), cfg.d2d_link(0, 2).seconds(1 << 20));
}

TEST(Topology, PinnedPlacementLandsInDeviceDomain) {
  TopologyConfig cfg = TopologyConfig::crusher_node(4);
  cfg.workers_per_device = 4;
  DeviceTopology topo(cfg);
  for (std::size_t d = 0; d < 4; ++d) {
    const simrt::Placement& p = topo.engine(d).placement();
    ASSERT_TRUE(p.pinned());
    const std::size_t cpd = cfg.host.cores_per_domain();
    for (const std::size_t core : p.core_of_thread) {
      EXPECT_EQ(core / cpd, topo.numa_domain_of(d)) << "device " << d;
    }
  }
}

// --- Pipeline modeled clock --------------------------------------------------

TEST(Pipeline, OverlapShortensModeledMakespan) {
  // Pure modeled-clock test (no payload): 8 panels, transfer 1s + 1s,
  // compute 2s.  Serial: 8 * 4s = 32s.  Overlapped steady state is
  // compute-bound: ~2s/panel.
  TopologyConfig one_device;
  one_device.pin_workers = false;
  DeviceTopology topo(one_device);
  const auto stage = [](double cost) {
    return [cost](gpusim::Stream& s, std::size_t, std::size_t, std::size_t) {
      s.enqueue(cost);
    };
  };
  const auto ref =
      gpusim::run_sharded_pipeline(topo, {8}, false, stage(1.0), stage(2.0), stage(1.0));
  const auto ovl =
      gpusim::run_sharded_pipeline(topo, {8}, true, stage(1.0), stage(2.0), stage(1.0));
  EXPECT_DOUBLE_EQ(ref.modeled_s, 32.0);
  EXPECT_LT(ovl.modeled_s, ref.modeled_s);
  EXPECT_GE(ovl.modeled_s, 16.0);  // cannot beat the compute lower bound
}

// --- Analytical model vs driver ----------------------------------------------

TEST(ShardedModel, StrictOrderMatchesDriverModeledClock) {
  // The model must deal the driver's ShardPlan panels and charge the same
  // TopologyConfig links.  Strict order, every device staging locally and
  // 4 x 36 GB/s under the 170 GB/s host ceiling: the driver's makespan is
  // exactly the model's broadcast plus panel transfers.  At n = 768 with
  // 128-row panels, four GCDs run 256/256/128/128 rows.
  constexpr std::size_t n = 768;
  const std::vector<double> a = random_vector(n * n, 51);
  const std::vector<double> b = random_vector(n * n, 52);
  std::vector<double> c(n * n);
  const perfmodel::GpuMachineModel model(perfmodel::GpuPerfSpec::mi250x_gcd());
  perfmodel::ShardedGemmParams params;
  params.n = n;
  params.panel_rows = 128;
  params.overlap = false;
  for (const std::size_t g : {1u, 2u, 4u}) {
    const TopologyConfig cfg = small_crusher(g);
    DeviceTopology topo(cfg);
    GemmShardOptions opt;
    opt.panel_rows = params.panel_rows;
    opt.overlap = false;
    const auto stats = gemm_sharded<double>(topo, {a.data(), n, n}, {b.data(), n, n},
                                            {c.data(), n, n}, opt);
    const auto predicted =
        perfmodel::sharded_pipeline_gemm(model, cfg, Precision::kDouble, params, g);
    const double modeled = predicted[g - 1].broadcast_s + predicted[g - 1].transfer_s;
    EXPECT_NEAR(stats.modeled_s, modeled, 1e-12 * modeled) << "devices " << g;
  }
}

}  // namespace
}  // namespace portabench::multigpu
