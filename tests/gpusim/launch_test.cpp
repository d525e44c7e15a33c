// Tests for the SIMT kernel launcher: coverage, guard semantics, host
// parallel equivalence, and cooperative (barrier) kernels.
#include "gpusim/launch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "gpusim/memory.hpp"

namespace portabench::gpusim {
namespace {

class LaunchTest : public ::testing::Test {
 protected:
  DeviceContext ctx_{GpuSpec::a100()};
};

TEST_F(LaunchTest, EveryThreadRunsOnce) {
  const Dim3 grid{3, 2, 2};
  const Dim3 block{4, 3, 1};
  std::vector<std::atomic<int>> hits(grid.volume() * block.volume());
  launch(ctx_, grid, block, [&](const ThreadCtx& tc) {
    const std::size_t block_linear =
        (tc.block_idx.z * tc.grid_dim.y + tc.block_idx.y) * tc.grid_dim.x + tc.block_idx.x;
    hits[block_linear * tc.block_dim.volume() + tc.lane_in_block()].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(LaunchTest, CountersRecordLaunch) {
  launch(ctx_, {4, 4, 1}, {8, 8, 1}, [](const ThreadCtx&) {});
  EXPECT_EQ(ctx_.counters().kernel_launches, 1u);
  EXPECT_EQ(ctx_.counters().blocks_executed, 16u);
  EXPECT_EQ(ctx_.counters().threads_executed, 1024u);
}

TEST_F(LaunchTest, InvalidBlockRejected) {
  EXPECT_THROW(launch(ctx_, {1, 1, 1}, {64, 32, 1}, [](const ThreadCtx&) {}),
               precondition_error);
}

TEST_F(LaunchTest, GuardedKernelCoversExactProblem) {
  // The Fig. 3 idiom: grid overshoots, an if-guard trims to m x n.
  constexpr std::size_t kM = 45;
  constexpr std::size_t kN = 70;
  const Dim3 block{32, 32, 1};
  const Dim3 grid{blocks_for(kN, 32), blocks_for(kM, 32), 1};
  std::vector<int> touched(kM * kN, 0);
  launch(ctx_, grid, block, [&](const ThreadCtx& tc) {
    const std::size_t row = tc.global_y();
    const std::size_t col = tc.global_x();
    if (row < kM && col < kN) touched[row * kN + col] += 1;
  });
  for (std::size_t i = 0; i < touched.size(); ++i) EXPECT_EQ(touched[i], 1) << i;
  // Launched threads exceed the problem (the overshoot the guard hides).
  EXPECT_GT(ctx_.counters().threads_executed, kM * kN);
}

TEST_F(LaunchTest, KernelSeesDeviceBuffers) {
  constexpr std::size_t kCount = 1024;
  std::vector<double> host(kCount);
  std::iota(host.begin(), host.end(), 0.0);
  DeviceBuffer<double> in(ctx_, kCount);
  DeviceBuffer<double> out(ctx_, kCount);
  in.copy_from_host(host);

  const double* src = in.data();
  double* dst = out.data();
  launch(ctx_, {blocks_for(kCount, 256), 1, 1}, {256, 1, 1}, [=](const ThreadCtx& tc) {
    const std::size_t i = tc.global_x();
    // portalint: ls-ptr-capture-ok(device-buffer pointer visibility is exactly what this test exercises)
    if (i < kCount) dst[i] = 2.0 * src[i];
  });

  std::vector<double> result(kCount);
  out.copy_to_host(result);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(result[i], 2.0 * host[i]);
}

// --- Cooperative kernels -------------------------------------------------

TEST_F(LaunchTest, CooperativeBarrierSemantics) {
  // Phase 1 writes shared memory; phase 2 reads what *other* lanes wrote.
  // Without barrier semantics between for_lanes calls this test fails.
  constexpr std::size_t kBlockSize = 64;
  const Dim3 grid{4, 1, 1};
  const Dim3 block{kBlockSize, 1, 1};
  std::vector<int> result(grid.volume() * kBlockSize, -1);
  int* out = result.data();

  launch_blocks(ctx_, grid, block, kBlockSize * sizeof(int), [&](BlockCtx& bc) {
    auto shared = bc.shared<int>(kBlockSize);
    bc.for_lanes([&](const ThreadCtx& tc) {
      shared[tc.thread_idx.x] = static_cast<int>(tc.thread_idx.x);
    });
    bc.for_lanes([&](const ThreadCtx& tc) {
      // Read the value written by the "opposite" lane.
      const std::size_t opposite = kBlockSize - 1 - tc.thread_idx.x;
      out[bc.block_idx().x * kBlockSize + tc.thread_idx.x] =
          shared[opposite];
    });
  });

  for (std::size_t b = 0; b < grid.volume(); ++b) {
    for (std::size_t t = 0; t < kBlockSize; ++t) {
      EXPECT_EQ(result[b * kBlockSize + t], static_cast<int>(kBlockSize - 1 - t));
    }
  }
}

TEST_F(LaunchTest, SharedMemoryIsPerBlock) {
  // Blocks must not see each other's shared memory.
  const Dim3 grid{8, 1, 1};
  const Dim3 block{4, 1, 1};
  std::vector<int> observed(grid.volume(), -1);
  int* out = observed.data();
  launch_blocks(ctx_, grid, block, sizeof(int), [&](BlockCtx& bc) {
    auto flag = bc.shared<int>(1);
    bc.for_lanes([&](const ThreadCtx& tc) {
      if (tc.thread_idx.x == 0) flag[0] = static_cast<int>(bc.block_idx().x);
    });
    bc.for_lanes([&](const ThreadCtx& tc) {
      if (tc.thread_idx.x == 1) out[bc.block_idx().x] = flag[0];
    });
  });
  for (std::size_t b = 0; b < grid.volume(); ++b) {
    EXPECT_EQ(observed[b], static_cast<int>(b));
  }
}

TEST_F(LaunchTest, SharedMemoryZeroInitialized) {
  bool all_zero = true;
  launch_blocks(ctx_, {1, 1, 1}, {1, 1, 1}, 64, [&](BlockCtx& bc) {
    auto bytes = bc.shared<std::uint8_t>(64);
    bc.for_lanes([&](const ThreadCtx&) {
      // portalint: ls-capture-write-ok(1x1x1 block: a single lane runs this body)
      for (auto v : bytes) all_zero = all_zero && v == 0;
    });
  });
  EXPECT_TRUE(all_zero);
}

TEST_F(LaunchTest, OversizedSharedMemoryRejected) {
  const std::size_t too_much = ctx_.spec().shared_mem_per_block + 1;
  EXPECT_THROW(launch_blocks(ctx_, {1, 1, 1}, {32, 1, 1}, too_much, [](BlockCtx&) {}),
               precondition_error);
}

TEST_F(LaunchTest, ThreeDimensionalBlocksCovered) {
  const Dim3 grid{2, 2, 2};
  const Dim3 block{4, 4, 4};  // 64 threads
  std::vector<std::atomic<int>> hits(grid.volume() * block.volume());
  launch(ctx_, grid, block, [&](const ThreadCtx& tc) {
    const std::size_t block_linear =
        (tc.block_idx.z * tc.grid_dim.y + tc.block_idx.y) * tc.grid_dim.x + tc.block_idx.x;
    const std::size_t lane =
        (tc.thread_idx.z * tc.block_dim.y + tc.thread_idx.y) * tc.block_dim.x +
        tc.thread_idx.x;
    hits[block_linear * block.volume() + lane].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(LaunchTest, GlobalZIndexComputed) {
  std::size_t max_z = 0;
  launch(ctx_, {1, 1, 3}, {1, 1, 2}, [&](const ThreadCtx& tc) {
    // portalint: ls-capture-write-ok(gpusim lanes run in-order on the host thread; racy on real devices)
    max_z = std::max(max_z, tc.global_z());
  });
  EXPECT_EQ(max_z, 2u * 2u + 1u);  // blockIdx.z=2, threadIdx.z=1
}

TEST_F(LaunchTest, SharedCarveOutBoundsChecked) {
  launch_blocks(ctx_, {1, 1, 1}, {1, 1, 1}, 16, [&](BlockCtx& bc) {
    EXPECT_NO_THROW(bc.shared<int>(4));
    EXPECT_THROW(bc.shared<int>(5), precondition_error);
    EXPECT_THROW(bc.shared<int>(2, 13), precondition_error);  // misaligned offset
  });
}

}  // namespace
}  // namespace portabench::gpusim
