// Tests for the block-parallel launch engine: parallel-vs-serial result
// equality, pooled shared-memory arenas, nested-launch degradation, and
// the memoized launch-configuration cache.
#include "gpusim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "gpusim/batch.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "portacheck/hooks.hpp"
#include "simrt/tunables.hpp"

namespace portabench::gpusim {
namespace {

class LaunchEngineTest : public ::testing::Test {
 protected:
  LaunchEngineTest() { ctx_.set_engine(engine_); }

  DeviceContext ctx_{GpuSpec::a100()};
  // A private multi-worker engine so the fork path is exercised no matter
  // what the host machine or PORTABENCH_GPUSIM_THREADS says.
  std::shared_ptr<LaunchEngine> engine_ = std::make_shared<LaunchEngine>(4);
};

TEST_F(LaunchEngineTest, WorkerCountResolvesExplicitRequest) {
  EXPECT_EQ(engine_->workers(), 4u);
  EXPECT_EQ(LaunchEngine(3).workers(), 3u);
}

TEST_F(LaunchEngineTest, NotInRegionOutsideLaunches) {
  EXPECT_FALSE(LaunchEngine::in_region());
}

TEST_F(LaunchEngineTest, ParallelLaunchMatchesSerialBitwise) {
  // 64 blocks x 256 lanes = 16384 simulated threads: above the fork
  // cutoff, so launch() really runs blocks on the pool.
  const Dim3 grid{8, 8, 1};
  const Dim3 block{16, 16, 1};
  const std::size_t n = 128;
  std::vector<double> serial(n * n, -1.0);
  std::vector<double> parallel(n * n, -2.0);

  auto body = [n](std::vector<double>& out) {
    return [&out, n](const ThreadCtx& tc) {
      const std::size_t row = tc.global_y();
      const std::size_t col = tc.global_x();
      // Value depends on every index component, so any ordering or
      // indexing bug in the flattened lane walk changes some element.
      out[row * n + col] = 1.0 / static_cast<double>(1 + row * n + col) +
                           static_cast<double>(tc.lane_in_block());
    };
  };
  launch_serial(ctx_, grid, block, body(serial));
  launch(ctx_, grid, block, body(parallel));
  EXPECT_EQ(serial, parallel);  // bitwise: identical per-element math
}

TEST_F(LaunchEngineTest, LaunchBlocksParallelMatchesSerial) {
  const Dim3 grid{16, 4, 1};
  const Dim3 block{8, 8, 1};
  const std::size_t shared_bytes = block.volume() * sizeof(double);
  std::vector<double> serial(grid.volume(), -1.0);
  std::vector<double> parallel(grid.volume(), -2.0);

  // Cooperative block sum through shared scratch: lanes stage values,
  // lane 0 reduces after the implicit barrier.
  auto body = [&](std::vector<double>& out) {
    return [&out](BlockCtx& bc) {
      auto scratch = bc.shared<double>(bc.block_dim().volume());
      bc.for_lanes([&](const ThreadCtx& tc) {
        scratch[tc.lane_in_block()] = static_cast<double>(tc.global_x() + tc.global_y());
      });
      bc.for_lanes([&](const ThreadCtx& tc) {
        if (tc.lane_in_block() == 0) {
          double sum = 0.0;
          for (double v : scratch) sum += v;
          out[detail::linear_block(tc.grid_dim, tc.block_idx)] = sum;
        }
      });
    };
  };
  launch_blocks_serial(ctx_, grid, block, shared_bytes, body(serial));
  launch_blocks(ctx_, grid, block, shared_bytes, body(parallel));
  EXPECT_EQ(serial, parallel);
}

TEST_F(LaunchEngineTest, SubCutoffLaunchRunsInline) {
  // 4 threads total: far below the cutoff — must execute on the caller
  // (observable: plain non-atomic accumulation is race-free).
  const Dim3 grid{2, 1, 1};
  const Dim3 block{2, 1, 1};
  std::size_t count = 0;
  launch(ctx_, grid, block, [&](const ThreadCtx&) {
    // portalint: ls-capture-write-ok(sub-cutoff launches run serially inline; that is the assertion)
    ++count;
  });
  EXPECT_EQ(count, 4u);
}

TEST_F(LaunchEngineTest, OneItemBatchRunsOnCaller) {
  // Far above the fork cutoff, but a fork cannot split one item: it runs
  // on the calling thread with the serial worker id, as a sub-cutoff
  // launch does.
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  std::size_t worker = 0;
  std::size_t calls = 0;
  run_batch(*engine_, 1, 16 * simrt::kForkCutoff, [&](std::size_t w, std::size_t item) {
    // portalint: ls-capture-write-ok(a one-item batch runs on the caller; that is the assertion)
    ran_on = std::this_thread::get_id();
    worker = w;
    calls += 1 + item;
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(worker, LaunchEngine::kSerialWorker);
}

TEST_F(LaunchEngineTest, NestedLaunchDegradesToSerial) {
  // A kernel that launches a kernel: the inner launch is above the fork
  // cutoff but must degrade to the serial inline walk (the pool is not
  // reentrant) instead of deadlocking.  Every block runs the inner
  // launch, so completion itself is the assertion.
  const Dim3 grid{4, 4, 1};
  const Dim3 block{32, 32, 1};  // 16 x 1024 = above cutoff: outer forks
  std::vector<int> inner_counts(grid.volume(), 0);
  launch_blocks(ctx_, grid, block, 0, [&](BlockCtx& bc) {
    const std::size_t slot = detail::linear_block(bc.grid_dim(), bc.block_idx());
    DeviceContext inner_ctx(GpuSpec::a100());
    inner_ctx.set_engine(engine_);
    int count = 0;  // non-atomic: the inner launch must be serial
    launch(inner_ctx, Dim3{8, 1, 1}, Dim3{32, 32, 1}, [&count](const ThreadCtx&) {
      // portalint: ls-capture-write-ok(nested launches degrade to the serial walk; that is the assertion)
      ++count;
    });
    inner_counts[slot] = count;
  });
  for (const int c : inner_counts) EXPECT_EQ(c, 8 * 32 * 32);
}

TEST_F(LaunchEngineTest, ArenaGrowsToHighWaterAndPools) {
  if (portacheck::active()) {
    GTEST_SKIP() << "sanitized runs use the serial thread-local arena";
  }
  const Dim3 grid{8, 8, 1};
  const Dim3 block{16, 16, 1};  // above cutoff: worker arenas in play
  auto noop = [](BlockCtx&) {};
  launch_blocks(ctx_, grid, block, 1024, noop);
  const std::size_t after_small = engine_->arena_high_water();
  EXPECT_GE(after_small, 1024u);
  // A bigger request grows the arenas; repeating it must not grow further
  // (pooled reuse: the steady-state path allocates nothing).
  launch_blocks(ctx_, grid, block, 4096, noop);
  const std::size_t after_large = engine_->arena_high_water();
  EXPECT_GE(after_large, 4096u);
  launch_blocks(ctx_, grid, block, 4096, noop);
  launch_blocks(ctx_, grid, block, 2048, noop);
  EXPECT_EQ(engine_->arena_high_water(), after_large);
}

TEST_F(LaunchEngineTest, ArenaZeroFilledEveryAcquire) {
  const Dim3 grid{8, 8, 1};
  const Dim3 block{16, 16, 1};
  const std::size_t shared_bytes = 256 * sizeof(double);
  // First launch dirties the scratch; the second must still observe the
  // __shared__ zero-fill contract on every block.
  std::atomic<int> dirty{0};
  auto dirtying = [&](BlockCtx& bc) {
    auto s = bc.shared<double>(256);
    for (auto& v : s) v = 1e9;
    dirty.fetch_add(1, std::memory_order_relaxed);
  };
  launch_blocks(ctx_, grid, block, shared_bytes, dirtying);
  EXPECT_EQ(dirty.load(std::memory_order_relaxed), static_cast<int>(grid.volume()));

  std::atomic<int> nonzero{0};
  launch_blocks(ctx_, grid, block, shared_bytes, [&](BlockCtx& bc) {
    auto s = bc.shared<double>(256);
    for (const double v : s) {
      if (v != 0.0) nonzero.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(nonzero.load(std::memory_order_relaxed), 0);
}

TEST_F(LaunchEngineTest, LocalArenaZeroFilledAndReused) {
  const auto a = LaunchEngine::local_arena(512);
  EXPECT_GE(a.size(), 512u);
  for (const std::byte b : a.first(512)) EXPECT_EQ(b, std::byte{0});
  for (auto& b : a) b = std::byte{0xFF};
  const auto c = LaunchEngine::local_arena(256);
  EXPECT_EQ(c.data(), a.data());  // pooled: same thread-local storage
  for (const std::byte b : c) EXPECT_EQ(b, std::byte{0});
}

TEST_F(LaunchEngineTest, LaunchConfigCacheCountsHitsAndMisses) {
  const Dim3 grid{4, 4, 1};
  const Dim3 block{8, 8, 1};
  EXPECT_EQ(ctx_.launch_cache_stats().hits, 0u);
  ctx_.validate_launch_cached(grid, block, 0);
  EXPECT_EQ(ctx_.launch_cache_stats().misses, 1u);
  ctx_.validate_launch_cached(grid, block, 0);
  ctx_.validate_launch_cached(grid, block, 0);
  EXPECT_EQ(ctx_.launch_cache_stats().hits, 2u);
  EXPECT_EQ(ctx_.launch_cache_stats().misses, 1u);
  // Different shared_bytes is a different key.
  ctx_.validate_launch_cached(grid, block, 1024);
  EXPECT_EQ(ctx_.launch_cache_stats().misses, 2u);
}

TEST_F(LaunchEngineTest, CachedOccupancyMatchesDirectComputation) {
  const Dim3 grid{4, 4, 1};
  const Dim3 block{16, 16, 1};
  const Occupancy& cached = ctx_.launch_occupancy(grid, block, 0);
  KernelResources res;
  res.threads_per_block = block.volume();
  const Occupancy direct = compute_occupancy(ctx_.spec(), res);
  EXPECT_EQ(cached.active_blocks_per_sm, direct.active_blocks_per_sm);
  EXPECT_EQ(cached.active_threads_per_sm, direct.active_threads_per_sm);
  EXPECT_DOUBLE_EQ(cached.fraction, direct.fraction);
}

TEST_F(LaunchEngineTest, InvalidConfigurationsThrowAndAreNeverCached) {
  const Dim3 grid{1, 1, 1};
  const Dim3 oversized{64, 64, 1};  // 4096 > max_threads_per_block
  EXPECT_THROW(ctx_.validate_launch_cached(grid, oversized, 0), precondition_error);
  const auto stats = ctx_.launch_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);  // throw happened before install
  // Oversized dynamic shared memory is rejected the same way.
  EXPECT_THROW(
      ctx_.validate_launch_cached(grid, Dim3{8, 8, 1}, ctx_.spec().shared_mem_per_block + 1),
      precondition_error);
}

TEST_F(LaunchEngineTest, SharedEngineIsDefaultWithoutInstall) {
  DeviceContext plain(GpuSpec::a100());
  EXPECT_EQ(&plain.engine(), &LaunchEngine::shared());
  EXPECT_EQ(&ctx_.engine(), engine_.get());
}

}  // namespace
}  // namespace portabench::gpusim
