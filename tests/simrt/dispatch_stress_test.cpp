// Stress tests for the epoch-based fork-join pool and the work-stealing
// dynamic dispatch (the hot path rebuilt by the low-overhead-dispatch
// PR).  Runs in the default tier and again under the `sanitized` ctest
// label with PORTABENCH_CHECK_SEED = 1/2/3, where every region is
// permutation-scheduled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "simrt/parallel.hpp"

namespace portabench::simrt {
namespace {

TEST(DispatchStress, ManyTinyBackToBackRegions) {
  // Thousands of minimal forked regions in a row (run() bypasses the
  // grain cutoff): the pool's epoch publication, spin detection, and
  // arrival counter must never miss or double-count a region even when
  // workers oscillate between spinning and parking.
  ThreadsSpace space(4);
  std::atomic<std::size_t> total{0};
  constexpr int kRegions = 4000;
  for (int r = 0; r < kRegions; ++r) {
    space.pool().run([&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), static_cast<std::size_t>(kRegions) * 4u);
}

TEST(DispatchStress, SpinParkTransitions) {
  // Alternate bursts of back-to-back forked regions (workers stay in the
  // spin phase) with idle gaps long enough to exhaust the spin budget and
  // park.  Both wake-up paths must deliver every region exactly once.
  ThreadsSpace space(3);
  std::atomic<std::size_t> total{0};
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (int burst = 0; burst < 50; ++burst) {
      space.pool().run(
          [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // workers park
  }
  EXPECT_EQ(total.load(), 10u * 50u * 3u);
}

TEST(DispatchStress, SubCutoffRegionsRunInlineCorrectly) {
  // Regions below the fork cutoff execute every lane serially on the
  // caller — same coverage, same exception contract, no rendezvous.
  ThreadsSpace space(4);
  for (std::size_t extent : {std::size_t{1}, std::size_t{3}, std::size_t{100}}) {
    std::vector<std::atomic<int>> hits(extent);
    parallel_for(space, RangePolicy(0, extent),
                 [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
    for (std::size_t i = 0; i < extent; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
  // Exception from an inline lane propagates and the pool stays usable.
  EXPECT_THROW(parallel_for(space, RangePolicy(0, 16),
                            [&](std::size_t i) {
                              if (i == 7) throw std::runtime_error("inline lane failed");
                            }),
               std::runtime_error);
  std::atomic<std::size_t> ok{0};
  parallel_for(space, RangePolicy(0, 32),
               [&](std::size_t) { ok.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ok.load(), 32u);
}

TEST(DispatchStress, DynamicStealCoversEveryIterationOnce) {
  ThreadsSpace space(4);
  constexpr std::size_t kN = 10007;  // prime: odd chunk edges everywhere
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(space, RangePolicy(0, kN, Schedule::kDynamic, 7),
               [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(DispatchStress, StealPathDrainsImbalancedWork) {
  // All the expensive iterations land in thread 0's queue; the other
  // queues drain instantly and must steal the remainder.  Correctness
  // check: every index executed exactly once, full sum accumulated.
  // (kN is above the fork cutoff so the region really forks.)
  ThreadsSpace space(4);
  constexpr std::size_t kN = 8192;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<long> work{0};
  parallel_for(space, RangePolicy(0, kN, Schedule::kDynamic, 16), [&](std::size_t i) {
    if (i < kN / 4) {  // thread 0's static deal: artificially heavy
      volatile long spin = 0;
      for (int s = 0; s < 1000; ++s) spin = spin + s;
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
    work.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
  EXPECT_EQ(work.load(), static_cast<long>(kN) * (kN - 1) / 2);
}

TEST(DispatchStress, ExceptionFromStolenChunkPropagates) {
  ThreadsSpace space(4);
  constexpr std::size_t kN = 8192;  // above the fork cutoff: real steal queues
  // The throwing iteration sits at the tail of the last thread's queue,
  // the likeliest chunk to be executed via the steal path.
  EXPECT_THROW(
      parallel_for(space, RangePolicy(0, kN, Schedule::kDynamic, 8),
                   [&](std::size_t i) {
                     if (i == kN - 1) throw std::runtime_error("stolen chunk failed");
                   }),
      std::runtime_error);
  // The pool and queues must be reusable after the failed region.
  std::atomic<std::size_t> ok{0};
  parallel_for(space, RangePolicy(0, 64, Schedule::kDynamic, 1),
               [&](std::size_t) { ok.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ok.load(), 64u);
}

TEST(DispatchStress, StaticReduceBitwiseDeterministic) {
  // Static reductions never steal: per-thread partials joined in thread
  // order must be bitwise-identical run over run, across pool instances,
  // and (under the sanitized tier) across scheduler seeds.
  constexpr std::size_t kN = 40000;
  auto body = [](std::size_t i, double& acc) {
    acc += 1.0 / (1.0 + static_cast<double>(i));
  };
  double first = 0.0;
  {
    ThreadsSpace space(4);
    parallel_reduce(space, RangePolicy(0, kN), body, first);
  }
  for (int rep = 0; rep < 10; ++rep) {
    ThreadsSpace space(4);
    double again = 0.0;
    parallel_reduce(space, RangePolicy(0, kN), body, again);
    ASSERT_EQ(first, again) << "rep=" << rep;  // bitwise, not approximate
  }
}

TEST(DispatchStress, ReduceMatchesBlockOrderedSerialJoin) {
  // The padded-partials layout must not change the join: the result is
  // exactly the block-by-block sum in thread order.
  constexpr std::size_t kN = 9999;
  const std::size_t nt = 4;
  ThreadsSpace space(nt);
  double parallel_sum = 0.0;
  parallel_reduce(space, RangePolicy(0, kN),
                  [](std::size_t i, double& acc) { acc += std::sqrt(static_cast<double>(i)); },
                  parallel_sum);
  double expected = 0.0;
  for (std::size_t t = 0; t < nt; ++t) {
    const auto block = detail::static_block(kN, nt, t);
    double acc = 0.0;
    for (std::size_t i = block.begin; i < block.end; ++i) {
      acc += std::sqrt(static_cast<double>(i));
    }
    expected += acc;
  }
  EXPECT_EQ(parallel_sum, expected);
}

TEST(DispatchStress, TeamDynamicScheduleCoversEveryTeam) {
  ThreadsSpace space(4);
  constexpr std::size_t kLeague = 2048;  // league * team_size above the cutoff
  std::vector<std::atomic<int>> hits(kLeague);
  parallel_for(space, TeamPolicy(kLeague, 4, 0, Schedule::kDynamic),
               [&](const TeamMember& member) {
                 if (member.team_rank() == 0) {
                   hits[member.league_rank()].fetch_add(1, std::memory_order_relaxed);
                 }
               });
  for (std::size_t l = 0; l < kLeague; ++l) ASSERT_EQ(hits[l].load(), 1) << "league=" << l;
}

TEST(DispatchStress, TeamDynamicScratchZeroedPerTeam) {
  ThreadsSpace space(3);
  constexpr std::size_t kLeague = 64;
  std::atomic<int> dirty{0};
  parallel_for(space, TeamPolicy(kLeague, 2, 64, Schedule::kDynamic),
               [&](const TeamMember& member) {
                 auto scratch = member.scratch<std::uint8_t>(64);
                 if (member.team_rank() == 0) {
                   for (std::uint8_t b : scratch) {
                     if (b != 0) dirty.fetch_add(1, std::memory_order_relaxed);
                   }
                   scratch[0] = 0xFF;  // must not leak into the next team
                 }
               });
  EXPECT_EQ(dirty.load(), 0);
}

TEST(DispatchStress, TeamZeroScratchBytesSkipsArena) {
  // scratch_bytes == 0 must not allocate or fill; the member just reports
  // an empty arena.
  for (auto schedule : {Schedule::kStatic, Schedule::kDynamic}) {
    ThreadsSpace space(2);
    std::atomic<std::size_t> seen{0};
    parallel_for(space, TeamPolicy(16, 2, 0, schedule), [&](const TeamMember& member) {
      EXPECT_EQ(member.scratch_bytes(), 0u);
      seen.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(seen.load(), 16u * 2u);
  }
}

TEST(DispatchStress, DefaultChunkClampsDegenerateGrain) {
  // Tiny extents used to yield 1-iteration chunks whose scheduling
  // overhead exceeds the work; the clamp enforces a minimum grain derived
  // from extent/nt while keeping every thread able to participate.
  using detail::default_chunk;
  // Large extent: ~8 chunks per thread, unaffected by the clamp.
  EXPECT_EQ(default_chunk(1 << 20, 8), (1u << 20) / 64);
  // Mid extent where the old heuristic degenerated to 1-iteration chunks:
  // 100 iterations over 8 threads gave chunk=1 (100 dispatches); now >= 8.
  EXPECT_GE(default_chunk(100, 8), 8u);
  // The clamp never starves threads: with extent barely above nt, the
  // chunk stays small enough that every thread can get work.
  EXPECT_LE(default_chunk(12, 8), 12u / 8 + 1);
  EXPECT_GE(default_chunk(12, 8), 1u);
  // Degenerate extents still produce a valid chunk.
  EXPECT_EQ(default_chunk(0, 4), 1u);
  EXPECT_EQ(default_chunk(1, 4), 1u);
  // Chunks always cover the extent in a bounded number of dispatches:
  // at most ~8 chunks per thread once the clamp is inactive.
  for (std::size_t extent : {50u, 100u, 1000u, 100000u}) {
    for (std::size_t nt : {1u, 2u, 4u, 8u}) {
      const std::size_t chunk = default_chunk(extent, nt);
      ASSERT_GE(chunk, 1u);
      const std::size_t nchunks = (extent + chunk - 1) / chunk;
      ASSERT_LE(nchunks, nt * 8 + nt) << "extent=" << extent << " nt=" << nt;
    }
  }
}

TEST(DispatchStress, DynamicAutoChunkCoversExtent) {
  // End-to-end: the clamped default grain must still execute every
  // iteration exactly once (chunk = 0 selects the heuristic).
  ThreadsSpace space(4);
  for (std::size_t extent : {std::size_t{1}, std::size_t{37}, std::size_t{100},
                             std::size_t{4096}, std::size_t{10000}}) {
    std::vector<std::atomic<int>> hits(extent);
    parallel_for(space, RangePolicy(0, extent, Schedule::kDynamic, 0),
                 [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
    for (std::size_t i = 0; i < extent; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "extent=" << extent << " i=" << i;
    }
  }
}

TEST(DispatchStress, TemplatedRunAvoidsFunctionWrapper) {
  // run() must accept arbitrary callables (not just std::function) and
  // propagate mutations through reference captures — the raw
  // (fn, ctx) erasure must point at the original functor.
  ThreadPool pool(3);
  std::vector<int> counts(3, 0);
  auto task = [&counts](std::size_t tid) { counts[tid] += static_cast<int>(tid) + 1; };
  pool.run(task);
  const std::vector<int> expected{1, 2, 3};
  EXPECT_EQ(counts, expected);
}

TEST(DispatchStress, InlineAndForkedLanesGiveIdenticalBytes) {
  // Fork elision changes only where lanes execute: the same lane task,
  // with per-lane partials joined in lane order, must give identical
  // bytes inline on the caller (run_auto below the cutoff) and forked
  // across the team (run).
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kN = 4097;  // odd: unequal lane blocks
  ThreadPool pool(kLanes);
  const auto lane_joined_sum = [&](bool forked) {
    std::vector<double> partial(kLanes, 0.0);
    auto task = [&partial](std::size_t lane) {
      const detail::Block block = detail::static_block(kN, partial.size(), lane);
      double acc = 0.0;
      for (std::size_t i = block.begin; i < block.end; ++i) {
        acc += 1.0 / (1.0 + static_cast<double>(i));
      }
      partial[lane] = acc;
    };
    if (forked) {
      pool.run(task);
    } else {
      pool.run_auto(task, 0);
    }
    double sum = 0.0;
    for (const double p : partial) sum += p;
    return sum;
  };
  const double inline_sum = lane_joined_sum(false);
  const double forked_sum = lane_joined_sum(true);
  EXPECT_EQ(std::memcmp(&inline_sum, &forked_sum, sizeof(double)), 0);
}

}  // namespace
}  // namespace portabench::simrt
