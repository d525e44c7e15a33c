// Tests for parallel_for / parallel_reduce over the host execution spaces,
// and for the reduction ops parallel_reduce takes.
#include "simrt/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace portabench::simrt {
namespace {

class ParallelRangeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelRangeTest, StaticCoversEveryIndexOnce) {
  const std::size_t extent = GetParam();
  ThreadsSpace space(4);
  std::vector<std::atomic<int>> hits(extent);
  parallel_for(space, RangePolicy(0, extent), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < extent; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_P(ParallelRangeTest, DynamicCoversEveryIndexOnce) {
  const std::size_t extent = GetParam();
  ThreadsSpace space(4);
  std::vector<std::atomic<int>> hits(extent);
  parallel_for(space, RangePolicy(0, extent, Schedule::kDynamic, 3),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < extent; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(Extents, ParallelRangeTest,
                         ::testing::Values(0, 1, 3, 4, 5, 63, 64, 65, 1000));

TEST(ParallelFor, SerialMatchesThreads) {
  SerialSpace serial;
  ThreadsSpace threads(3);
  std::vector<int> a(100, 0);
  std::vector<int> b(100, 0);
  parallel_for(serial, RangePolicy(10, 90), [&](std::size_t i) { a[i] = static_cast<int>(i); });
  parallel_for(threads, RangePolicy(10, 90), [&](std::size_t i) { b[i] = static_cast<int>(i); });
  EXPECT_EQ(a, b);
}

TEST(ParallelFor, OffsetRangeRespected) {
  ThreadsSpace space(4);
  std::atomic<std::size_t> min_seen{~0ull};
  std::atomic<std::size_t> max_seen{0};
  parallel_for(space, RangePolicy(100, 200), [&](std::size_t i) {
    std::size_t cur = min_seen.load();
    while (i < cur && !min_seen.compare_exchange_weak(cur, i)) {
    }
    cur = max_seen.load();
    while (i > cur && !max_seen.compare_exchange_weak(cur, i)) {
    }
  });
  EXPECT_EQ(min_seen.load(), 100u);
  EXPECT_EQ(max_seen.load(), 199u);
}

TEST(RangePolicy, RejectsInvertedRange) {
  EXPECT_THROW(RangePolicy(5, 2), precondition_error);
}

TEST(StaticBlock, PartitionIsExactAndOrdered) {
  // Property: blocks tile [0, extent) without gaps or overlap, sizes
  // differ by at most 1 (OpenMP static semantics).
  for (std::size_t extent : {0u, 1u, 7u, 64u, 100u, 1001u}) {
    for (std::size_t nt : {1u, 3u, 4u, 64u}) {
      std::size_t expected_begin = 0;
      std::size_t min_len = ~0ull;
      std::size_t max_len = 0;
      for (std::size_t t = 0; t < nt; ++t) {
        const auto b = detail::static_block(extent, nt, t);
        EXPECT_EQ(b.begin, expected_begin);
        expected_begin = b.end;
        min_len = std::min(min_len, b.end - b.begin);
        max_len = std::max(max_len, b.end - b.begin);
      }
      EXPECT_EQ(expected_begin, extent);
      EXPECT_LE(max_len - min_len, 1u);
    }
  }
}

class MDRangeTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(MDRangeTest, CoversRectangleOnce) {
  const auto [e0, e1, tile] = GetParam();
  ThreadsSpace space(4);
  std::vector<std::atomic<int>> hits(e0 * e1);
  MDRangePolicy2 policy({0, 0}, {e0, e1}, {tile, tile});
  parallel_for(space, policy,
               [&](std::size_t i, std::size_t j) { hits[i * e1 + j].fetch_add(1); });
  for (std::size_t idx = 0; idx < hits.size(); ++idx) EXPECT_EQ(hits[idx].load(), 1) << idx;
}

INSTANTIATE_TEST_SUITE_P(Shapes, MDRangeTest,
                         ::testing::Values(std::tuple{1u, 1u, 4u}, std::tuple{7u, 5u, 4u},
                                           std::tuple{16u, 16u, 4u}, std::tuple{33u, 17u, 8u},
                                           std::tuple{64u, 3u, 16u}, std::tuple{5u, 64u, 0u}));

TEST(MDRange, SerialMatchesThreadsOrderIndependent) {
  SerialSpace serial;
  ThreadsSpace threads(3);
  std::vector<int> a(20 * 30, 0);
  std::vector<int> b(20 * 30, 0);
  MDRangePolicy2 policy({0, 0}, {20, 30});
  parallel_for(serial, policy,
               [&](std::size_t i, std::size_t j) { a[i * 30 + j] = static_cast<int>(i + j); });
  parallel_for(threads, policy,
               [&](std::size_t i, std::size_t j) { b[i * 30 + j] = static_cast<int>(i + j); });
  EXPECT_EQ(a, b);
}

TEST(MDRange, LowerBoundsRespected) {
  SerialSpace space;
  std::size_t count = 0;
  parallel_for(space, MDRangePolicy2({2, 3}, {5, 7}), [&](std::size_t i, std::size_t j) {
    EXPECT_GE(i, 2u);
    EXPECT_LT(i, 5u);
    EXPECT_GE(j, 3u);
    EXPECT_LT(j, 7u);
    // portalint: ls-capture-write-ok(SerialSpace runs every iteration on the calling thread)
    ++count;
  });
  EXPECT_EQ(count, 12u);
}

TEST(TeamPolicy, AllTeamsAndLanesRun) {
  ThreadsSpace space(4);
  constexpr std::size_t kLeague = 10;
  constexpr std::size_t kTeam = 8;
  std::vector<std::atomic<int>> hits(kLeague * kTeam);
  parallel_for(space, TeamPolicy(kLeague, kTeam), [&](const TeamMember& m) {
    EXPECT_EQ(m.team_size(), kTeam);
    hits[m.league_rank() * kTeam + m.team_rank()].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TeamPolicy, LanesOfATeamRunOnOneThread) {
  // Host lowering contract: a team's lanes execute sequentially on a
  // single pool thread.
  ThreadsSpace space(4);
  constexpr std::size_t kLeague = 6;
  constexpr std::size_t kTeam = 5;
  std::vector<std::thread::id> lane_thread(kLeague * kTeam);
  parallel_for(space, TeamPolicy(kLeague, kTeam), [&](const TeamMember& m) {
    lane_thread[m.league_rank() * kTeam + m.team_rank()] = std::this_thread::get_id();
  });
  for (std::size_t league = 0; league < kLeague; ++league) {
    for (std::size_t lane = 1; lane < kTeam; ++lane) {
      EXPECT_EQ(lane_thread[league * kTeam + lane], lane_thread[league * kTeam]);
    }
  }
}

TEST(TeamPolicy, ZeroTeamSizeRejected) {
  EXPECT_THROW(TeamPolicy(4, 0), precondition_error);
}

TEST(TeamPolicy, ScratchSharedWithinTeam) {
  // Lane 0 stages into team scratch; later lanes read it (lanes run
  // sequentially on the host, so no barrier is needed).
  ThreadsSpace space(4);
  constexpr std::size_t kLeague = 12;
  constexpr std::size_t kTeam = 4;
  std::vector<std::atomic<int>> observed(kLeague * kTeam);
  parallel_for(space, TeamPolicy(kLeague, kTeam, sizeof(int)), [&](const TeamMember& m) {
    auto shared = m.scratch<int>(1);
    if (m.team_rank() == 0) shared[0] = static_cast<int>(m.league_rank() + 100);
    observed[m.league_rank() * kTeam + m.team_rank()] = shared[0];
  });
  for (std::size_t league = 0; league < kLeague; ++league) {
    for (std::size_t lane = 0; lane < kTeam; ++lane) {
      EXPECT_EQ(observed[league * kTeam + lane].load(), static_cast<int>(league + 100));
    }
  }
}

TEST(TeamPolicy, ScratchZeroedPerTeam) {
  // A team must never see a previous team's scratch contents.
  ThreadsSpace space(2);
  std::atomic<bool> saw_dirty{false};
  parallel_for(space, TeamPolicy(20, 2, 8), [&](const TeamMember& m) {
    auto bytes = m.scratch<std::uint8_t>(8);
    if (m.team_rank() == 0) {
      for (auto b : bytes) {
        if (b != 0) saw_dirty = true;
      }
      std::fill(bytes.begin(), bytes.end(), std::uint8_t{0xFF});  // dirty it
    }
  });
  EXPECT_FALSE(saw_dirty.load());
}

TEST(TeamPolicy, ScratchBoundsChecked) {
  SerialSpace space;
  parallel_for(space, TeamPolicy(1, 1, 16), [&](const TeamMember& m) {
    EXPECT_NO_THROW(m.scratch<int>(4));
    EXPECT_THROW(m.scratch<int>(5), precondition_error);
    EXPECT_THROW(m.scratch<int>(1, 3), precondition_error);  // misaligned
    EXPECT_EQ(m.scratch_bytes(), 16u);
  });
}

TEST(TeamThreadRange, CoversExtentOnceAcrossLanes) {
  ThreadsSpace space(3);
  constexpr std::size_t kExtent = 37;
  constexpr std::size_t kTeam = 5;
  std::vector<std::atomic<int>> hits(kExtent);
  parallel_for(space, TeamPolicy(1, kTeam), [&](const TeamMember& m) {
    team_thread_range(m, kExtent, [&](std::size_t i) { hits[i].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TeamThreadRange, EmptyExtentIsNoop) {
  SerialSpace space;
  parallel_for(space, TeamPolicy(1, 4), [&](const TeamMember& m) {
    team_thread_range(m, 0, [&](std::size_t) { FAIL(); });
  });
}

TEST(ParallelReduce, SumMatchesClosedForm) {
  ThreadsSpace space(4);
  double sum = -1.0;
  parallel_reduce(space, RangePolicy(0, 1000),
                  [](std::size_t i, double& acc) { acc += static_cast<double>(i); }, sum);
  EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0 / 2.0);
}

TEST(ParallelReduce, EmptyRangeYieldsZero) {
  ThreadsSpace space(4);
  double sum = 42.0;
  parallel_reduce(space, RangePolicy(5, 5),
                  [](std::size_t, double& acc) { acc += 1.0; }, sum);
  EXPECT_EQ(sum, 0.0);
}

TEST(ParallelReduce, DeterministicAcrossRuns) {
  // Per-thread partials joined in thread order: bitwise identical runs.
  ThreadsSpace space(4);
  auto run = [&] {
    double sum = 0.0;
    parallel_reduce(space, RangePolicy(0, 10000),
                    [](std::size_t i, double& acc) { acc += 1.0 / (1.0 + static_cast<double>(i)); },
                    sum);
    return sum;
  };
  const double first = run();
  for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(run(), first);
}

TEST(ParallelReduce, SerialMatchesThreadsWithIntegers) {
  // Integer sums are associative: serial and threaded must agree exactly.
  SerialSpace serial;
  ThreadsSpace threads(4);
  long a = 0;
  long b = 0;
  auto body = [](std::size_t i, long& acc) { acc += static_cast<long>(i * i); };
  parallel_reduce(serial, RangePolicy(0, 5000), body, a);
  parallel_reduce(threads, RangePolicy(0, 5000), body, b);
  EXPECT_EQ(a, b);
}

// --- op form: parallel_reduce(space, policy, op, f) -> T --------------------

class ReducerSpaces : public ::testing::TestWithParam<std::size_t> {
 protected:
  ThreadsSpace space_{GetParam()};
};

TEST_P(ReducerSpaces, SumMatchesClosedForm) {
  const long result = parallel_reduce(space_, RangePolicy(0, 1001), SumOp<long>{},
                                      [](std::size_t i, long& acc) { acc += static_cast<long>(i); });
  EXPECT_EQ(result, 500500L);
}

TEST_P(ReducerSpaces, MinFindsGlobalMinimum) {
  std::vector<double> data(997);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>((i * 7919) % 1000);
  }
  data[513] = -42.0;
  const MinOp<double> min;
  const double result = parallel_reduce(space_, RangePolicy(0, data.size()), min,
                                        [&](std::size_t i, double& acc) { acc = min(acc, data[i]); });
  EXPECT_EQ(result, -42.0);
}

TEST_P(ReducerSpaces, MaxFindsGlobalMaximum) {
  std::vector<int> data(500);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int>(i % 100);
  data[77] = 100000;
  const MaxOp<int> max;
  const int result = parallel_reduce(space_, RangePolicy(0, data.size()), max,
                                     [&](std::size_t i, int& acc) { acc = max(acc, data[i]); });
  EXPECT_EQ(result, 100000);
}

TEST_P(ReducerSpaces, ProdOverSmallRange) {
  const long result = parallel_reduce(space_, RangePolicy(1, 11), ProdOp<long>{},
                                      [](std::size_t i, long& acc) { acc *= static_cast<long>(i); });
  EXPECT_EQ(result, 3628800L);  // 10!
}

/// Arg-min over (value, index) pairs — a user-defined op over a
/// user-defined type; the earlier element wins ties.
struct ValueIndex {
  double value;
  std::size_t index;
};

struct MinLocOp {
  static constexpr bool kExact = true;
  [[nodiscard]] ValueIndex operator()(const ValueIndex& a, const ValueIndex& b) const {
    return b.value < a.value ? b : a;
  }
  [[nodiscard]] ValueIndex identity() const {
    return {std::numeric_limits<double>::infinity(), static_cast<std::size_t>(-1)};
  }
};

TEST_P(ReducerSpaces, MinLocTracksIndex) {
  std::vector<double> data(300, 5.0);
  data[123] = -1.0;
  data[250] = -1.0;  // tie: the earlier index must win
  const MinLocOp op;
  const ValueIndex result =
      parallel_reduce(space_, RangePolicy(0, data.size()), op,
                      [&](std::size_t i, ValueIndex& acc) { acc = op(acc, {data[i], i}); });
  EXPECT_EQ(result.value, -1.0);
  EXPECT_EQ(result.index, 123u);
}

TEST_P(ReducerSpaces, EmptyRangeYieldsIdentity) {
  const long sum = parallel_reduce(space_, RangePolicy(5, 5), SumOp<long>{},
                                   [](std::size_t, long& acc) { acc += 1; });
  EXPECT_EQ(sum, 0L);
  const MinOp<double> min;
  EXPECT_EQ(parallel_reduce(space_, RangePolicy(5, 5), min, [](std::size_t, double&) {}),
            min.identity());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ReducerSpaces, ::testing::Values(1, 2, 4, 7));

TEST(Reducers, SerialMatchesThreaded) {
  SerialSpace serial;
  ThreadsSpace threads(4);
  auto body = [](std::size_t i, long& acc) { acc += static_cast<long>(i * i); };
  const long a = parallel_reduce(serial, RangePolicy(0, 4000), SumOp<long>{}, body);
  const long b = parallel_reduce(threads, RangePolicy(0, 4000), SumOp<long>{}, body);
  EXPECT_EQ(a, b);
}

TEST(Reducers, Identities) {
  EXPECT_EQ(SumOp<int>{}.identity(), 0);
  EXPECT_EQ(ProdOp<int>{}.identity(), 1);
  EXPECT_EQ(MinOp<int>{}.identity(), std::numeric_limits<int>::max());
  EXPECT_EQ(MaxOp<int>{}.identity(), std::numeric_limits<int>::lowest());
  EXPECT_EQ(MinOp<double>{}.identity(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(MaxOp<double>{}.identity(), -std::numeric_limits<double>::infinity());
}

TEST(Reducers, JoinIsAssociativeOnSamples) {
  // Property: op(a, op(b, c)) == op(op(a, b), c) for Min/Max.
  const MinOp<int> min;
  const MaxOp<int> max;
  const int samples[] = {3, -7, 0, 42, -1};
  for (int a : samples) {
    for (int b : samples) {
      for (int c : samples) {
        EXPECT_EQ(min(a, min(b, c)), min(min(a, b), c));
        EXPECT_EQ(max(a, max(b, c)), max(max(a, b), c));
      }
    }
  }
}

TEST(ParallelFor, ExceptionPropagatesFromBody) {
  ThreadsSpace space(4);
  EXPECT_THROW(parallel_for(space, RangePolicy(0, 100),
                            [](std::size_t i) {
                              if (i == 57) throw std::runtime_error("body failed");
                            }),
               std::runtime_error);
}

}  // namespace
}  // namespace portabench::simrt
