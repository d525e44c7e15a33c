// Tests for cooperative block-level reduce and scan.
#include "gpusim/block_primitives.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <utility>
#include <vector>

#include "simrt/op.hpp"

namespace portabench::gpusim {
namespace {

class BlockPrimitives : public ::testing::TestWithParam<std::size_t> {
 protected:
  DeviceContext ctx_{GpuSpec::a100()};
};

TEST_P(BlockPrimitives, ReduceSumsLaneIds) {
  const std::size_t lanes = GetParam();
  double total = -1.0;
  launch_blocks(ctx_, {1, 1, 1}, {lanes, 1, 1}, lanes * sizeof(double), [&](BlockCtx& bc) {
    auto scratch = bc.shared<double>(lanes);
    // portalint: ls-capture-write-ok(block_reduce broadcasts; every lane stores the identical reduced value)
    total = block_reduce(bc, scratch, simrt::SumOp<double>{}, [](const ThreadCtx& tc) {
      return static_cast<double>(tc.lane_in_block());
    });
  });
  const double expected = static_cast<double>(lanes * (lanes - 1)) / 2.0;
  EXPECT_DOUBLE_EQ(total, expected);
}

TEST_P(BlockPrimitives, ExclusiveScanMatchesReference) {
  const std::size_t lanes = GetParam();
  std::vector<long> result(lanes, -1);
  launch_blocks(ctx_, {1, 1, 1}, {lanes, 1, 1}, 2 * lanes * sizeof(long), [&](BlockCtx& bc) {
    auto scratch = bc.shared<long>(2 * lanes);
    block_exclusive_scan(bc, scratch, simrt::SumOp<long>{}, [](const ThreadCtx& tc) {
      return static_cast<long>(tc.lane_in_block() + 1);  // values 1..lanes
    });
    bc.for_lanes([&](const ThreadCtx& tc) {
      result[tc.lane_in_block()] = scratch[tc.lane_in_block()];
    });
  });
  long running = 0;
  for (std::size_t i = 0; i < lanes; ++i) {
    EXPECT_EQ(result[i], running) << "lane " << i;
    running += static_cast<long>(i + 1);
  }
}

TEST_P(BlockPrimitives, ReduceMaxEqualsLeftFold) {
  const std::size_t lanes = GetParam();
  const auto value = [](std::size_t lane) {
    return static_cast<long>((lane * 2654435761u) % 1000);
  };
  long got = -1;
  launch_blocks(ctx_, {1, 1, 1}, {lanes, 1, 1}, lanes * sizeof(long), [&](BlockCtx& bc) {
    auto scratch = bc.shared<long>(lanes);
    // portalint: ls-capture-write-ok(block_reduce broadcasts; every lane stores the identical reduced value)
    got = block_reduce(bc, scratch, simrt::MaxOp<long>{},
                       [&](const ThreadCtx& tc) { return value(tc.lane_in_block()); });
  });
  long want = value(0);
  for (std::size_t i = 1; i < lanes; ++i) want = std::max(want, value(i));
  EXPECT_EQ(got, want);
}

TEST_P(BlockPrimitives, ScanNonCommutativeOpKeepsLaneOrder) {
  // Affine composition is associative but NOT commutative: the scan is
  // correct only if every combine keeps the earlier lane on the left.
  const std::size_t lanes = GetParam();
  using Aff = simrt::Affine<long>;
  const auto value = [](std::size_t lane) {
    return Aff{static_cast<long>(lane % 3 + 1), static_cast<long>(lane % 5) - 2};
  };
  std::vector<Aff> got(lanes);
  launch_blocks(ctx_, {1, 1, 1}, {lanes, 1, 1}, 2 * lanes * sizeof(Aff),
                [&](BlockCtx& bc) {
                  auto scratch = bc.shared<Aff>(2 * lanes);
                  block_exclusive_scan(bc, scratch, simrt::AffineComposeOp<long>{},
                                       [&](const ThreadCtx& tc) {
                                         return value(tc.lane_in_block());
                                       });
                  bc.for_lanes([&](const ThreadCtx& tc) {
                    got[tc.lane_in_block()] = scratch[tc.lane_in_block()];
                  });
                });
  const simrt::AffineComposeOp<long> op;
  Aff run = op.identity();
  for (std::size_t i = 0; i < lanes; ++i) {
    EXPECT_TRUE(got[i] == run) << "lane " << i << ": {" << got[i].mul << ","
                               << got[i].add << "} vs {" << run.mul << "," << run.add
                               << "}";
    run = op(run, value(i));
  }
}

TEST_P(BlockPrimitives, InclusiveScanMatchesReference) {
  const std::size_t lanes = GetParam();
  std::vector<long> got(lanes, -1);
  launch_blocks(ctx_, {1, 1, 1}, {lanes, 1, 1}, 2 * lanes * sizeof(long),
                [&](BlockCtx& bc) {
                  auto scratch = bc.shared<long>(2 * lanes);
                  block_inclusive_scan(bc, scratch, simrt::SumOp<long>{},
                                       [](const ThreadCtx& tc) {
                                         return static_cast<long>(tc.lane_in_block() + 1);
                                       });
                  bc.for_lanes([&](const ThreadCtx& tc) {
                    got[tc.lane_in_block()] = scratch[tc.lane_in_block()];
                  });
                });
  long run = 0;
  for (std::size_t i = 0; i < lanes; ++i) {
    run += static_cast<long>(i + 1);
    EXPECT_EQ(got[i], run) << "lane " << i;
  }
}

TEST_P(BlockPrimitives, HillisBaselineMatchesBlellochOnExactOps) {
  // The Hillis-Steele shape the Blelloch scan replaced survives only as
  // this host model: on an exact op it yields the same prefixes, and its
  // combine count is the closed form bench/micro_primitives reports,
  // lanes * ceil(log2 lanes) - (2^ceil(log2 lanes) - 1).
  const std::size_t lanes = GetParam();
  const auto value = [](std::size_t lane) {
    return static_cast<long>((lane * 48271u) % 97) - 48;
  };
  std::vector<long> blelloch(lanes);
  launch_blocks(ctx_, {1, 1, 1}, {lanes, 1, 1}, 2 * lanes * sizeof(long),
                [&](BlockCtx& bc) {
                  auto scratch = bc.shared<long>(2 * lanes);
                  block_exclusive_scan(bc, scratch, simrt::SumOp<long>{},
                                       [&](const ThreadCtx& tc) {
                                         return value(tc.lane_in_block());
                                       });
                  bc.for_lanes([&](const ThreadCtx& tc) {
                    blelloch[tc.lane_in_block()] = scratch[tc.lane_in_block()];
                  });
                });
  std::vector<long> inclusive(lanes);
  for (std::size_t i = 0; i < lanes; ++i) inclusive[i] = value(i);
  std::size_t combines = 0;
  for (std::size_t stride = 1; stride < lanes; stride *= 2) {
    std::vector<long> next = inclusive;
    for (std::size_t i = stride; i < lanes; ++i, ++combines) {
      next[i] = inclusive[i - stride] + inclusive[i];
    }
    inclusive = std::move(next);
  }
  std::vector<long> hillis(lanes, 0);
  for (std::size_t i = 1; i < lanes; ++i) hillis[i] = inclusive[i - 1];
  EXPECT_EQ(blelloch, hillis);
  const std::size_t levels = std::bit_width(lanes - 1);
  EXPECT_EQ(combines, lanes * levels - ((std::size_t{1} << levels) - 1));
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, BlockPrimitives,
                         ::testing::Values(1, 2, 3, 7, 8, 31, 32, 33, 64, 100, 256));

TEST(BlockPrimitivesMulti, ReducePerBlockIndependent) {
  DeviceContext ctx(GpuSpec::a100());
  constexpr std::size_t kLanes = 64;
  std::vector<double> totals(4, 0.0);
  launch_blocks(ctx, {4, 1, 1}, {kLanes, 1, 1}, kLanes * sizeof(double), [&](BlockCtx& bc) {
    auto scratch = bc.shared<double>(kLanes);
    totals[bc.block_idx().x] =
        block_reduce(bc, scratch, simrt::SumOp<double>{},
                     [&](const ThreadCtx&) { return static_cast<double>(bc.block_idx().x + 1); });
  });
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_DOUBLE_EQ(totals[b], static_cast<double>((b + 1) * kLanes));
  }
}

TEST(BlockPrimitivesMulti, Reduce2DBlockLinearizesLanes) {
  DeviceContext ctx(GpuSpec::a100());
  double total = -1.0;
  launch_blocks(ctx, {1, 1, 1}, {8, 4, 1}, 32 * sizeof(double), [&](BlockCtx& bc) {
    auto scratch = bc.shared<double>(32);
    // portalint: ls-capture-write-ok(block_reduce broadcasts; every lane stores the identical reduced value)
    total = block_reduce(bc, scratch, simrt::SumOp<double>{},
                         [](const ThreadCtx&) { return 1.0; });
  });
  EXPECT_DOUBLE_EQ(total, 32.0);
}

TEST(BlockPrimitivesMulti, DotProductKernel) {
  // A full dot-product kernel built from the primitive: per-block partial
  // sums, finalized on the host — the canonical reduction pattern.
  DeviceContext ctx(GpuSpec::a100());
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kLanes = 128;
  std::vector<double> x(kN);
  std::vector<double> y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = 1.0 + static_cast<double>(i % 7);
    y[i] = 2.0 - static_cast<double>(i % 3);
  }
  const std::size_t blocks = blocks_for(kN, kLanes);
  std::vector<double> partial(blocks, 0.0);

  launch_blocks(ctx, {blocks, 1, 1}, {kLanes, 1, 1}, kLanes * sizeof(double),
                [&](BlockCtx& bc) {
                  auto scratch = bc.shared<double>(kLanes);
                  partial[bc.block_idx().x] = block_reduce(
                      bc, scratch, simrt::SumOp<double>{}, [&](const ThreadCtx& tc) {
                        const std::size_t i = tc.global_x();
                        return i < kN ? x[i] * y[i] : 0.0;
                      });
                });
  const double device_dot = std::accumulate(partial.begin(), partial.end(), 0.0);
  const double host_dot = std::inner_product(x.begin(), x.end(), y.begin(), 0.0);
  EXPECT_NEAR(device_dot, host_dot, 1e-9 * std::abs(host_dot));
}

TEST(BlockPrimitivesMulti, ScratchTooSmallRejected) {
  DeviceContext ctx(GpuSpec::a100());
  launch_blocks(ctx, {1, 1, 1}, {32, 1, 1}, 64 * sizeof(double), [&](BlockCtx& bc) {
    auto small = bc.shared<double>(16);
    const simrt::SumOp<double> sum;
    EXPECT_THROW(block_reduce(bc, small, sum, [](const ThreadCtx&) { return 1.0; }),
                 precondition_error);
    auto scan_small = bc.shared<double>(33);
    EXPECT_THROW(block_exclusive_scan(bc, scan_small, sum, [](const ThreadCtx&) { return 1.0; }),
                 precondition_error);
  });
}

}  // namespace
}  // namespace portabench::gpusim
