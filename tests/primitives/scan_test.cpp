// Property tests for device-wide exclusive/inclusive scans: bitwise
// identity against the serial oracle over a (type, op) grid, under
// multiple schedule configs, including in-place operation and the
// non-commutative affine-composition op that detects any combine whose
// operand order drifts.
#include "primitives/scan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "primitives/serial.hpp"

namespace portabench::primitives {
namespace {

using simrt::Affine;
using simrt::AffineComposeOp;
using simrt::BitOrOp;
using simrt::MaxOp;
using simrt::MinOp;
using simrt::SumOp;

const std::size_t kSizes[] = {0, 1, 2, 3, 97, 1023, 1024, 1025, 4099, 10007};

const ScanConfig kConfigs[] = {
    {},           // defaults
    {1, 1},       // degenerate single-lane, single-element chunks
    {32, 4096},   // warp-width lanes, large chunks
    {256, 1024},  // chunk == kSegment boundary alignment
    {7, 129},     // awkward non-power-of-two schedule
};

template <class T>
std::vector<T> random_values(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) {
    if constexpr (std::is_floating_point_v<T>) {
      x = static_cast<T>(rng.uniform() - 0.5);
    } else {
      x = static_cast<T>(rng() % 1000) - 500;
    }
  }
  return v;
}

template <class T>
bool vectors_bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <class T, class Op>
void check_scans_all_schedules(std::uint64_t seed) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const Op op;
  for (const std::size_t n : kSizes) {
    const std::vector<T> in = random_values<T>(n, seed + n);
    std::vector<T> want_ex(n), want_in(n);
    exclusive_scan_oracle(std::span<const T>(in), std::span<T>(want_ex), op);
    inclusive_scan_oracle(std::span<const T>(in), std::span<T>(want_in), op);
    for (const ScanConfig& cfg : kConfigs) {
      std::vector<T> out(n);
      device_exclusive_scan(ctx, std::span<const T>(in), std::span<T>(out), op, cfg);
      EXPECT_TRUE(vectors_bits_equal(out, want_ex))
          << "exclusive n=" << n << " lanes=" << cfg.lanes << " chunk=" << cfg.chunk;
      device_inclusive_scan(ctx, std::span<const T>(in), std::span<T>(out), op, cfg);
      EXPECT_TRUE(vectors_bits_equal(out, want_in))
          << "inclusive n=" << n << " lanes=" << cfg.lanes << " chunk=" << cfg.chunk;
    }
  }
}

TEST(DeviceScan, SumInt64) { check_scans_all_schedules<std::int64_t, SumOp<std::int64_t>>(1); }
TEST(DeviceScan, SumUint32) { check_scans_all_schedules<std::uint32_t, SumOp<std::uint32_t>>(2); }
TEST(DeviceScan, SumDouble) { check_scans_all_schedules<double, SumOp<double>>(3); }
TEST(DeviceScan, SumFloat) { check_scans_all_schedules<float, SumOp<float>>(4); }
TEST(DeviceScan, MaxInt32) { check_scans_all_schedules<std::int32_t, MaxOp<std::int32_t>>(5); }
TEST(DeviceScan, MinDouble) { check_scans_all_schedules<double, MinOp<double>>(6); }
TEST(DeviceScan, BitOrUint64) { check_scans_all_schedules<std::uint64_t, BitOrOp<std::uint64_t>>(7); }

TEST(DeviceScan, ExactExclusiveEqualsStdExclusiveScan) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const std::vector<std::int64_t> in = random_values<std::int64_t>(5001, 42);
  std::vector<std::int64_t> want(in.size());
  std::exclusive_scan(in.begin(), in.end(), want.begin(), std::int64_t{0});
  std::vector<std::int64_t> out(in.size());
  device_exclusive_scan(ctx, std::span<const std::int64_t>(in),
                        std::span<std::int64_t>(out), SumOp<std::int64_t>{});
  EXPECT_EQ(out, want);
}

TEST(DeviceScan, NonCommutativeAffineKeepsElementOrder) {
  // Affine composition is associative but not commutative: a scan that
  // ever swaps combine operands (in the block tree, the chunk-total
  // pass, or the offset application) produces different coefficients.
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  using Aff = Affine<std::int64_t>;
  const AffineComposeOp<std::int64_t> op;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{97},
                              std::size_t{1025}, std::size_t{4099}}) {
    std::vector<Aff> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = Aff{static_cast<std::int64_t>(i % 3 + 1),
                  static_cast<std::int64_t>(i % 7) - 3};
    }
    // Serial left-fold prefix is the ground truth (op is exact).
    std::vector<Aff> want(n);
    Aff run = op.identity();
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = run;
      run = op(run, in[i]);
    }
    for (const ScanConfig& cfg : kConfigs) {
      std::vector<Aff> out(n);
      device_exclusive_scan(ctx, std::span<const Aff>(in), std::span<Aff>(out), op, cfg);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(out[i] == want[i])
            << "n=" << n << " i=" << i << " lanes=" << cfg.lanes
            << " chunk=" << cfg.chunk << ": {" << out[i].mul << "," << out[i].add
            << "} vs {" << want[i].mul << "," << want[i].add << "}";
      }
    }
    std::vector<Aff> oracle(n);
    exclusive_scan_oracle(std::span<const Aff>(in), std::span<Aff>(oracle), op);
    for (std::size_t i = 0; i < n; ++i) ASSERT_TRUE(oracle[i] == want[i]) << "i=" << i;
  }
}

TEST(DeviceScan, InPlaceMatchesOutOfPlace) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  for (const std::size_t n : {std::size_t{1}, std::size_t{1023}, std::size_t{4099}}) {
    const std::vector<double> in = random_values<double>(n, 9 + n);
    std::vector<double> out(n);
    device_exclusive_scan(ctx, std::span<const double>(in), std::span<double>(out),
                          SumOp<double>{});
    std::vector<double> inplace = in;
    device_exclusive_scan(ctx, std::span<const double>(inplace),
                          std::span<double>(inplace), SumOp<double>{});
    EXPECT_TRUE(vectors_bits_equal(inplace, out)) << "exclusive n=" << n;

    device_inclusive_scan(ctx, std::span<const double>(in), std::span<double>(out),
                          SumOp<double>{});
    inplace = in;
    device_inclusive_scan(ctx, std::span<const double>(inplace),
                          std::span<double>(inplace), SumOp<double>{});
    EXPECT_TRUE(vectors_bits_equal(inplace, out)) << "inclusive n=" << n;
  }
}

TEST(DeviceScan, InclusiveIsExclusiveShiftedForExactOps) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const std::vector<std::int64_t> in = random_values<std::int64_t>(2050, 17);
  std::vector<std::int64_t> ex(in.size()), inc(in.size());
  device_exclusive_scan(ctx, std::span<const std::int64_t>(in),
                        std::span<std::int64_t>(ex), SumOp<std::int64_t>{});
  device_inclusive_scan(ctx, std::span<const std::int64_t>(in),
                        std::span<std::int64_t>(inc), SumOp<std::int64_t>{});
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(inc[i], ex[i] + in[i]) << "i=" << i;
  }
}

// Small (extent, threads) grid against hand-rolled sequential scans;
// `threads` is the block width (ScanConfig::lanes).
class ScanTest : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ScanTest, ExclusiveMatchesSerialReference) {
  const auto [extent, threads] = GetParam();
  std::vector<long> in(extent);
  for (std::size_t i = 0; i < extent; ++i) in[i] = static_cast<long>((i * 31 + 7) % 100);
  std::vector<long> expected(extent);
  long running = 0;
  for (std::size_t i = 0; i < extent; ++i) {
    expected[i] = running;
    running += in[i];
  }
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  std::vector<long> out(extent, -1);
  device_exclusive_scan(ctx, std::span<const long>(in), std::span<long>(out), SumOp<long>{},
                        ScanConfig{.lanes = threads});
  EXPECT_EQ(out, expected);
}

TEST_P(ScanTest, InclusiveMatchesPartialSum) {
  const auto [extent, threads] = GetParam();
  std::vector<long> in(extent);
  for (std::size_t i = 0; i < extent; ++i) in[i] = static_cast<long>(i % 13);
  std::vector<long> expected(extent);
  std::partial_sum(in.begin(), in.end(), expected.begin());
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  std::vector<long> out(extent, -1);
  device_inclusive_scan(ctx, std::span<const long>(in), std::span<long>(out), SumOp<long>{},
                        ScanConfig{.lanes = threads});
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(ExtentsAndThreads, ScanTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 5, 64, 1000),
                                            ::testing::Values(1, 3, 4, 8)));

TEST(DeviceScan, MismatchedSpansRejected) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const std::vector<double> in(8);
  std::vector<double> out(7);
  EXPECT_THROW(device_exclusive_scan(ctx, std::span<const double>(in),
                                     std::span<double>(out), SumOp<double>{}),
               precondition_error);
}

}  // namespace
}  // namespace portabench::primitives
