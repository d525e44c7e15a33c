// Property tests for the radix sorts: bitwise identity against the
// stable serial oracle across key types (including the signed/float
// monotone bit bijections), sizes on both sides of the block-tile
// boundary (kSortChunk = 8192), host radix widths, input orders, and
// duplicate-heavy distributions that exercise stability.
#include "primitives/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "primitives/serial.hpp"

namespace portabench::primitives {
namespace {

const std::size_t kSizes[] = {0, 1, 2, 3, 97, 1023, 1024, 1025, 4099, 8191, 8192, 8193, 20011};

template <class K>
std::vector<K> random_keys(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<K> v(n);
  for (auto& x : v) {
    if constexpr (std::is_floating_point_v<K>) {
      x = static_cast<K>((rng.uniform() - 0.5) * 1e6);
    } else {
      x = static_cast<K>(rng());
    }
  }
  return v;
}

template <class K>
bool keys_bits_equal(const std::vector<K>& a, const std::vector<K>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(K)) == 0);
}

template <class K>
void check_sort_keys(std::uint64_t seed) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  for (const std::size_t n : kSizes) {
    const std::vector<K> in = random_keys<K>(n, seed + n);
    std::vector<K> want = in;
    sort_keys_oracle(std::span<K>(want));
    std::vector<K> got = in;
    device_radix_sort_keys(ctx, std::span<K>(got));
    EXPECT_TRUE(keys_bits_equal(got, want)) << "n=" << n;
  }
}

TEST(DeviceRadixSortKeys, Uint32) { check_sort_keys<std::uint32_t>(1); }
TEST(DeviceRadixSortKeys, Uint64) { check_sort_keys<std::uint64_t>(2); }
TEST(DeviceRadixSortKeys, Int32) { check_sort_keys<std::int32_t>(3); }
TEST(DeviceRadixSortKeys, Int64) { check_sort_keys<std::int64_t>(4); }
TEST(DeviceRadixSortKeys, Float) { check_sort_keys<float>(5); }
TEST(DeviceRadixSortKeys, Double) { check_sort_keys<double>(6); }

TEST(DeviceRadixSortKeys, SignedKeysOrderNumerically) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  std::vector<std::int32_t> keys = {5, -1, 0, std::numeric_limits<std::int32_t>::min(),
                                    std::numeric_limits<std::int32_t>::max(), -7, 3, -7};
  device_radix_sort_keys(ctx, std::span<std::int32_t>(keys));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(keys.back(), std::numeric_limits<std::int32_t>::max());
}

TEST(DeviceRadixSortKeys, FloatBijectionOrdersSpecials) {
  // The float bijection must yield: -inf < negatives < -0.0 < +0.0 <
  // positives < +inf < NaN (positive-sign NaNs sort above +inf).
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> keys = {1.5,  -0.0, nan, -std::numeric_limits<double>::infinity(),
                              -2.5, 0.0,  std::numeric_limits<double>::infinity(), 3.0};
  std::vector<double> want = keys;
  sort_keys_oracle(std::span<double>(want));
  device_radix_sort_keys(ctx, std::span<double>(keys));
  EXPECT_TRUE(keys_bits_equal(keys, want));
  EXPECT_EQ(keys[0], -std::numeric_limits<double>::infinity());
  EXPECT_EQ(keys[1], -2.5);
  EXPECT_TRUE(std::signbit(keys[2]) && keys[2] == 0.0) << "expected -0.0 before +0.0";
  EXPECT_TRUE(!std::signbit(keys[3]) && keys[3] == 0.0);
  EXPECT_TRUE(std::isnan(keys.back())) << "positive NaN must sort last";
}

TEST(DeviceRadixSortKeys, SortedAndReverseInputs) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  for (const std::size_t n : {std::size_t{1024}, std::size_t{4099}}) {
    std::vector<std::uint64_t> asc(n);
    std::iota(asc.begin(), asc.end(), std::uint64_t{0});
    std::vector<std::uint64_t> keys = asc;
    device_radix_sort_keys(ctx, std::span<std::uint64_t>(keys));
    EXPECT_EQ(keys, asc) << "already-sorted input must be a fixed point, n=" << n;
    std::vector<std::uint64_t> rev(asc.rbegin(), asc.rend());
    device_radix_sort_keys(ctx, std::span<std::uint64_t>(rev));
    EXPECT_EQ(rev, asc) << "reverse input, n=" << n;
  }
}

TEST(DeviceRadixSortPairs, StableOnDuplicateKeys) {
  // Dense duplicate keys with index payloads: stability means values
  // within every equal-key run stay in ascending input order — and the
  // whole result matches the stable oracle bitwise.
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  for (const std::size_t n : {std::size_t{97}, std::size_t{4099}, std::size_t{20011}}) {
    Xoshiro256 rng(99 + n);
    std::vector<std::uint32_t> keys(n);
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng() % 17);  // heavy duplication
    std::vector<std::uint32_t> values(n);
    std::iota(values.begin(), values.end(), std::uint32_t{0});

    std::vector<std::uint32_t> want_k = keys, want_v = values;
    sort_pairs_oracle(std::span<std::uint32_t>(want_k), std::span<std::uint32_t>(want_v));

    device_radix_sort_pairs(ctx, std::span<std::uint32_t>(keys),
                            std::span<std::uint32_t>(values));
    EXPECT_TRUE(keys_bits_equal(keys, want_k)) << "n=" << n;
    EXPECT_TRUE(keys_bits_equal(values, want_v)) << "n=" << n;
    for (std::size_t i = 1; i < n; ++i) {
      if (keys[i] == keys[i - 1]) {
        ASSERT_LT(values[i - 1], values[i]) << "stability violated at i=" << i;
      }
    }
  }
}

TEST(DeviceRadixSortPairs, DoubleKeysWithPayload) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const std::size_t n = 2050;
  std::vector<double> keys = random_keys<double>(n, 7);
  for (std::size_t i = 0; i < n; i += 5) keys[i] = keys[0];  // inject duplicates
  std::vector<std::uint64_t> values(n);
  std::iota(values.begin(), values.end(), std::uint64_t{0});
  std::vector<double> want_k = keys;
  std::vector<std::uint64_t> want_v = values;
  sort_pairs_oracle(std::span<double>(want_k), std::span<std::uint64_t>(want_v));
  device_radix_sort_pairs(ctx, std::span<double>(keys), std::span<std::uint64_t>(values));
  EXPECT_TRUE(keys_bits_equal(keys, want_k));
  EXPECT_TRUE(keys_bits_equal(values, want_v));
}

TEST(HostRadixSortPairs, MatchesOracleAndReusesScratch) {
  const std::size_t n = 10007;
  Xoshiro256 rng(31);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng() & 0xffffu;  // dense duplicates
  std::vector<std::uint32_t> values(n);
  std::iota(values.begin(), values.end(), std::uint32_t{0});
  std::vector<std::uint64_t> want_k = keys;
  std::vector<std::uint32_t> want_v = values;
  sort_pairs_oracle(std::span<std::uint64_t>(want_k), std::span<std::uint32_t>(want_v));

  HostRadixScratch<std::uint64_t, std::uint32_t> scratch;
  for (const std::size_t radix_bits : {std::size_t{1}, std::size_t{4}, std::size_t{5},
                                       std::size_t{8}}) {
    std::vector<std::uint64_t> k = keys;
    std::vector<std::uint32_t> v = values;
    // Reusing one scratch across widths must not leak state between runs.
    host_radix_sort_pairs(std::span<std::uint64_t>(k), std::span<std::uint32_t>(v),
                          scratch, radix_bits);
    EXPECT_TRUE(keys_bits_equal(k, want_k)) << "radix_bits=" << radix_bits;
    EXPECT_TRUE(keys_bits_equal(v, want_v)) << "radix_bits=" << radix_bits;
  }
}

TEST(DeviceRadixSortPairs, MismatchedSpansRejected) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  std::vector<std::uint32_t> keys(8);
  std::vector<std::uint32_t> values(7);
  EXPECT_THROW(device_radix_sort_pairs(ctx, std::span<std::uint32_t>(keys),
                                       std::span<std::uint32_t>(values)),
               precondition_error);
}

}  // namespace
}  // namespace portabench::primitives
