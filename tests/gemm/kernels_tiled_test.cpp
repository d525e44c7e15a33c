// Correctness tests for the optimized tiled/packed GEMM ceiling
// (gemm/kernels_tiled.hpp) against the blocked reference: all three paper
// precisions, edge shapes that are not multiples of the MR/NR/KC/MC
// blocking, both host spaces, and the LayoutLeft path the packing is
// supposed to make free.
#include "gemm/kernels_tiled.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "gemm/reference.hpp"
#include "gemm/validate.hpp"
#include "models/runner.hpp"

namespace portabench::gemm {
namespace {

using simrt::LayoutLeft;
using simrt::LayoutRight;
using simrt::SerialSpace;
using simrt::ThreadsSpace;
using simrt::View2;

template <class T, class Layout>
View2<T, Layout> random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  View2<T, Layout> v(rows, cols);
  Xoshiro256 rng(seed);
  fill_uniform(std::span<T>(v.data(), rows * cols), rng);
  return v;
}

// ---- shape sweep: blocking edges are where packed kernels break ----------
//
// Shapes straddle every blocking boundary: below one micro-tile, exactly
// one micro-tile, non-multiples of kMR=4 / kNR=8, across the kMC=64 row
// block, and across the kKC=256 k-panel (multiple packing passes).
class TiledGemmShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(TiledGemmShapes, MatchesReferenceDouble) {
  const auto [m, k, n] = GetParam();
  auto A = random_matrix<double, LayoutRight>(m, k, 1);
  auto B = random_matrix<double, LayoutRight>(k, n, 2);
  View2<double, LayoutRight> C(m, n);
  View2<double, LayoutRight> C_ref(m, n);
  ThreadsSpace space(4);
  gemm_tiled<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, k));
}

TEST_P(TiledGemmShapes, SerialSpaceMatchesReference) {
  const auto [m, k, n] = GetParam();
  auto A = random_matrix<double, LayoutRight>(m, k, 3);
  auto B = random_matrix<double, LayoutRight>(k, n, 4);
  View2<double, LayoutRight> C(m, n);
  View2<double, LayoutRight> C_ref(m, n);
  SerialSpace space;
  gemm_tiled<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledGemmShapes,
    ::testing::Values(std::tuple{1u, 1u, 1u}, std::tuple{3u, 5u, 7u},
                      std::tuple{4u, 8u, 8u}, std::tuple{17u, 31u, 13u},
                      std::tuple{64u, 64u, 64u}, std::tuple{65u, 257u, 63u},
                      std::tuple{100u, 1u, 100u}, std::tuple{1u, 300u, 1u},
                      std::tuple{130u, 70u, 9u}));

// ---- precision behaviour -------------------------------------------------

TEST(TiledGemm, SinglePrecisionWithinTolerance) {
  constexpr std::size_t kN = 96;
  auto A = random_matrix<float, LayoutRight>(kN, kN, 11);
  auto B = random_matrix<float, LayoutRight>(kN, kN, 12);
  View2<float, LayoutRight> C(kN, kN);
  View2<float, LayoutRight> C_ref(kN, kN);
  ThreadsSpace space(3);
  gemm_tiled<float>(space, A, B, C);
  reference_gemm<float>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kSingle, kN));
}

TEST(TiledGemm, HalfInputsFloatAccumulate) {
  // Packing converts binary16 operands to FP32, so the micro-kernel
  // accumulates in FP32 — the Fig. 1c scheme.
  constexpr std::size_t kN = 48;
  auto A = random_matrix<half, LayoutRight>(kN, kN, 13);
  auto B = random_matrix<half, LayoutRight>(kN, kN, 14);
  View2<float, LayoutRight> C(kN, kN);
  View2<float, LayoutRight> C_ref(kN, kN);
  ThreadsSpace space(2);
  gemm_tiled<float>(space, A, B, C);
  reference_gemm<float>(A, B, C_ref);
  EXPECT_LE(static_cast<double>(max_abs_diff(C, C_ref)),
            gemm_tolerance(Precision::kHalfIn, kN));
}

TEST(TiledGemm, HalfOfOnesIsExactlyK) {
  constexpr std::size_t kN = 40;
  View2<half, LayoutRight> A(kN, kN);
  View2<half, LayoutRight> B(kN, kN);
  fill_constant(std::span<half>(A.data(), kN * kN), half(1.0f));
  fill_constant(std::span<half>(B.data(), kN * kN), half(1.0f));
  View2<float, LayoutRight> C(kN, kN);
  ThreadsSpace space(2);
  gemm_tiled<float>(space, A, B, C);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) EXPECT_EQ(C(i, j), static_cast<float>(kN));
  }
}

// ---- layout genericity ---------------------------------------------------

TEST(TiledGemm, LayoutLeftMatchesReference) {
  // Packing reads the views through operator(), so column-major operands
  // take the same code path as row-major ones.
  constexpr std::size_t kM = 37, kK = 70, kN = 29;
  auto A = random_matrix<double, LayoutLeft>(kM, kK, 21);
  auto B = random_matrix<double, LayoutLeft>(kK, kN, 22);
  View2<double, LayoutLeft> C(kM, kN);
  View2<double, LayoutLeft> C_ref(kM, kN);
  ThreadsSpace space(4);
  gemm_tiled<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(max_abs_diff(C, C_ref), gemm_tolerance(Precision::kDouble, kK));
}

// ---- semantics -----------------------------------------------------------

TEST(TiledGemm, AccumulatesIntoC) {
  // The bias is O(1): the tiled kernel folds the old C in with one final
  // add at writeback (vs the reference's running accumulation), which is
  // a different — equally valid — rounding order, and a large bias would
  // magnify that reordering past the k-based tolerance.
  constexpr std::size_t kN = 20;
  auto A = random_matrix<double, LayoutRight>(kN, kN, 15);
  auto B = random_matrix<double, LayoutRight>(kN, kN, 16);
  View2<double, LayoutRight> C(kN, kN);
  View2<double, LayoutRight> C_expected(kN, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      C(i, j) = 1.5;
      C_expected(i, j) = 1.5;
    }
  }
  SerialSpace space;
  gemm_tiled<double>(space, A, B, C);
  reference_gemm<double>(A, B, C_expected);
  EXPECT_LE(max_abs_diff(C, C_expected), gemm_tolerance(Precision::kDouble, kN));
}

TEST(TiledGemm, SerialAndThreadedBitwiseIdentical) {
  // Parallelism is over disjoint MC row blocks; the k-accumulation order
  // within each output element never changes with the thread count.
  constexpr std::size_t kN = 97;
  auto A = random_matrix<double, LayoutRight>(kN, kN, 17);
  auto B = random_matrix<double, LayoutRight>(kN, kN, 18);
  View2<double, LayoutRight> C_serial(kN, kN);
  View2<double, LayoutRight> C_threads(kN, kN);
  SerialSpace serial;
  ThreadsSpace threads(4);
  gemm_tiled<double>(serial, A, B, C_serial);
  gemm_tiled<double>(threads, A, B, C_threads);
  EXPECT_EQ(max_abs_diff(C_serial, C_threads), 0.0);
}

/// Both drivers, over every space and every mc, reproduce
/// gemm_tiled(Threads, TileConfig{})'s bits on one operand pair.
template <class Acc, class LC, class VA, class VB>
void expect_row_blocking_invariant(const VA& A, const VB& B) {
  const std::size_t m = A.extent(0), k = A.extent(1), n = B.extent(1);
  SerialSpace serial;
  ThreadsSpace threads(4);
  View2<Acc, LC> C_default(m, n);
  gemm_tiled<Acc>(threads, A, B, C_default, TileConfig{});
  const auto same_bits = [&](const View2<Acc, LC>& C) {
    return std::memcmp(C.data(), C_default.data(), m * n * sizeof(Acc)) == 0;
  };
  for (const std::size_t mc : {6u, 16u, 64u, 256u}) {
    const TileConfig cfg{mc};
    View2<Acc, LC> C_serial(m, n);
    gemm_tiled<Acc>(serial, A, B, C_serial, cfg);
    EXPECT_TRUE(same_bits(C_serial)) << "gemm_tiled(SerialSpace), mc " << mc;

    View2<Acc, LC> C_threads(m, n);
    gemm_tiled<Acc>(threads, A, B, C_threads, cfg);
    EXPECT_TRUE(same_bits(C_threads)) << "gemm_tiled(ThreadsSpace), mc " << mc;

    View2<Acc, LC> C_scratch(m, n);
    std::vector<std::byte> scratch(gemm_tiled_scratch_bytes<Acc>(m, n, k, cfg));
    gemm_tiled_serial_scratch<Acc>(A, B, C_scratch, scratch, cfg);
    EXPECT_TRUE(same_bits(C_scratch)) << "gemm_tiled_serial_scratch, mc " << mc;
  }
}

TEST(TiledGemm, RowBlockingNeverChangesBits) {
  // mc only regroups rows into parallel/serial units; each C(i,j) keeps
  // its KC-block accumulation order, so every mc must reproduce
  // TileConfig{}'s bits on every entry point, on each packing path: raw
  // row-major FP64 and half (the batched convert_n path) and LayoutLeft
  // FP64 (the per-element path).  m is ragged against every mc swept, mc
  // 6 is not a multiple of kMR, and k crosses a KC panel.
  constexpr std::size_t m = 147, k = 300, n = 31;
  {
    SCOPED_TRACE("double, LayoutRight");
    const auto A = random_matrix<double, LayoutRight>(m, k, 21);
    const auto B = random_matrix<double, LayoutRight>(k, n, 22);
    expect_row_blocking_invariant<double, LayoutRight>(A, B);
  }
  {
    SCOPED_TRACE("half -> float, LayoutRight");
    const auto A = random_matrix<half, LayoutRight>(m, k, 23);
    const auto B = random_matrix<half, LayoutRight>(k, n, 24);
    expect_row_blocking_invariant<float, LayoutRight>(A, B);
  }
  {
    SCOPED_TRACE("double, LayoutLeft");
    const auto A = random_matrix<double, LayoutLeft>(m, k, 25);
    const auto B = random_matrix<double, LayoutLeft>(k, n, 26);
    expect_row_blocking_invariant<double, LayoutLeft>(A, B);
  }
}

TEST(TiledGemm, ShapeMismatchRejected) {
  View2<double, LayoutRight> A(4, 5);
  View2<double, LayoutRight> B(6, 4);  // inner dims disagree
  View2<double, LayoutRight> C(4, 4);
  SerialSpace space;
  EXPECT_THROW(gemm_tiled<double>(space, A, B, C), precondition_error);
  View2<double, LayoutRight> B_ok(5, 4);
  View2<double, LayoutRight> C_bad(4, 7);
  EXPECT_THROW(gemm_tiled<double>(space, A, B_ok, C_bad), precondition_error);
}

// ---- model frontend ------------------------------------------------------

TEST(OptimizedCppRunner, RunsAndVerifiesAllPrecisions) {
  auto runner = models::make_optimized_cpu_runner(perfmodel::Platform::kCrusherCpu);
  ASSERT_NE(runner, nullptr);
  EXPECT_EQ(runner->name(), "Optimized C++ (tiled)");
  for (Precision p : {Precision::kDouble, Precision::kSingle, Precision::kHalfIn}) {
    models::RunConfig cfg;
    cfg.n = 96;
    cfg.host_threads = 2;
    cfg.precision = p;
    cfg.verify = true;
    const auto result = runner->run(cfg);
    EXPECT_TRUE(result.verified) << "precision " << static_cast<int>(p);
    EXPECT_GT(result.host_seconds, 0.0);
  }
}

TEST(OptimizedCppRunner, GpuPlatformsHaveNoHostCeiling) {
  EXPECT_EQ(models::make_optimized_cpu_runner(perfmodel::Platform::kCrusherGpu), nullptr);
}

}  // namespace
}  // namespace portabench::gemm
