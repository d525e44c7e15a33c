// The sanitizer's end-to-end contract, both directions:
//
//   1. The kernel zoo (GEMM, SpMV, stencil — host and device shapes) is
//      race- and bounds-clean under shadow instrumentation and produces
//      correct results under every permutation-scheduler seed; reductions
//      stay bitwise-identical across seeds.
//   2. The intentionally defective fixture kernels are caught, with the
//      offending array named and the conflicting cell identified.
//
// Runs in the default tier with seed 1; the `sanitized` ctest tier reruns
// it (and the kernel suites) under PORTABENCH_CHECK_SEED = 1, 2, 3.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gemm/kernels_cpu.hpp"
#include "gemm/kernels_gpu.hpp"
#include "gemm/kernels_tiled.hpp"
#include "gemm/reference.hpp"
#include "gemm/validate.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/memory.hpp"
#include "portacheck/fixtures.hpp"
#include "portacheck/portacheck.hpp"
#include "simrt/mdarray.hpp"
#include "simrt/parallel.hpp"
#include "spmv/kernels.hpp"
#include "spmv/sparse.hpp"
#include "stencil/kernels.hpp"

namespace portabench {
namespace {

namespace pc = portacheck;

/// Scheduler seed for this process: the sanitized ctest tier sets
/// PORTABENCH_CHECK_SEED to 1/2/3; the default tier runs with seed 1.
std::uint64_t test_seed() {
  const char* env = std::getenv("PORTABENCH_CHECK_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return 1;
}

template <class T, class Layout>
simrt::View2<T, Layout> random_matrix(std::size_t rows, std::size_t cols,
                                      std::uint64_t seed) {
  simrt::View2<T, Layout> v(rows, cols);
  Xoshiro256 rng(seed);
  fill_uniform(std::span<T>(v.data(), rows * cols), rng);
  return v;
}

// --- CPU GEMM frontends over shadow views ----------------------------------

template <class Layout, class Kernel>
void check_cpu_gemm_clean(Kernel&& kernel) {
  pc::ScopedCheck check(test_seed());
  const std::size_t n = 24;
  auto A = random_matrix<double, Layout>(n, n, 11);
  auto B = random_matrix<double, Layout>(n, n, 12);
  simrt::View2<double, Layout> C(n, n);

  simrt::ThreadsSpace space(4);
  pc::ShadowView2<double, Layout> sA(A, "A");
  pc::ShadowView2<double, Layout> sB(B, "B");
  pc::ShadowView2<double, Layout> sC(C, "C");
  kernel(space, sA, sB, sC);

  EXPECT_GT(sC.log().accesses(), 0u);
  simrt::View2<double, Layout> C_ref(n, n);
  gemm::reference_gemm<double>(A, B, C_ref);
  EXPECT_LE(gemm::max_abs_diff(C, C_ref), 1e-11);
}

TEST(SanitizedGemmCpu, OpenMPStyleClean) {
  check_cpu_gemm_clean<simrt::LayoutRight>([](auto& s, auto& A, auto& B, auto& C) {
    gemm::gemm_openmp_style<double>(s, A, B, C);
  });
}

TEST(SanitizedGemmCpu, KokkosStyleClean) {
  check_cpu_gemm_clean<simrt::LayoutRight>([](auto& s, auto& A, auto& B, auto& C) {
    gemm::gemm_kokkos_style<double>(s, A, B, C);
  });
}

TEST(SanitizedGemmCpu, JuliaStyleCleanBothBoundsModes) {
  check_cpu_gemm_clean<simrt::LayoutLeft>([](auto& s, auto& A, auto& B, auto& C) {
    gemm::gemm_julia_style<double>(s, A, B, C, /*inbounds=*/true);
  });
  check_cpu_gemm_clean<simrt::LayoutLeft>([](auto& s, auto& A, auto& B, auto& C) {
    gemm::gemm_julia_style<double>(s, A, B, C, /*inbounds=*/false);
  });
}

TEST(SanitizedGemmCpu, NumbaStyleClean) {
  check_cpu_gemm_clean<simrt::LayoutRight>([](auto& s, auto& A, auto& B, auto& C) {
    gemm::gemm_numba_style<double>(s, A, B, C);
  });
}

TEST(SanitizedGemmCpu, TeamStyleClean) {
  check_cpu_gemm_clean<simrt::LayoutRight>([](auto& s, auto& A, auto& B, auto& C) {
    gemm::gemm_team_style<double>(s, A, B, C, /*team_size=*/4);
  });
}

TEST(SanitizedGemmCpu, TiledClean) {
  // Shadow views expose no raw rows, so both operands take the
  // per-element packing path and every C write is logged.
  check_cpu_gemm_clean<simrt::LayoutRight>([](auto& s, auto& A, auto& B, auto& C) {
    gemm::gemm_tiled<double>(s, A, B, C);
  });
}

// --- GPU GEMM frontends over shadow device buffers -------------------------

/// Row-major host reference for the flat device layouts.
std::vector<double> flat_gemm_reference(const std::vector<double>& A,
                                        const std::vector<double>& B, std::size_t m,
                                        std::size_t n, std::size_t k, bool column_major) {
  std::vector<double> C(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t l = 0; l < k; ++l) {
        sum += column_major ? A[i + l * m] * B[l + j * k] : A[i * k + l] * B[l * n + j];
      }
      C[column_major ? i + j * m : i * n + j] = sum;
    }
  }
  return C;
}

template <class Kernel>
void check_gpu_gemm_clean(bool column_major, Kernel&& kernel) {
  pc::ScopedCheck check(test_seed());
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  // n = 20 with 8x8 blocks: partial edge blocks exercise the guards.
  const std::size_t n = 20;
  std::vector<double> hA(n * n);
  std::vector<double> hB(n * n);
  Xoshiro256 rng(7);
  fill_uniform(std::span<double>(hA), rng);
  fill_uniform(std::span<double>(hB), rng);

  gpusim::DeviceBuffer<double> dA(ctx, n * n);
  gpusim::DeviceBuffer<double> dB(ctx, n * n);
  gpusim::DeviceBuffer<double> dC(ctx, n * n);
  dA.copy_from_host(hA);
  dB.copy_from_host(hB);

  pc::ShadowDeviceBuffer<double> sA(dA, "dA");
  pc::ShadowDeviceBuffer<double> sB(dB, "dB");
  pc::ShadowDeviceBuffer<double> sC(dC, "dC");
  gemm::GpuLaunchConfig cfg{.block = {8, 8, 1}};
  kernel(ctx, cfg, sA, sB, sC, n);

  std::vector<double> hC(n * n);
  dC.copy_to_host(hC);
  const auto ref = flat_gemm_reference(hA, hB, n, n, n, column_major);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_NEAR(hC[i], ref[i], 1e-11) << i;
  EXPECT_GT(sC.log().accesses(), 0u);
}

TEST(SanitizedGemmGpu, CudaStyleClean) {
  check_gpu_gemm_clean(false, [](auto& ctx, const auto& cfg, auto& A, auto& B, auto& C,
                                 std::size_t n) {
    gemm::gemm_cuda_style<double>(ctx, cfg, A, B, C, n, n, n);
  });
}

TEST(SanitizedGemmGpu, KokkosGpuStyleClean) {
  check_gpu_gemm_clean(false, [](auto& ctx, const auto& cfg, auto& A, auto& B, auto& C,
                                 std::size_t n) {
    gemm::gemm_kokkos_gpu_style<double>(ctx, cfg, A, B, C, n, n, n);
  });
}

TEST(SanitizedGemmGpu, JuliaGpuStyleClean) {
  check_gpu_gemm_clean(true, [](auto& ctx, const auto& cfg, auto& A, auto& B, auto& C,
                                std::size_t n) {
    gemm::gemm_julia_gpu_style<double>(ctx, cfg, A, B, C, n, n, n);
  });
}

TEST(SanitizedGemmGpu, NumbaCudaStyleClean) {
  check_gpu_gemm_clean(false, [](auto& ctx, const auto& cfg, auto& A, auto& B, auto& C,
                                 std::size_t n) {
    gemm::gemm_numba_cuda_style<double>(ctx, cfg, A, B, C, n, n, n);
  });
}

TEST(SanitizedGemmGpu, TiledSharedClean) {
  // Cooperative kernel: for_lanes barriers open fresh epochs, so the
  // cross-phase reuse of the shared tiles must not be flagged.
  check_gpu_gemm_clean(false, [](auto& ctx, const auto& cfg, auto& A, auto& B, auto& C,
                                 std::size_t n) {
    gemm::gemm_tiled_shared<double>(ctx, cfg, A, B, C, n, n, n);
  });
}

// --- SpMV frontends --------------------------------------------------------

TEST(SanitizedSpmv, CsrRowParallelClean) {
  pc::ScopedCheck check(test_seed());
  const auto A = spmv::random_csr<double>(64, 64, 8, 42);
  simrt::View1<double> x(64);
  simrt::View1<double> y(64);
  Xoshiro256 rng(3);
  fill_uniform(x.span(), rng);
  std::vector<double> y_ref(64);
  spmv::spmv_reference<double>(A, std::span<const double>(x.data(), 64),
                               std::span<double>(y_ref));

  simrt::ThreadsSpace space(4);
  pc::ShadowView1<double> sx(x, "x");
  pc::ShadowView1<double> sy(y, "y");
  spmv::spmv_csr_row_parallel<double>(space, A, sx, sy);

  // Row-parallel keeps each row's entry order: bitwise-equal to serial.
  for (std::size_t r = 0; r < 64; ++r) EXPECT_EQ(y(r), y_ref[r]) << r;
}

TEST(SanitizedSpmv, CscColumnParallelClean) {
  pc::ScopedCheck check(test_seed());
  const auto csr = spmv::random_csr<double>(48, 48, 6, 17);
  const auto csc = spmv::csr_to_csc(csr);
  simrt::View1<double> x(48);
  simrt::View1<double> y(48);
  Xoshiro256 rng(4);
  fill_uniform(x.span(), rng);
  std::vector<double> y_ref(48);
  spmv::spmv_reference<double>(csr, std::span<const double>(x.data(), 48),
                               std::span<double>(y_ref));

  simrt::ThreadsSpace space(4);
  pc::ShadowView1<double> sx(x, "x");
  pc::ShadowView1<double> sy(y, "y");
  spmv::spmv_csc_column_parallel<double>(space, csc, sx, sy);

  for (std::size_t r = 0; r < 48; ++r) EXPECT_NEAR(y(r), y_ref[r], 1e-12) << r;
}

TEST(SanitizedSpmv, GpuScalarAndVectorClean) {
  pc::ScopedCheck check(test_seed());
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const auto A = spmv::random_csr<double>(100, 100, 10, 23);
  std::vector<double> hx(100);
  Xoshiro256 rng(5);
  fill_uniform(std::span<double>(hx), rng);
  std::vector<double> y_ref(100);
  spmv::spmv_reference<double>(A, std::span<const double>(hx), std::span<double>(y_ref));

  gpusim::DeviceBuffer<double> dx(ctx, 100);
  gpusim::DeviceBuffer<double> dy(ctx, 100);
  dx.copy_from_host(hx);
  pc::ShadowDeviceBuffer<double> sx(dx, "x");
  pc::ShadowDeviceBuffer<double> sy(dy, "y");

  spmv::spmv_gpu_scalar<double>(ctx, A, sx, sy);
  std::vector<double> hy(100);
  dy.copy_to_host(hy);
  for (std::size_t r = 0; r < 100; ++r) EXPECT_EQ(hy[r], y_ref[r]) << "scalar row " << r;

  dy.zero();
  spmv::spmv_gpu_vector<double>(ctx, A, sx, sy);
  dy.copy_to_host(hy);
  for (std::size_t r = 0; r < 100; ++r) {
    EXPECT_NEAR(hy[r], y_ref[r], 1e-12) << "vector row " << r;
  }
}

// --- Stencil sweeps --------------------------------------------------------

TEST(SanitizedStencil, MdrangeSweepClean) {
  pc::ScopedCheck check(test_seed());
  const std::size_t rows = 33, cols = 29;
  auto in = random_matrix<double, simrt::LayoutRight>(rows, cols, 9);
  simrt::View2<double> out(rows, cols);
  simrt::View2<double> out_ref(rows, cols);
  stencil::sweep_serial(in, out_ref);

  simrt::ThreadsSpace space(4);
  pc::ShadowView2<double> sin(in, "in");
  pc::ShadowView2<double> sout(out, "out");
  stencil::sweep_mdrange(space, sin, sout);

  EXPECT_EQ(gemm::max_abs_diff(out, out_ref), 0.0);
}

TEST(SanitizedStencil, GpuSweepsClean) {
  pc::ScopedCheck check(test_seed());
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const std::size_t rows = 35, cols = 27;
  std::vector<double> host(rows * cols);
  Xoshiro256 rng(13);
  fill_uniform(std::span<double>(host), rng);

  simrt::View2<double> in_v(rows, cols);
  simrt::View2<double> ref_v(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) in_v(i, j) = host[i * cols + j];
  }
  stencil::sweep_serial(in_v, ref_v);

  gpusim::DeviceBuffer<double> din(ctx, rows * cols);
  gpusim::DeviceBuffer<double> dout(ctx, rows * cols);
  din.copy_from_host(host);
  pc::ShadowDeviceBuffer<double> sin(din, "in");
  pc::ShadowDeviceBuffer<double> sout(dout, "out");

  stencil::sweep_gpu_naive(ctx, sin, sout, rows, cols);
  std::vector<double> back(rows * cols);
  dout.copy_to_host(back);
  for (std::size_t i = 1; i + 1 < rows; ++i) {
    for (std::size_t j = 1; j + 1 < cols; ++j) {
      EXPECT_EQ(back[i * cols + j], ref_v(i, j)) << "naive (" << i << ", " << j << ")";
    }
  }

  dout.zero();
  stencil::sweep_gpu_tiled(ctx, sin, sout, rows, cols, /*tile=*/8);
  dout.copy_to_host(back);
  for (std::size_t i = 1; i + 1 < rows; ++i) {
    for (std::size_t j = 1; j + 1 < cols; ++j) {
      EXPECT_EQ(back[i * cols + j], ref_v(i, j)) << "tiled (" << i << ", " << j << ")";
    }
  }
}

// --- Order-independence: results must not depend on the schedule seed ------

TEST(SanitizedDeterminism, GemmChecksumBitwiseIdenticalAcrossSeeds) {
  const std::size_t n = 32;
  auto A = random_matrix<float, simrt::LayoutRight>(n, n, 21);
  auto B = random_matrix<float, simrt::LayoutRight>(n, n, 22);

  std::vector<double> sums;
  for (std::uint64_t seed : {0ull, 1ull, 2ull, 3ull}) {
    pc::ScopedCheck check(seed);
    simrt::View2<float> C(n, n);
    simrt::ThreadsSpace space(3);
    pc::ShadowView2<float> sA(A, "A");
    pc::ShadowView2<float> sB(B, "B");
    pc::ShadowView2<float> sC(C, "C");
    gemm::gemm_openmp_style<float>(space, sA, sB, sC);
    sums.push_back(gemm::checksum(C));
  }
  for (std::size_t i = 1; i < sums.size(); ++i) EXPECT_EQ(sums[0], sums[i]);
}

TEST(SanitizedDeterminism, ParallelReduceBitwiseIdenticalAcrossSeeds) {
  // The permuted scheduler reassigns blocks to threads but must preserve
  // each block's fold order and the block-ordered join: the fp sum and a
  // max come out identical across seeds, and a non-commutative affine
  // composition equals the serial left fold.
  constexpr std::size_t kN = 10'000;
  const simrt::MaxOp<double> max;
  const simrt::AffineComposeOp<long> compose;
  // Multipliers of +-1 keep the composed coefficients small (no overflow).
  const auto affine = [](std::size_t i) {
    return simrt::Affine<long>{i % 3 == 0 ? -1L : 1L, static_cast<long>(i % 7) - 3};
  };
  simrt::Affine<long> left_fold = compose.identity();
  for (std::size_t i = 0; i < kN; ++i) left_fold = compose(left_fold, affine(i));

  std::vector<double> sums;
  std::vector<double> maxes;
  for (std::uint64_t seed : {0ull, 1ull, 5ull, 99ull}) {
    pc::ScopedCheck check(seed);
    simrt::ThreadsSpace space(4);
    double sum = 0.0;
    simrt::parallel_reduce(space, simrt::RangePolicy(0, kN),
                           [](std::size_t i, double& acc) {
                             acc += 1.0 / static_cast<double>(i + 1);
                           },
                           sum);
    sums.push_back(sum);
    maxes.push_back(simrt::parallel_reduce(
        space, simrt::RangePolicy(0, kN), max, [&](std::size_t i, double& acc) {
          acc = max(acc, std::sin(static_cast<double>(i)));
        }));
    const simrt::Affine<long> composed = simrt::parallel_reduce(
        space, simrt::RangePolicy(0, kN), compose,
        [&](std::size_t i, simrt::Affine<long>& acc) { acc = compose(acc, affine(i)); });
    EXPECT_TRUE(composed == left_fold) << "seed " << seed;
  }
  for (std::size_t i = 1; i < sums.size(); ++i) {
    EXPECT_EQ(sums[0], sums[i]);
    EXPECT_EQ(maxes[0], maxes[i]);
  }
}

// --- Negative controls: the defective fixtures must be caught --------------

TEST(RacyFixtures, HistogramRaceCaughtSerially) {
  // Schedule-independence: the logical race is flagged even under the
  // serial space, where the accesses never actually interleave.
  pc::ScopedCheck check(test_seed());
  simrt::View1<int> bins(8);
  pc::ShadowView1<int> sbins(bins, "bins");
  simrt::SerialSpace space;
  try {
    pc::fixtures::racy_histogram(space, sbins, 64);
    FAIL() << "expected race_error";
  } catch (const pc::race_error& e) {
    EXPECT_EQ(e.array(), "bins");
    EXPECT_LT(e.indices()[0], 8u);
    EXPECT_NE(e.lane_a(), e.lane_b());
    const std::string what = e.what();
    EXPECT_NE(what.find("bins"), std::string::npos);
    EXPECT_NE(what.find("race"), std::string::npos);
  }
}

TEST(RacyFixtures, HistogramRaceCaughtThreaded) {
  pc::ScopedCheck check(test_seed());
  simrt::View1<int> bins(4);
  pc::ShadowView1<int> sbins(bins, "bins");
  simrt::ThreadsSpace space(4);
  EXPECT_THROW(pc::fixtures::racy_histogram(space, sbins, 64), pc::race_error);
}

TEST(RacyFixtures, InPlaceStencilRaceCaught) {
  pc::ScopedCheck check(test_seed());
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const std::size_t rows = 16, cols = 16;
  gpusim::DeviceBuffer<double> buf(ctx, rows * cols);
  std::vector<double> host(rows * cols, 1.0);
  buf.copy_from_host(host);
  pc::ShadowDeviceBuffer<double> grid(buf, "grid");
  try {
    pc::fixtures::racy_inplace_stencil(ctx, grid, rows, cols);
    FAIL() << "expected race_error";
  } catch (const pc::race_error& e) {
    EXPECT_EQ(e.array(), "grid");
    EXPECT_LT(e.indices()[0], rows * cols);
  }
}

TEST(RacyFixtures, UnguardedGemmBoundsCaught) {
  pc::ScopedCheck check(test_seed());
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  const std::size_t n = 20;  // 16x16 blocks over-cover a 20x20 output
  gpusim::DeviceBuffer<double> dA(ctx, n * n);
  gpusim::DeviceBuffer<double> dB(ctx, n * n);
  gpusim::DeviceBuffer<double> dC(ctx, n * n);
  pc::ShadowDeviceBuffer<double> sA(dA, "A");
  pc::ShadowDeviceBuffer<double> sB(dB, "B");
  pc::ShadowDeviceBuffer<double> sC(dC, "C");
  const gpusim::Dim3 block{16, 16, 1};
  const gpusim::Dim3 grid{gpusim::blocks_for(n, block.x), gpusim::blocks_for(n, block.y), 1};
  try {
    pc::fixtures::unguarded_gemm<double>(ctx, grid, block, sA, sB, sC, n, n, n);
    FAIL() << "expected bounds_error";
  } catch (const pc::bounds_error& e) {
    EXPECT_GE(e.indices()[0], n * n);  // past the allocation
    EXPECT_EQ(e.extents()[0], n * n);
  }
}

}  // namespace
}  // namespace portabench
