// Tests for the stencil workload: grids, sweeps across substrates,
// convergence, and the roofline model.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "stencil/grid.hpp"
#include "stencil/kernels.hpp"
#include "stencil/model.hpp"

namespace portabench::stencil {
namespace {

TEST(Grid, GeometryAndBoundary) {
  Grid2D g(8, 10);
  EXPECT_EQ(g.rows(), 8u);
  EXPECT_EQ(g.cols(), 10u);
  g.set_hot_top(2.0);
  EXPECT_EQ(g.front()(0, 5), 2.0);
  EXPECT_EQ(g.back()(0, 5), 2.0);
  EXPECT_EQ(g.front()(1, 5), 0.0);
  EXPECT_THROW(Grid2D(2, 10), precondition_error);
}

TEST(Grid, SwapExchangesBuffers) {
  Grid2D g(4, 4);
  g.front()(1, 1) = 7.0;
  g.swap();
  EXPECT_EQ(g.back()(1, 1), 7.0);
  EXPECT_EQ(g.front()(1, 1), 0.0);
}

TEST(Residual, MaxNormOverInterior) {
  simrt::SerialSpace space;
  simrt::View2<double, simrt::LayoutRight> u(5, 5);
  simrt::View2<double, simrt::LayoutRight> v(5, 5);
  u(2, 3) = 1.0;
  v(2, 3) = -0.5;
  u(0, 0) = 100.0;  // boundary: ignored
  EXPECT_DOUBLE_EQ(residual_max(space, u, v), 1.5);
}

TEST(Residual, SimdPathMatchesScalarLoop) {
  // residual_max runs through simrt::simd_max_abs_diff; max has no
  // rounding, so the result must equal the plain sequential loop exactly
  // on every shape, including interiors narrower than a vector and grids
  // with no interior at all (residual 0).
  simrt::ThreadsSpace space(3);
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{3, 3},
                            {5, 4}, {17, 9}, {33, 70}, {2, 5}, {5, 2}, {0, 5}}) {
    simrt::View2<double, simrt::LayoutRight> u(rows, cols);
    simrt::View2<double, simrt::LayoutRight> v(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        u(i, j) = static_cast<double>((i * 31 + j * 7) % 100) / 99.0;
        v(i, j) = static_cast<double>((i * 13 + j * 17) % 100) / 99.0;
      }
    }
    double ref = 0.0;
    for (std::size_t i = 1; i + 1 < rows; ++i) {
      for (std::size_t j = 1; j + 1 < cols; ++j) {
        const double d = std::abs(u(i, j) - v(i, j));
        ref = ref < d ? d : ref;
      }
    }
    EXPECT_EQ(residual_max(space, u, v), ref) << rows << "x" << cols;
    EXPECT_EQ(residual_max(simrt::SerialSpace{}, u, v), ref) << rows << "x" << cols;
  }
}

class SweepEquivalence : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(SweepEquivalence, MdrangeMatchesSerial) {
  const auto [rows, cols] = GetParam();
  Grid2D serial(rows, cols);
  Grid2D parallel(rows, cols);
  serial.set_hot_top(1.0);
  parallel.set_hot_top(1.0);
  simrt::ThreadsSpace threads(4);
  for (int sweep = 0; sweep < 7; ++sweep) {
    sweep_serial(serial.front(), serial.back());
    serial.swap();
    sweep_mdrange(threads, parallel.front(), parallel.back());
    parallel.swap();
  }
  EXPECT_DOUBLE_EQ(parallel.interior_sum(), serial.interior_sum());
}

TEST_P(SweepEquivalence, SimdMatchesSerialBitwise) {
  const auto [rows, cols] = GetParam();
  Grid2D serial(rows, cols);
  Grid2D simd(rows, cols);
  serial.set_hot_top(1.0);
  simd.set_hot_top(1.0);
  simrt::ThreadsSpace threads(4);
  for (int sweep = 0; sweep < 7; ++sweep) {
    sweep_serial(serial.front(), serial.back());
    serial.swap();
    sweep_simd(threads, simd.front(), simd.back());
    simd.swap();
  }
  // The explicit-SIMD sweep is bit-identical to the serial loop, not
  // merely close: same per-point expression, blocked only over j.
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      EXPECT_EQ(simd.front()(i, j), serial.front()(i, j)) << i << "," << j;
    }
  }
}

TEST_P(SweepEquivalence, GpuNaiveMatchesSerial) {
  const auto [rows, cols] = GetParam();
  Grid2D host(rows, cols);
  host.set_hot_top(1.0);
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());

  std::vector<double> in(rows * cols, 0.0);
  std::vector<double> out(rows * cols, 0.0);
  for (std::size_t j = 0; j < cols; ++j) in[j] = out[j] = 1.0;

  for (int sweep = 0; sweep < 5; ++sweep) {
    sweep_serial(host.front(), host.back());
    host.swap();
    sweep_gpu_naive(ctx, in.data(), out.data(), rows, cols);
    std::swap(in, out);
  }
  double device_sum = 0.0;
  for (std::size_t i = 1; i + 1 < rows; ++i) {
    for (std::size_t j = 1; j + 1 < cols; ++j) device_sum += in[i * cols + j];
  }
  EXPECT_DOUBLE_EQ(device_sum, host.interior_sum());
}

TEST_P(SweepEquivalence, GpuTiledMatchesNaive) {
  const auto [rows, cols] = GetParam();
  gpusim::DeviceContext ctx(gpusim::GpuSpec::mi250x_gcd());
  std::vector<double> field(rows * cols);
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<double>((i * 2654435761u) % 1000) / 1000.0;
  }
  std::vector<double> out_naive(rows * cols, -1.0);
  std::vector<double> out_tiled(rows * cols, -1.0);
  // Boundaries are not written by the kernels: preset identically.
  out_naive = field;
  out_tiled = field;
  sweep_gpu_naive(ctx, field.data(), out_naive.data(), rows, cols);
  sweep_gpu_tiled(ctx, field.data(), out_tiled.data(), rows, cols, 8);
  for (std::size_t i = 0; i < field.size(); ++i) {
    EXPECT_DOUBLE_EQ(out_tiled[i], out_naive[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SweepEquivalence,
                         ::testing::Values(std::tuple{8u, 8u}, std::tuple{17u, 33u},
                                           std::tuple{32u, 32u}, std::tuple{50u, 19u}));

TEST(Jacobi, ConvergesOnHotPlate) {
  simrt::ThreadsSpace space(4);
  Grid2D grid(24, 24);
  grid.set_hot_top(1.0);
  const std::size_t sweeps = solve_jacobi(space, grid, 1e-6, 5000);
  EXPECT_LT(sweeps, 5000u);  // converged before the cap
  EXPECT_GT(sweeps, 10u);    // but not instantly
  // Physical sanity: interior values between the boundary extremes.
  for (std::size_t i = 1; i + 1 < grid.rows(); ++i) {
    for (std::size_t j = 1; j + 1 < grid.cols(); ++j) {
      EXPECT_GT(grid.front()(i, j), 0.0);
      EXPECT_LT(grid.front()(i, j), 1.0);
    }
  }
  // Monotone in rows: closer to the hot edge is hotter.
  EXPECT_GT(grid.front()(1, 12), grid.front()(12, 12));
}

TEST(Jacobi, ToleranceControlsSweepCount) {
  simrt::ThreadsSpace space(2);
  Grid2D loose(16, 16);
  Grid2D tight(16, 16);
  loose.set_hot_top(1.0);
  tight.set_hot_top(1.0);
  const std::size_t loose_sweeps = solve_jacobi(space, loose, 1e-3, 10000);
  const std::size_t tight_sweeps = solve_jacobi(space, tight, 1e-8, 10000);
  EXPECT_LT(loose_sweeps, tight_sweeps);
}

TEST(StencilModel, AiBetweenSpmvAndGemm) {
  const auto p = predict_stencil_cpu(perfmodel::CpuSpec::epyc_7a53(), 4096, 4096);
  EXPECT_GT(p.arithmetic_intensity, 0.12);  // above SpMV
  EXPECT_LT(p.arithmetic_intensity, 1.0);   // below cached GEMM
  EXPECT_GT(p.sweeps_per_second, 0.0);
}

TEST(StencilModel, TilingPaysOnGpu) {
  const auto naive =
      predict_stencil_gpu(perfmodel::GpuPerfSpec::a100(), 8192, 8192, /*tiled=*/false);
  const auto tiled =
      predict_stencil_gpu(perfmodel::GpuPerfSpec::a100(), 8192, 8192, /*tiled=*/true);
  EXPECT_GT(tiled.gflops, naive.gflops);
  EXPECT_NEAR(tiled.gflops / naive.gflops, 1.6, 0.1);  // 3.2 -> 2.0 bytes/pt
}

TEST(StencilModel, MemoryBoundEverywhere) {
  for (std::size_t n : {1024u, 8192u}) {
    const auto cpu = predict_stencil_cpu(perfmodel::CpuSpec::ampere_altra(), n, n);
    EXPECT_LT(cpu.gflops,
              0.1 * perfmodel::CpuSpec::ampere_altra().peak_gflops(Precision::kDouble));
  }
}

TEST(StencilModel, PreconditionsEnforced) {
  EXPECT_THROW(predict_stencil_cpu(perfmodel::CpuSpec::epyc_7a53(), 2, 100),
               precondition_error);
}

}  // namespace
}  // namespace portabench::stencil
