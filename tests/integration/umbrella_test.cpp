// Compile-and-smoke test for the umbrella header: everything a downstream
// user reaches through <portabench.hpp> is available and coherent.
#include "portabench.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, EndToEndThroughPublicApi) {
  using namespace portabench;

  // Host runtime.
  simrt::ThreadsSpace space(2);
  simrt::View2<double, simrt::LayoutRight> a(8, 8);
  simrt::View2<double, simrt::LayoutRight> b(8, 8);
  simrt::View2<double, simrt::LayoutRight> c(8, 8);
  Xoshiro256 rng(1);
  fill_uniform(std::span<double>(a.data(), 64), rng);
  fill_uniform(std::span<double>(b.data(), 64), rng);
  gemm::gemm_openmp_style<double>(space, a, b, c);
  EXPECT_GT(gemm::checksum(c), 0.0);

  // Reduction through the op form.
  const double sum = simrt::parallel_reduce(
      space, simrt::RangePolicy(0, 64), simrt::SumOp<double>{},
      [&](std::size_t i, double& acc) { acc += c.data()[i]; });
  EXPECT_NEAR(sum, gemm::checksum(c), 1e-9);

  // Device simulator.
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());
  gpusim::DeviceBuffer<double> buf(ctx, 64);
  EXPECT_EQ(ctx.bytes_in_use(), 64 * sizeof(double));

  // Performance model + metric.
  const auto pt =
      perfmodel::predict(perfmodel::Platform::kWombatGpu, perfmodel::Family::kJulia,
                         Precision::kDouble, 8192);
  ASSERT_TRUE(pt);
  EXPECT_NEAR(pt->efficiency, 0.867, 0.01);

  // Frontend.
  auto runner = models::make_runner(perfmodel::Platform::kCrusherCpu,
                                    perfmodel::Family::kJulia);
  models::RunConfig config;
  config.n = 16;
  EXPECT_TRUE(runner->run(config).verified);
}

}  // namespace
