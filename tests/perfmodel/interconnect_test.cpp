// Tests for the interconnect / end-to-end transfer model.
#include "perfmodel/interconnect.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace portabench::perfmodel {
namespace {

using gpusim::LinkModel;
using gpusim::TopologyConfig;

TEST(LinkModel, TransferTimeIsLatencyPlusBandwidth) {
  const LinkModel link{10.0, 100.0};
  // 10 GB at 10 GB/s = 1 s, plus 100 us latency.
  EXPECT_NEAR(link.seconds(10.0e9), 1.0001, 1e-9);
  // Zero bytes still pays latency.
  EXPECT_NEAR(link.seconds(0.0), 1.0e-4, 1e-12);
}

TEST(LinkModel, CrusherHostLinkFasterThanWombat) {
  EXPECT_GT(TopologyConfig::crusher_node().h2d_local.bw_gbs,
            TopologyConfig::wombat_node().h2d_local.bw_gbs);
}

class EndToEndTest : public ::testing::Test {
 protected:
  GpuMachineModel model_{GpuPerfSpec::a100()};
  LinkModel link_ = TopologyConfig::wombat_node().h2d_local;
};

TEST_F(EndToEndTest, SerialIsSumOfStages) {
  const auto t = end_to_end_gemm(model_, link_, Precision::kDouble, 4096, 1);
  EXPECT_NEAR(t.serial_s, t.h2d_s + t.kernel_s + t.d2h_s, 1e-12);
}

TEST_F(EndToEndTest, OverlapNeverWorseThanSerial) {
  for (std::size_t n : {1024u, 4096u, 8192u}) {
    for (std::size_t batches : {1u, 2u, 8u, 32u}) {
      const auto t = end_to_end_gemm(model_, link_, Precision::kDouble, n, batches);
      EXPECT_LE(t.overlapped_s, t.serial_s + 1e-12) << n << "x" << batches;
      EXPECT_GE(t.overlapped_s, t.kernel_s);  // can't beat pure compute
    }
  }
}

TEST_F(EndToEndTest, LargeGemmIsKernelDominated) {
  // The paper's single-kernel protocol: at large n the kernel dwarfs the
  // transfers, so excluding them (Section IV) is benign.  O(n^3) compute
  // vs O(n^2) movement: the ratio grows linearly in n.
  const auto t8k = end_to_end_gemm(model_, link_, Precision::kDouble, 8192, 1);
  EXPECT_GT(t8k.kernel_s, 3.0 * (t8k.h2d_s + t8k.d2h_s));
  const auto t20k = end_to_end_gemm(model_, link_, Precision::kDouble, 20480, 1);
  EXPECT_GT(t20k.kernel_s, 8.0 * (t20k.h2d_s + t20k.d2h_s));
}

TEST_F(EndToEndTest, SmallGemmIsTransferDominated) {
  const auto t = end_to_end_gemm(model_, link_, Precision::kDouble, 512, 1);
  EXPECT_GT(t.h2d_s + t.d2h_s, t.kernel_s);
}

TEST_F(EndToEndTest, BatchedOverlapApproachesBottleneck) {
  // With many batches the makespan per batch approaches the slowest
  // stage.
  const std::size_t n = 2048;
  const auto t = end_to_end_gemm(model_, link_, Precision::kDouble, n, 64);
  const double per_batch = t.overlapped_s / 64.0;
  const double bottleneck = std::max({t.kernel_s, t.h2d_s, t.d2h_s});
  EXPECT_NEAR(per_batch, bottleneck, 0.1 * bottleneck);
}

TEST_F(EndToEndTest, InvalidArgsRejected) {
  EXPECT_THROW(end_to_end_gemm(model_, link_, Precision::kDouble, 0, 1), precondition_error);
  EXPECT_THROW(end_to_end_gemm(model_, link_, Precision::kDouble, 128, 0), precondition_error);
}

}  // namespace
}  // namespace portabench::perfmodel
