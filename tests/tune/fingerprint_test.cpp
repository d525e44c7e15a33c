// Machine fingerprint: cpuinfo parsing, and a hash that is stable within
// a process and tells hosts with different core counts apart.
#include <gtest/gtest.h>

#include "tune/fingerprint.hpp"

namespace {

using namespace portabench::tune;

TEST(Fingerprint, CpuModelParsingAndHashStability) {
  EXPECT_EQ(cpu_model_from_cpuinfo("processor\t: 0\nmodel name\t: Test CPU X1\nflags: a"),
            "Test CPU X1");
  EXPECT_EQ(cpu_model_from_cpuinfo("no model line here"), "unknown-cpu");

  const MachineFingerprint fp = local_fingerprint();
  EXPECT_GT(fp.cores, 0u);
  EXPECT_FALSE(fp.simd_tier.empty());
  EXPECT_EQ(fingerprint_hash(fp), fingerprint_hash(local_fingerprint()));

  MachineFingerprint other = fp;
  other.cores = fp.cores + 1;
  EXPECT_NE(fingerprint_hash(fp), fingerprint_hash(other));
}

}  // namespace
