// The determinism contract under a consumer's own compiler flags.
//
// Much of the contract is header-only: run_serial, the tiled GEMM and the
// naive kernels compile in whichever translation unit includes them.
// This binary is built with -march=native where the compiler accepts it
// (hardware FMA on most x86-64 hosts; aarch64 has it in the baseline)
// and does not link portabench_warnings, so -ffp-contract=off reaches it
// only through portabench::common.  Without that flag the compiler may
// fuse a*b + c in this file's copy of run_serial, and the checksums the
// library serves stop matching it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "serve/engine.hpp"
#include "serve/serial.hpp"
#include "serve/trace.hpp"

namespace portabench::serve {
namespace {

TEST(ConsumerFlags, ServedChecksumsEqualRunSerial) {
  TraceConfig tcfg;
  tcfg.seed = 1;
  tcfg.max_n = 96;
  TraceGen gen(tcfg);
  std::vector<JobDesc> trace(2000);
  for (JobDesc& d : trace) d = gen.next();

  std::mutex mutex;
  std::map<std::uint64_t, double> served;
  ServeConfig cfg;
  cfg.on_complete = [&](const JobResult& r) {
    std::lock_guard<std::mutex> lock(mutex);
    served[r.id] = r.checksum;
  };
  ServeEngine engine(cfg);
  for (const JobDesc& d : trace) {
    AdmitError e = engine.try_submit(d);
    while (e == AdmitError::kQueueFull) e = engine.try_submit(d);
    ASSERT_EQ(e, AdmitError::kNone) << "job " << d.id << " rejected: " << name(e);
  }
  engine.drain();

  std::size_t mismatches = 0;
  for (const JobDesc& d : trace) {
    const auto it = served.find(d.id);
    ASSERT_NE(it, served.end()) << "job " << d.id << " never completed";
    if (it->second != run_serial(d).checksum) {
      if (mismatches == 0) {
        ADD_FAILURE() << "first mismatch: " << name(d.kind) << "/" << name(d.frontend)
                      << " n=" << d.n << " seed=" << d.seed;
      }
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << trace.size() << " served checksums";
}

}  // namespace
}  // namespace portabench::serve
