// Soak tier: stream >= 100k small mixed jobs through one ServeEngine and
// hold it to the zero-steady-state-allocation contract — after a warmup
// that sizes every shard's arena for the worst-case batch, the high-water
// mark and grow-event count must stay exactly flat for every wave of the
// soak.  Registered three times under `ctest -L soak`, each run under a
// different portacheck permutation seed (PORTABENCH_CHECK_SEED=1..3), so
// the whole soak also executes under the sanitizer's permuted serial
// schedule.
//
// A systematic 1-in-97 sample of the trace is bitwise-verified against
// serve::run_serial; verifying all 100k serially would double the
// runtime without adding coverage (every (kind, frontend, precision)
// shape recurs thousands of times).
#include <gtest/gtest.h>

#include <vector>

#include "serve/engine.hpp"
#include "serve/serial.hpp"
#include "serve/trace.hpp"

namespace portabench::serve {
namespace {

constexpr std::size_t kTotalJobs = 100'000;
constexpr std::size_t kWaveJobs = 10'000;
constexpr std::size_t kVerifyStride = 97;
constexpr std::uint32_t kMaxN = 16;  // small mixed jobs: the serving regime

TEST(ServeSoakTest, ArenaHighWaterIsFlatAfterWarmup) {
  ServeConfig cfg;
  cfg.shards = 4;
  cfg.batch_jobs = 32;

  std::vector<double> checksums(kTotalJobs, 0.0);
  std::vector<unsigned char> done(kTotalJobs, 0);
  cfg.on_complete = [&](const JobResult& r) {
    if (r.id < kTotalJobs) {  // warmup ids live above the trace range
      checksums[r.id] = r.checksum;
      done[r.id] = 1;
    }
  };
  ServeEngine engine(cfg);

  const auto submit = [&](const JobDesc& d) {
    while (engine.try_submit(d) == AdmitError::kQueueFull) {
    }
  };

  // Warmup: one full batch of byte-maximal jobs (FP64 GEMM at the trace's
  // size cap dominates job_bytes for every supported kind at n <= kMaxN)
  // per shard, so each arena slab reaches its worst-case batch footprint
  // up front.  Consecutive ids round-robin the shards.
  const std::size_t warm_jobs = cfg.shards * cfg.batch_jobs;
  for (std::size_t i = 0; i < warm_jobs; ++i) {
    JobDesc d;
    d.id = kTotalJobs + i;
    d.kind = JobKind::kGemm;
    d.frontend = Frontend::kTiled;
    d.precision = Precision::kDouble;
    d.n = kMaxN;
    d.seed = 0xA5A5ull + i;
    submit(d);
  }
  engine.drain();
  const ServeStats warm = engine.stats();
  ASSERT_EQ(warm.completed, warm_jobs);
  ASSERT_GT(warm.arena_high_water, 0u);

  // Soak: every batch is <= batch_jobs jobs of <= the warmed-up byte
  // size, so the slabs must already fit — exactly zero growth allowed.
  TraceConfig tcfg;
  tcfg.seed = 404;
  tcfg.min_n = 4;
  tcfg.max_n = kMaxN;
  TraceGen gen(tcfg);
  std::vector<JobDesc> trace;
  trace.reserve(kTotalJobs);

  std::size_t streamed = 0;
  while (streamed < kTotalJobs) {
    for (std::size_t i = 0; i < kWaveJobs; ++i) {
      const JobDesc d = gen.next();
      trace.push_back(d);
      submit(d);
    }
    engine.drain();
    streamed += kWaveJobs;
    const ServeStats st = engine.stats();
    ASSERT_EQ(st.arena_high_water, warm.arena_high_water)
        << "arena grew after warmup at " << streamed << " jobs";
    ASSERT_EQ(st.arena_grow_events, warm.arena_grow_events)
        << "slab reallocation after warmup at " << streamed << " jobs";
  }

  const ServeStats st = engine.stats();
  EXPECT_EQ(st.accepted, kTotalJobs + warm_jobs);
  EXPECT_EQ(st.completed, kTotalJobs + warm_jobs);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.batch_errors, 0u);

  // Systematic bitwise sample against the serial oracle.
  std::size_t verified = 0;
  for (std::size_t i = 0; i < kTotalJobs; i += kVerifyStride) {
    ASSERT_EQ(done[i], 1u) << "job " << i << " never completed";
    const JobResult oracle = run_serial(trace[i]);
    ASSERT_EQ(checksums[i], oracle.checksum)
        << name(trace[i].kind) << "/" << name(trace[i].frontend)
        << " n=" << trace[i].n;
    ++verified;
  }
  EXPECT_GE(verified, kTotalJobs / kVerifyStride);
}

}  // namespace
}  // namespace portabench::serve
