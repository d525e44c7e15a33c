// Negative-path admission: every malformed, unsupported, or over-limit
// request maps to a typed AdmitError — the serving layer never aborts on
// input.  Includes a seeded fuzz loop over arbitrary JobDesc bit
// patterns (garbage enum values included) and a queue-full storm, and
// checks the engine stays fully usable after each abuse.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "serve/engine.hpp"
#include "serve/serial.hpp"
#include "serve/trace.hpp"

namespace portabench::serve {
namespace {

JobDesc gemm_job(std::uint64_t id, std::uint32_t n) {
  JobDesc d;
  d.id = id;
  d.kind = JobKind::kGemm;
  d.frontend = Frontend::kTiled;
  d.precision = Precision::kDouble;
  d.n = n;
  d.seed = 0xD1CEull + id;
  return d;
}

TEST(ServeNegativeTest, ZeroSizeIsTypedReject) {
  ServeEngine engine;
  EXPECT_EQ(engine.try_submit(gemm_job(0, 0)), AdmitError::kZeroSize);
  const ServeStats st = engine.stats();
  EXPECT_EQ(st.rejected_total, 1u);
  EXPECT_EQ(st.rejected_by[static_cast<std::size_t>(AdmitError::kZeroSize)], 1u);
  EXPECT_EQ(st.accepted, 0u);
}

TEST(ServeNegativeTest, ZeroBatchJobsIsAPreconditionError) {
  EXPECT_EQ(ServeConfig{}.batch_jobs, kDefaultBatchJobs);
  ServeConfig cfg;
  cfg.batch_jobs = 0;
  EXPECT_THROW(ServeEngine{cfg}, precondition_error);
}

TEST(ServeNegativeTest, OversizeIsTypedReject) {
  ServeConfig cfg;
  cfg.max_n = 64;
  ServeEngine engine(cfg);
  EXPECT_EQ(engine.try_submit(gemm_job(0, 64)), AdmitError::kNone);
  EXPECT_EQ(engine.try_submit(gemm_job(1, 65)), AdmitError::kTooLarge);
  engine.drain();
  const ServeStats st = engine.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.rejected_by[static_cast<std::size_t>(AdmitError::kTooLarge)], 1u);
}

TEST(ServeNegativeTest, UnsupportedTriplesAreTypedRejects) {
  ServeEngine engine;
  const auto reject = [&](JobKind k, Frontend f, Precision p) {
    JobDesc d = gemm_job(0, 8);
    d.kind = k;
    d.frontend = f;
    d.precision = p;
    EXPECT_EQ(engine.try_submit(d), AdmitError::kUnsupported)
        << name(k) << "/" << name(f);
  };
  reject(JobKind::kSpmv, Frontend::kJulia, Precision::kDouble);
  reject(JobKind::kSpmv, Frontend::kTiled, Precision::kDouble);
  reject(JobKind::kSpmv, Frontend::kOpenMP, Precision::kHalfIn);
  reject(JobKind::kStencil, Frontend::kJulia, Precision::kDouble);
  reject(JobKind::kStencil, Frontend::kNumba, Precision::kDouble);
  reject(JobKind::kStencil, Frontend::kOpenMP, Precision::kSingle);
  reject(JobKind::kStencil, Frontend::kOpenMP, Precision::kHalfIn);
  EXPECT_EQ(engine.stats().rejected_by[static_cast<std::size_t>(AdmitError::kUnsupported)],
            7u);
}

TEST(ServeNegativeTest, QueueFullStormShedsAndRecovers) {
  ServeConfig cfg;
  cfg.shards = 1;
  cfg.queue_capacity = 4;
  cfg.batch_jobs = 1024;  // storm outruns the flush trigger immediately
  std::vector<JobResult> results;
  cfg.on_complete = [&](const JobResult& r) { results.push_back(r); };
  ServeEngine engine(cfg);

  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  for (std::uint64_t id = 0; id < 10'000; ++id) {
    const AdmitError e = engine.try_submit(gemm_job(id, 6));
    if (e == AdmitError::kNone) {
      ++accepted;
    } else {
      ASSERT_EQ(e, AdmitError::kQueueFull) << "id " << id;
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  engine.drain();

  ServeStats st = engine.stats();
  EXPECT_EQ(st.accepted, accepted);
  EXPECT_EQ(st.completed, accepted);
  EXPECT_EQ(st.rejected_by[static_cast<std::size_t>(AdmitError::kQueueFull)], shed);
  EXPECT_EQ(results.size(), accepted);

  // The storm is shed load, not damage: the engine keeps serving, and
  // results stay bitwise-identical to the serial oracle.
  const JobDesc after = gemm_job(20'000, 10);
  ASSERT_EQ(engine.try_submit(after), AdmitError::kNone);
  engine.drain();
  ASSERT_EQ(results.back().id, after.id);
  EXPECT_EQ(results.back().checksum, run_serial(after).checksum);
}

TEST(ServeNegativeTest, SubmitAfterShutdownIsTypedReject) {
  ServeEngine engine;
  ASSERT_EQ(engine.try_submit(gemm_job(0, 8)), AdmitError::kNone);
  engine.shutdown();
  EXPECT_EQ(engine.try_submit(gemm_job(1, 8)), AdmitError::kShutdown);
  const ServeStats st = engine.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.rejected_by[static_cast<std::size_t>(AdmitError::kShutdown)], 1u);
}

TEST(ServeNegativeTest, FuzzedDescsNeverAbortAndAcceptedOnesComplete) {
  ServeConfig cfg;
  cfg.shards = 3;
  cfg.queue_capacity = 16;
  cfg.batch_jobs = 8;
  cfg.max_n = 48;
  // on_complete runs on every shard's flush thread.
  std::atomic<std::uint64_t> delivered{0};
  cfg.on_complete = [&](const JobResult&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  };
  ServeEngine engine(cfg);

  Xoshiro256 rng(0xFA22ull);
  std::uint64_t accepted = 0;
  for (std::uint64_t id = 0; id < 4'000; ++id) {
    JobDesc d;
    d.id = id;
    // Raw bit patterns: enum values beyond the defined range included.
    d.kind = static_cast<JobKind>(rng() % 5);
    d.frontend = static_cast<Frontend>(rng() % 8);
    d.precision = static_cast<Precision>(rng() % 5);
    d.n = static_cast<std::uint32_t>(rng() % 80);  // 0 and > max_n included
    d.seed = rng();
    const AdmitError e = engine.try_submit(d);
    if (e == AdmitError::kNone) {
      ++accepted;
      // Whatever the engine admits it must also claim to support.
      EXPECT_TRUE(supported(d.kind, d.frontend, d.precision));
      EXPECT_GE(d.n, 1u);
      EXPECT_LE(d.n, cfg.max_n);
    } else {
      EXPECT_NE(e, AdmitError::kShutdown);
    }
  }
  engine.drain();

  const ServeStats st = engine.stats();
  EXPECT_GT(accepted, 0u) << "fuzzer never produced a valid desc; widen ranges";
  EXPECT_EQ(st.accepted, accepted);
  EXPECT_EQ(st.completed + st.failed, accepted);
  EXPECT_EQ(delivered.load(), accepted);
  EXPECT_EQ(st.rejected_total,
            st.rejected_by[1] + st.rejected_by[2] + st.rejected_by[3] +
                st.rejected_by[4] + st.rejected_by[5]);
}

}  // namespace
}  // namespace portabench::serve
