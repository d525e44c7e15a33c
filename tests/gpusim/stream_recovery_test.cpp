// Regression tests for stream error recovery and device-buffer/arena
// reuse after a failed batch: an error stashed at synchronize() must not
// poison the next batch enqueued on the same stream, and the serving
// layer's arenas must be reusable across an errored flush.
//
// Under portacheck every Stream is eager, so a throwing op throws from
// enqueue() instead of waiting in the stash for synchronize().  These
// cases assert whichever contract the stream runs under: the error
// surfaces exactly once, from enqueue() or from synchronize(), and the
// stream is clean afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/copy.hpp"
#include "gpusim/device.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/pipeline.hpp"
#include "gpusim/stream.hpp"
#include "serve/engine.hpp"
#include "serve/serial.hpp"
#include "watchdog.hpp"

namespace portabench::gpusim {
namespace {

using test_support::Watchdog;

class StreamRecoveryTest : public ::testing::Test {
 protected:
  DeviceContext ctx_{GpuSpec::a100()};
};

/// Enqueue an op that throws `what`; returns the message if enqueue()
/// itself threw it (an eager stream), or "" (an async stream's stash).
std::string enqueue_fault(Stream& s, const char* what) {
  try {
    s.enqueue(0.0, [what] { throw std::runtime_error(what); });
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Synchronize; returns the message of the stashed error it rethrew, or "".
std::string synchronize_error(Stream& s) {
  try {
    s.synchronize();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(StreamRecoveryTest, StashedErrorSurfacesOnceThenStreamIsClean) {
  Stream s(ctx_, StreamMode::kAsync);
  std::string surfaced = enqueue_fault(s, "batch fault");
  EXPECT_EQ(surfaced.empty(), s.mode() == StreamMode::kAsync);
  surfaced += synchronize_error(s);
  EXPECT_EQ(surfaced, "batch fault");
  // The stash is consumed: the stream is clean again.
  EXPECT_NO_THROW(s.synchronize());
}

TEST_F(StreamRecoveryTest, WorkEnqueuedAfterErrorStillRuns) {
  Stream s(ctx_, StreamMode::kAsync);
  std::vector<int> ran;
  std::string surfaced = enqueue_fault(s, "batch fault");
  s.enqueue(0.0, [&] { ran.push_back(1); });
  surfaced += synchronize_error(s);
  EXPECT_EQ(surfaced, "batch fault");

  // Re-enqueue on the same stream whose prior batch errored: the new
  // batch must run and synchronize cleanly.
  s.enqueue(0.0, [&] { ran.push_back(2); });
  EXPECT_NO_THROW(s.synchronize());
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
}

TEST_F(StreamRecoveryTest, BackToBackErrorsEachSurfaceExactlyOnce) {
  Stream s(ctx_, StreamMode::kAsync);
  std::string surfaced = enqueue_fault(s, "first");
  surfaced += synchronize_error(s);
  EXPECT_EQ(surfaced, "first");
  surfaced = enqueue_fault(s, "second");
  surfaced += synchronize_error(s);
  EXPECT_EQ(surfaced, "second");
  EXPECT_NO_THROW(s.synchronize());
}

TEST_F(StreamRecoveryTest, EagerStreamRecoversIdentically) {
  Stream s(ctx_, StreamMode::kEager);
  EXPECT_THROW(s.enqueue(0.0, [] { throw std::runtime_error("fault"); }),
               std::runtime_error);
  int ran = 0;
  s.enqueue(0.0, [&] { ran = 1; });
  EXPECT_NO_THROW(s.synchronize());
  EXPECT_EQ(ran, 1);
}

// The serving-layer shape of the same bug: a shard's batch errors (fail
// injection), and the *next* batch re-enqueued on that shard's stream —
// reusing the same arena slab — must complete with bitwise-correct
// results and no carried-over failure.
TEST_F(StreamRecoveryTest, ServeShardSurvivesErroredBatchAndReusesArena) {
  using namespace portabench::serve;

  std::vector<JobResult> results;
  ServeConfig cfg;
  cfg.shards = 1;  // one stream: the second batch reuses the errored one
  cfg.batch_jobs = 8;
  cfg.on_complete = [&](const JobResult& r) { results.push_back(r); };
  // Every job of the first phase fails; later jobs are healthy.
  cfg.fail_injection = [](const JobDesc& d) { return d.id < 8; };
  ServeEngine engine(cfg);

  const auto job = [](std::uint64_t id) {
    JobDesc d;
    d.id = id;
    d.kind = JobKind::kGemm;
    d.frontend = Frontend::kTiled;
    d.precision = Precision::kDouble;
    d.n = 10;
    d.seed = 0xCAFEull + id;
    return d;
  };

  std::vector<JobDesc> batch2;
  for (std::uint64_t id = 0; id < 8; ++id) {
    ASSERT_EQ(engine.try_submit(job(id)), AdmitError::kNone);
  }
  engine.drain();  // absorbs the stashed batch_error

  // Async shards flush whatever is queued when the stream is free, so the
  // eight failing jobs may form several batches; each one errors.
  ServeStats st = engine.stats();
  EXPECT_EQ(st.failed, 8u);
  EXPECT_GE(st.batches, 1u);
  EXPECT_EQ(st.batch_errors, st.batches);
  const ServeStats failing = st;

  for (std::uint64_t id = 8; id < 16; ++id) {
    batch2.push_back(job(id));
    ASSERT_EQ(engine.try_submit(batch2.back()), AdmitError::kNone);
  }
  engine.drain();

  st = engine.stats();
  EXPECT_EQ(st.completed, 8u);
  EXPECT_EQ(st.failed, 8u);
  EXPECT_GT(st.batches, failing.batches);
  EXPECT_EQ(st.batch_errors, failing.batch_errors)
      << "healthy batches must not inherit the error";
  ASSERT_EQ(results.size(), 16u);
  for (const auto& d : batch2) {
    const auto it = std::find_if(results.begin(), results.end(),
                                 [&](const JobResult& r) { return r.id == d.id; });
    ASSERT_NE(it, results.end());
    EXPECT_EQ(it->status, JobStatus::kOk);
    EXPECT_EQ(it->checksum, run_serial(d).checksum) << "job " << d.id;
  }
}

TEST_F(StreamRecoveryTest, CountersResetPreservesLiveMemory) {
  DeviceBuffer<double> buf(ctx_, 128);
  const DeviceCounters before = ctx_.counters();
  EXPECT_EQ(before.live_allocations, 1u);
  EXPECT_EQ(ctx_.bytes_in_use(), 128 * sizeof(double));
  ctx_.reset_counters();
  const DeviceCounters after = ctx_.counters();
  EXPECT_EQ(after.bytes_allocated, 0u);
  EXPECT_EQ(after.live_allocations, 1u) << "reset must not forget live buffers";
  EXPECT_EQ(after.peak_bytes_allocated, 128 * sizeof(double))
      << "peak restarts from resident memory, not zero";
  EXPECT_EQ(ctx_.bytes_in_use(), 128 * sizeof(double));
}

TEST_F(StreamRecoveryTest, FreeAfterCountersResetBalances) {
  {
    DeviceBuffer<double> buf(ctx_, 64);
    ctx_.reset_counters();
    // Destruction after the reset must balance, not trip the
    // live-allocation precondition.
  }
  const DeviceCounters after = ctx_.counters();
  EXPECT_EQ(after.live_allocations, 0u);
  EXPECT_EQ(ctx_.bytes_in_use(), 0u);
}

// A compute op that throws on one panel of device 1 must strand no
// waiter: the stream advances its completion count past the failed op,
// so the panel's D2H (waiting on compute_done) and the next panels'
// H2D/compute still run, every stream drains, and the driver reports the
// error once.  With eager streams the stages run inline in program
// order, so the throw ends the call at the faulty panel instead: device
// 0 and device 1's earlier panels have landed, and nothing after it ran.
TEST_F(StreamRecoveryTest, ThrowingPanelStrandsNoWaiterInTheShardedPipeline) {
  TopologyConfig cfg = TopologyConfig::crusher_node(2);
  cfg.workers_per_device = 1;
  cfg.pin_workers = false;
  DeviceTopology topo(cfg);
  const bool eager = Stream(topo.context(0), StreamMode::kAsync).mode() == StreamMode::kEager;
  static constexpr std::size_t kPanels = 6;
  static constexpr std::size_t kRows = 64;
  static constexpr std::size_t kDevices = 2;
  static constexpr std::size_t kFaultyPanel = 3;

  // One call: every panel doubles its input; returns the ops each stage ran.
  const auto call = [&](bool inject, std::vector<double>& out) {
    std::vector<double> in(kDevices * kPanels * kRows);
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<double>(i);
    out.assign(in.size(), -1.0);
    std::vector<std::vector<DeviceBuffer<double>>> stage_in(kDevices);
    std::vector<std::vector<DeviceBuffer<double>>> stage_out(kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
      for (std::size_t slot = 0; slot < kPipelineSlots; ++slot) {
        stage_in[d].emplace_back(topo.context(d), kRows);
        stage_out[d].emplace_back(topo.context(d), kRows);
      }
    }
    std::atomic<int> ran{0};
    const auto panel = [](std::size_t d, std::size_t k) { return (d * kPanels + k) * kRows; };
    gpusim::run_sharded_pipeline(
        topo, {kPanels, kPanels}, true,
        [&](Stream& s, std::size_t d, std::size_t k, std::size_t slot) {
          copy_to_device_async(s, stage_in[d][slot], 0,
                               std::span<const double>(in).subspan(panel(d, k), kRows));
        },
        [&](Stream& s, std::size_t d, std::size_t k, std::size_t slot) {
          const double* src = stage_in[d][slot].data();
          double* dst = stage_out[d][slot].data();
          const bool fault = inject && d == 1 && k == kFaultyPanel;
          s.enqueue(0.0, [src, dst, fault, &ran] {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (fault) throw std::runtime_error("panel fault");
            for (std::size_t i = 0; i < kRows; ++i) dst[i] = 2.0 * src[i];
          });
        },
        [&](Stream& s, std::size_t d, std::size_t k, std::size_t slot) {
          copy_to_host_async(s, std::span<double>(out).subspan(panel(d, k), kRows),
                             stage_out[d][slot], 0);
        });
    return ran.load();
  };

  Watchdog dog("sharded pipeline with a throwing panel");
  std::vector<double> out;
  int throws = 0;
  try {
    call(true, out);
  } catch (const std::runtime_error& e) {
    ++throws;
    EXPECT_STREQ(e.what(), "panel fault");
  }
  dog.tick();
  EXPECT_EQ(throws, 1);
  // Every panel after the faulty one still ran on device 1, and device 0
  // was untouched, so the streams drained rather than stalling.
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (std::size_t k = 0; k < kPanels; ++k) {
      const std::size_t base = (d * kPanels + k) * kRows;
      if (eager && d == 1 && k >= kFaultyPanel) {
        EXPECT_EQ(out[base], -1.0) << "an eager call ran panel " << k << " past the throw";
        continue;
      }
      if (d == 1 && k == kFaultyPanel) {
        EXPECT_NE(out[base], -1.0) << "the faulty panel's D2H never ran";
        continue;
      }
      EXPECT_EQ(out[base + 5], 2.0 * static_cast<double>(base + 5)) << "device " << d
                                                                    << " panel " << k;
    }
  }
  for (std::size_t d = 0; d < kDevices; ++d) {
    EXPECT_EQ(topo.context(d).counters().live_allocations, 0u) << "device " << d;
  }

  // The topology is reusable: a clean call on it succeeds, bit for bit.
  EXPECT_EQ(call(false, out), static_cast<int>(kDevices * kPanels));
  dog.tick();
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 2.0 * static_cast<double>(i)) << "i=" << i;
  }
  for (std::size_t d = 0; d < kDevices; ++d) {
    EXPECT_EQ(topo.context(d).counters().live_allocations, 0u) << "device " << d;
  }
}

}  // namespace
}  // namespace portabench::gpusim
