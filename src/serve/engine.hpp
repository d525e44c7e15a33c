// ServeEngine: the high-throughput serving layer.
//
// Millions of small mixed jobs (GEMM / SpMV / stencil, varied n,
// precision, and frontend) stream through sharded bounded admission
// queues; each shard batches its jobs and runs each batch as one launch
// over its device's LaunchEngine, a block per job: the job fills its
// inputs, runs its frontend's serial kernel (the tiled microkernel for
// tiled GEMMs) and checksums its output.  Batching is continuous: the
// first job into an idle shard rings its doorbell, which schedules a
// flush of whatever is queued by the time the flush runs, up to
// batch_jobs at a time (eager streams, which exist only under
// portacheck, flush on every batch_jobs-th job instead).  All job
// storage is carved out of per-shard reusable arenas: the steady state
// performs zero allocation.  Full architecture in docs/SERVE.md.
//
// Contracts:
//   - Deterministic: every job's result is a pure function of its
//     JobDesc and is bitwise-identical to serve::run_serial(desc).
//   - Backpressure is typed: a full shard queue rejects with
//     AdmitError::kQueueFull (shed + counted), never blocks or aborts.
//   - try_submit() is safe from any number of producer threads.
//     drain() must not race with try_submit (quiesce producers first);
//     completion callbacks fire on flush threads, in id order per batch.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "arena.hpp"
#include "gpusim/device.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/topology.hpp"
#include "job.hpp"
#include "simrt/mpsc_queue.hpp"

namespace portabench::serve {

/// A batch whose launch failed (in production a device fault; in the
/// tests the fail-injection hook).  Thrown from the flush op so it lands
/// in the stream's error stash and surfaces at the next synchronize —
/// the recovery path tests/gpusim/stream_recovery_test.cpp pins.
class batch_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The serving layer is itself a concurrency runtime (sharded admission
/// from arbitrary producer threads, flushes on stream workers), so it
/// legitimately owns locks the way simrt/gpusim do.
using ShardMutex = std::mutex;  // portalint: raw-thread-ok(serve is a runtime layer: shard submit/flush ordering needs a real lock)

/// Cap on jobs per flush when the caller does not pick one.
// portalint: tn-magic-tile-ok(ServeConfig::batch_jobs default; named once here)
inline constexpr std::size_t kDefaultBatchJobs = 32;

/// Serving's default node shape: one A100-class device in the degenerate
/// configuration (no private engine, no pinning) — batches run through
/// LaunchEngine::shared(), exactly the pre-multi-device serving engine.
[[nodiscard]] inline gpusim::TopologyConfig serve_default_topology() {
  gpusim::TopologyConfig t;
  t.device_spec = gpusim::GpuSpec::a100();
  t.pin_workers = false;
  return t;
}

struct ServeConfig {
  std::size_t shards = 4;
  std::size_t queue_capacity = 1024;  ///< per-shard admission queue bound
  /// Cap on jobs per flush; the flush trigger only on eager streams.
  std::size_t batch_jobs = kDefaultBatchJobs;
  std::uint32_t max_n = 256;          ///< admission bound on problem size
  /// Completion sink; called on the flushing thread, jobs of a batch
  /// delivered in id order.  Must be thread-safe across shards.  May be
  /// empty.
  std::function<void(const JobResult&)> on_complete;
  /// Test hook: jobs selected here are marked kFailed instead of run,
  /// and their batch throws batch_error into the stream error stash.
  std::function<bool(const JobDesc&)> fail_injection;
  /// Node shape the shards are dealt across: shard i's stream and arena
  /// batches live on device i % topology.devices.
  /// The default is the degenerate single-device topology (today's
  /// single-engine behavior, bit for bit).
  gpusim::TopologyConfig topology = serve_default_topology();
};

struct ServeStats {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;       ///< flushes that processed >= 1 job
  std::uint64_t batch_errors = 0;  ///< batches that marked jobs failed
  std::uint64_t rejected_total = 0;
  /// Sheds/rejects by reason, indexed by AdmitError (kNone slot unused).
  std::array<std::uint64_t, 6> rejected_by{};
  std::size_t arena_high_water = 0;    ///< largest per-shard batch slab
  std::uint64_t arena_grow_events = 0; ///< slab reallocations, all shards
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeConfig config = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Admit one job.  Never blocks, never throws on bad input: the
  /// outcome is the returned AdmitError (kNone = accepted).  Thread-safe.
  AdmitError try_submit(const JobDesc& desc);

  /// Flush every queued job and wait for all in-flight batches.  Caller
  /// must quiesce producers first.  Stashed batch errors are absorbed
  /// into stats().batch_errors; the engine stays usable afterwards.
  void drain();

  /// Stop admission (subsequent try_submit → kShutdown) and drain.
  void shutdown();

  [[nodiscard]] ServeStats stats() const;

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

  /// The device context whose LaunchEngine runs device-0 batches (the
  /// only device in the default topology).
  [[nodiscard]] gpusim::DeviceContext& context() noexcept { return topo_->context(0); }

  /// The node topology the shards are dealt across.
  [[nodiscard]] gpusim::DeviceTopology& topology() noexcept { return *topo_; }

  /// Device that shard `shard` runs on (round-robin over the topology).
  [[nodiscard]] std::size_t device_of(std::size_t shard) const noexcept {
    return shard % topo_->devices();
  }

 private:
  /// One admitted job staged for a flush: its descriptor, the base of
  /// its carved arena section, and the checksum its launch block stores.
  struct JobSlot {
    JobDesc desc;
    std::byte* base = nullptr;
    bool failed = false;
    double checksum = 0.0;
  };

  struct alignas(kCacheLineBytes) Shard {
    Shard(const ServeConfig& cfg, gpusim::DeviceContext& ctx);

    simrt::BoundedMpscQueue<JobDesc> queue;
    gpusim::DeviceContext* ctx;  ///< the device this shard runs on
    gpusim::Stream stream;       ///< kAsync: flushes run on the stream worker
    ShardMutex submit_mutex;  ///< guards stream.enqueue (not thread-safe)
    ShardMutex flush_mutex;   ///< serializes flush bodies (arena + slots)
    /// Set while a flush is scheduled and has not yet started popping
    /// (async streams only).
    std::atomic<bool> doorbell{false};
    std::atomic<std::uint64_t> submitted{0};  ///< accepts (eager trigger)
    WorkerArena arena;
    /// The flush's jobs, reserved once and reused (zero steady-state alloc).
    std::vector<JobSlot> slots;
  };

  struct FlushOutcome {
    std::size_t popped = 0;
    std::size_t injected = 0;
  };

  void schedule_flush(Shard& shard);
  FlushOutcome flush_shard(Shard& shard, std::size_t max_jobs);
  void deliver(Shard& shard);

  ServeConfig config_;
  std::unique_ptr<gpusim::DeviceTopology> topo_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> accepting_{true};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batch_errors_{0};
  std::array<std::atomic<std::uint64_t>, 6> rejected_by_{};
};

}  // namespace portabench::serve
