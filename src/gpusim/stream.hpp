// Streams and events: ordered-queue semantics over the simulator.
//
// The paper's kernels are synchronous single-stream, but a credible
// runtime needs stream ordering for the data-transfer-overlap discussion
// in Section II ("select the overlap of data transfers with
// computations").  A Stream is an in-order work queue with a modeled
// clock (timestamps come from the performance model) and one of two
// execution modes:
//
//   kEager  (default)  operations run inline on the enqueuing thread —
//                      the host *is* the device here.  The pre-engine
//                      behaviour, and what the sanitized tier always
//                      uses (a permuted serial schedule needs in-order
//                      host execution).
//   kAsync             operations are erased into inline-storage queue
//                      nodes and executed in order by a dedicated worker
//                      thread, so H2D/compute/D2H pipelines on separate
//                      streams genuinely overlap on the host.  Event /
//                      wait() provide cross-stream ordering: wait()
//                      blocks the stream (not the enqueuing host thread)
//                      until the event's real completion.
//
// The modeled clock is advanced at enqueue time on the caller, in
// program order — modeled timestamps are deterministic and identical
// between the two modes; only the host-side execution strategy differs.
// Real completion is one counter per stream (its Timeline), and an Event
// is a snapshot of it, so record() enqueues and allocates nothing.  Every
// wait parks through simrt::wait_until on the counter it needs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "device.hpp"
#include "portacheck/hooks.hpp"
#include "simrt/wait.hpp"

namespace portabench::gpusim {

class Stream;

enum class StreamMode { kEager, kAsync };

namespace detail {

/// Move-only type-erased operation: the async queue's node.  Callables
/// up to kInlineBytes are stored in-place — no per-op heap allocation
/// for the lambdas streams actually enqueue (std::function would
/// allocate for anything beyond its tiny SBO and always costs a
/// double-indirect dispatch).
class ErasedOp {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  ErasedOp() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ErasedOp> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  explicit ErasedOp(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  ErasedOp(ErasedOp&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  ErasedOp& operator=(ErasedOp&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  ErasedOp(const ErasedOp&) = delete;
  ErasedOp& operator=(const ErasedOp&) = delete;
  ~ErasedOp() { reset(); }

  void operator()() {
    PB_EXPECTS(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct OpsVTable {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <class Fn>
  static constexpr OpsVTable kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) noexcept {
        Fn* f = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  template <class Fn>
  static constexpr OpsVTable kHeapOps{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const OpsVTable* ops_ = nullptr;
};

/// Stream waits park at once, beyond libstdc++'s own short spin: a
/// spinning stream worker would take the cores the launch engine's pool
/// needs.
inline constexpr simrt::SpinBudget kStreamSpin{};

/// A stream's completed-op count, which its worker advances after every
/// op, including one that threw.  Shared with the Events recorded on the
/// stream and the wait() ops on them, so both may outlive the stream.
struct Timeline {
  std::atomic<std::uint32_t> completed{0};

  /// Block until `ops` ops have completed.
  void wait_for(std::uint32_t ops) const {
    simrt::wait_until(completed, kStreamSpin,
                      [ops](std::uint32_t done) { return simrt::reached(done, ops); });
  }

  /// Count one more completed op and wake its waiters.
  void finish_op() noexcept { simrt::advance(completed); }
};

/// In-order queue serviced by one dedicated worker thread (the async
/// stream's engine).  push() never blocks on op execution; drain()
/// blocks until every op pushed so far has completed, rethrowing the
/// first exception an op threw.
class AsyncQueue {
 public:
  /// `timeline` is advanced after every op and must outlive the queue.
  explicit AsyncQueue(Timeline& timeline);
  ~AsyncQueue();
  AsyncQueue(const AsyncQueue&) = delete;
  AsyncQueue& operator=(const AsyncQueue&) = delete;

  void push(ErasedOp op);
  void drain();

  /// Ops pushed so far: the count an Event recorded now waits for.
  [[nodiscard]] std::uint32_t pushed() const noexcept {
    return pushes_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  Timeline& timeline_;
  std::mutex mutex_;                 // guards queue_ and first_error_
  std::vector<ErasedOp> queue_;      // FIFO: worker swaps it out in batches
  std::exception_ptr first_error_;
  // Ops ever pushed, changed under mutex_; the worker parks on it.
  std::atomic<std::uint32_t> pushes_{0};
  std::thread worker_;
};

}  // namespace detail

/// Marks a position in a stream's modeled timeline (cudaEvent analogue).
/// An Event holds the recording stream's shared Timeline, so a recorded
/// Event can be waited on after the stream re-records or is destroyed.
/// Counts are 32 bits: query or wait on an Event before its stream runs
/// 2^31 further ops.
class Event {
 public:
  Event() = default;

  [[nodiscard]] bool recorded() const noexcept { return timeline_ != nullptr; }

  /// Modeled device time (seconds) at which the event completes.
  [[nodiscard]] double timestamp() const {
    PB_EXPECTS(recorded());
    return timestamp_;
  }

  /// Host-side completion state (cudaEventQuery): for events recorded on
  /// an eager stream this is true as soon as record() returns; on an
  /// async stream it flips when the worker has finished every op handed
  /// to it before record().
  [[nodiscard]] bool query() const noexcept {
    return recorded() &&
           simrt::reached(timeline_->completed.load(std::memory_order_acquire), ops_);
  }

  /// Block the host until the event really completed (cudaEventSynchronize).
  void synchronize() const {
    PB_EXPECTS(recorded());
    timeline_->wait_for(ops_);
  }

  /// Modeled seconds between two recorded events (cudaEventElapsedTime).
  /// Reversed arguments (stop before start) are a precondition_error.
  [[nodiscard]] static double elapsed(const Event& start, const Event& stop) {
    PB_EXPECTS(start.recorded() && stop.recorded());
    PB_EXPECTS(stop.timestamp_ >= start.timestamp_);
    return stop.timestamp_ - start.timestamp_;
  }

 private:
  friend class Stream;

  std::shared_ptr<const detail::Timeline> timeline_;
  std::uint32_t ops_ = 0;  // ops handed to the recording stream's worker
  double timestamp_ = 0.0;
};

/// In-order work queue with a modeled clock.  See the header comment for
/// the two execution modes; the modeled timeline is identical in both.
class Stream {
 public:
  /// Sanitized runs (portacheck active at construction) force kEager so
  /// the permuted serial schedule stays serial — see docs/SANITIZER.md.
  explicit Stream(DeviceContext& ctx, StreamMode mode = StreamMode::kEager)
      : ctx_(&ctx), timeline_(std::make_shared<detail::Timeline>()) {
    if (mode == StreamMode::kAsync && !portacheck::active()) {
      queue_ = std::make_unique<detail::AsyncQueue>(*timeline_);
    }
  }

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Destruction drains outstanding async work (errors from ops are
  /// dropped here — synchronize() first to observe them).
  ~Stream() = default;

  [[nodiscard]] DeviceContext& context() const noexcept { return *ctx_; }
  [[nodiscard]] StreamMode mode() const noexcept {
    return queue_ ? StreamMode::kAsync : StreamMode::kEager;
  }

  /// Modeled time (seconds) at which all enqueued work completes.
  [[nodiscard]] double now() const noexcept { return clock_; }

  /// Enqueue an operation and advance modeled time by `modeled_seconds`;
  /// returns the op's modeled completion timestamp.  Eager: runs `op`
  /// inline.  Async: erases `op` into an inline-storage queue node (no
  /// std::function, no heap for small captures) executed in order by the
  /// stream's worker.
  template <class F>
    requires std::is_invocable_v<std::remove_cvref_t<F>&>
  double enqueue(double modeled_seconds, F&& op) {
    PB_EXPECTS(modeled_seconds >= 0.0);
    if (queue_) {
      queue_->push(detail::ErasedOp(std::forward<F>(op)));
    } else {
      op();
    }
    clock_ += modeled_seconds;
    ++ops_;
    return clock_;
  }

  /// Modeled-time-only operation (no host payload): transfers and
  /// kernels whose cost comes purely from the performance model.
  double enqueue(double modeled_seconds) {
    return enqueue(modeled_seconds, [] {});
  }

  /// Make this stream wait for a recorded event (cudaStreamWaitEvent):
  /// modeled time jumps to the max, and in async mode the stream's
  /// worker blocks until the event's real completion — this is what
  /// makes cross-stream pipelines actually ordered, not just modeled so.
  /// An eager stream blocks the host instead (it *is* its own worker).
  void wait(const Event& event) {
    PB_EXPECTS(event.recorded());
    clock_ = std::max(clock_, event.timestamp_);
    if (queue_) {
      queue_->push(detail::ErasedOp(
          [timeline = event.timeline_, ops = event.ops_] { timeline->wait_for(ops); }));
    } else {
      event.timeline_->wait_for(event.ops_);
    }
  }

  /// Record an event at the current end of the queue: a snapshot of the
  /// modeled clock (program order) and of the ops handed to the worker,
  /// which completes once the worker has finished them.  An eager stream
  /// hands its worker nothing, so its events are complete at once.
  void record(Event& event) {
    event.timeline_ = timeline_;
    event.ops_ = queue_ ? queue_->pushed() : 0;
    event.timestamp_ = clock_;
  }

  /// Host-synchronize: drain outstanding async work (rethrowing the
  /// first op exception), then return the modeled completion time.
  double synchronize() {
    if (queue_) queue_->drain();
    return clock_;
  }

  [[nodiscard]] std::size_t operations() const noexcept { return ops_; }

 private:
  DeviceContext* ctx_;
  std::shared_ptr<detail::Timeline> timeline_;
  std::unique_ptr<detail::AsyncQueue> queue_;  // null in eager mode; advances timeline_
  double clock_ = 0.0;
  std::size_t ops_ = 0;
};

}  // namespace portabench::gpusim
