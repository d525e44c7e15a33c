#include "thread_pool.hpp"

#include <utility>

#include "common/error.hpp"
#include "portacheck/hooks.hpp"

namespace portabench::simrt {

namespace {

// Spin budget before a worker or the joining caller parks.  The pause
// phase covers the multicore fast path (the signal arrives within tens of
// cycles); the yield phase covers oversubscribed hosts, where the peer
// needs the core to make progress at all.
constexpr SpinBudget kPoolSpin{128, 512};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, Placement placement)
    : num_threads_(num_threads),
      placement_(std::move(placement)),
      slots_(num_threads == 0 ? 0 : num_threads - 1) {
  PB_EXPECTS(num_threads >= 1);
  PB_EXPECTS(placement_.core_of_thread.empty() ||
             placement_.core_of_thread.size() >= num_threads);
  workers_.reserve(num_threads - 1);
  for (std::size_t t = 1; t < num_threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  // Drain before shutdown: if the last handle to the pool is dropped on
  // one thread while another still has a run() in flight (e.g. a
  // parallel_reduce chunk mid-execution), the region must retire before
  // workers are told to exit — otherwise its join would wait on threads
  // that already left.  This wait polls rather than parks: clearing
  // in_flight_ is the region caller's last touch of the pool, so nothing
  // may notify after it.
  while (in_flight_.load(std::memory_order_acquire)) std::this_thread::yield();
  shutdown_.store(true, std::memory_order_relaxed);
  for (WorkerSlot& slot : slots_) advance(slot.go);
  for (auto& w : workers_) w.join();
}

void ThreadPool::record_error() noexcept {
  std::lock_guard lock(error_mutex_);
  if (!has_error_.load(std::memory_order_relaxed)) {
    first_error_ = std::current_exception();
    has_error_.store(true, std::memory_order_release);
  }
}

void ThreadPool::finish_region() {
  // Take the stashed error out before clearing in_flight_: once it is
  // false the destructor may run on another thread, so nothing after
  // that store may touch a member.
  std::exception_ptr err;
  if (has_error_.load(std::memory_order_acquire)) {
    std::lock_guard lock(error_mutex_);
    err = std::exchange(first_error_, nullptr);
    has_error_.store(false, std::memory_order_relaxed);
  }
  in_flight_.store(false, std::memory_order_release);
  if (err) std::rethrow_exception(err);
}

void ThreadPool::worker_loop(std::size_t thread_id) {
  // Apply the recorded placement to this OS thread, best-effort.  Only
  // workers are bound: logical thread 0 is the caller's thread, which
  // the pool does not own (pinning it would leak policy into code that
  // merely forked a region).  bind_current_thread wraps core ids modulo
  // the host CPU count, so modeled-machine placements stay valid on
  // smaller simulation hosts.
  if (placement_.pinned() && thread_id < placement_.core_of_thread.size()) {
    bind_current_thread(placement_.core_of_thread[thread_id]);
  }
  WorkerSlot& slot = slots_[thread_id - 1];
  std::uint32_t seen = 0;
  for (;;) {
    // The caller publishes one region at a time and joins it before the
    // next, so go is never more than one step past `seen`.
    seen = wait_until(slot.go, kPoolSpin, [seen](std::uint32_t go) { return go != seen; });
    if (shutdown_.load(std::memory_order_relaxed)) return;
    // task_fn_/task_ctx_ were published before the slot's go advance; the
    // acquire load in wait_until orders these plain reads after it.
    const TaskFn fn = task_fn_;
    void* const ctx = task_ctx_;
    try {
      // Default shadow lane for tasks submitted via run() directly; the
      // checked parallel_* paths override this per logical iteration.
      portacheck::LaneScope lane(thread_id);
      fn(ctx, thread_id);
    } catch (...) {
      record_error();
    }
    // Only the last arrival can satisfy the caller's join, so only it
    // notifies.
    const std::uint32_t expect = static_cast<std::uint32_t>(num_threads_ - 1);
    if (arrived_.fetch_add(1, std::memory_order_release) + 1 == expect) {
      arrived_.notify_one();
    }
  }
}

void ThreadPool::run_inline(TaskFn fn, void* ctx) {
  PB_EXPECTS(fn != nullptr);
  PB_EXPECTS(!in_flight_.load(std::memory_order_relaxed));  // non-reentrant
  // in_flight_ still guards the destructor drain: the pool must not tear
  // down while another thread is mid-region, even a caller-only one.
  in_flight_.store(true, std::memory_order_relaxed);
  // Same lane decomposition and error contract as the forked path: every
  // lane runs (a throw does not skip the rest), first error is rethrown.
  for (std::size_t t = 0; t < num_threads_; ++t) {
    try {
      portacheck::LaneScope lane(t);
      fn(ctx, t);
    } catch (...) {
      record_error();
    }
  }
  finish_region();
}

void ThreadPool::run_impl(TaskFn fn, void* ctx) {
  PB_EXPECTS(fn != nullptr);
  if (num_threads_ == 1) {
    // Degenerate pool: the caller is the whole team, no signaling at all.
    portacheck::LaneScope lane(0);
    fn(ctx, 0);
    return;
  }

  PB_EXPECTS(!in_flight_.load(std::memory_order_relaxed));  // non-reentrant
  in_flight_.store(true, std::memory_order_relaxed);
  task_fn_ = fn;
  task_ctx_ = ctx;
  arrived_.store(0, std::memory_order_relaxed);

  // Publish the region: one padded line per worker.
  for (WorkerSlot& slot : slots_) advance(slot.go);

  // The caller participates as logical thread 0 (like an OpenMP master).
  try {
    portacheck::LaneScope lane(0);
    fn(ctx, 0);
  } catch (...) {
    record_error();
  }

  const auto expect = static_cast<std::uint32_t>(num_threads_ - 1);
  wait_until(arrived_, kPoolSpin, [expect](std::uint32_t n) { return n == expect; });
  finish_region();
}

}  // namespace portabench::simrt
