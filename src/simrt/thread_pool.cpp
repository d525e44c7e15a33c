#include "thread_pool.hpp"

#include <utility>

#include "common/error.hpp"
#include "portacheck/hooks.hpp"

namespace portabench::simrt {

namespace {

/// One spin-loop iteration's worth of politeness: a pipeline hint on
/// architectures that have one, a scheduler yield elsewhere.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Spin budget before falling back to a condvar park.  The pause phase
// covers the multicore fast path (the signal arrives within tens of
// cycles); the yield phase covers oversubscribed hosts, where the peer
// needs the core to make progress at all.
constexpr int kPauseSpins = 128;
constexpr int kYieldSpins = 512;

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
  // that already left.
  while (in_flight_.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    // shutdown_ is flipped under the park mutex so a worker evaluating its
    // park predicate cannot miss it (the store and the predicate are
    // ordered by the lock).  release, not seq_cst: the lock orders the
    // parked path, and the unlocked fast-path load in await_epoch only
    // needs acquire/release — shutdown_ is not part of a Dekker pair.
    std::lock_guard lock(mutex_);
    shutdown_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
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

bool ThreadPool::await_epoch(WorkerSlot& slot, std::uint64_t epoch) {
  int spins = 0;
  for (;;) {
    if (slot.go.load(std::memory_order_acquire) >= epoch) return true;
    if (shutdown_.load(std::memory_order_acquire)) return false;
    if (spins < kPauseSpins) {
      cpu_pause();
    } else if (spins < kPauseSpins + kYieldSpins) {
      std::this_thread::yield();
    } else {
      break;  // spin budget exhausted: park
    }
    ++spins;
  }
  std::unique_lock lock(mutex_);
  // seq_cst Dekker pair with run_impl: the caller stores go then loads
  // parked; we store parked then load go.  At least one side must see the
  // other's store, so either the caller notifies or the predicate is
  // already true and we never sleep.
  slot.parked.store(1, std::memory_order_seq_cst);  // portalint: mo-ok(Dekker store side; pairs with run_impl's go-store/parked-load)
  start_cv_.wait(lock, [&] {
    // shutdown_ may be relaxed here: its store happens under this same
    // mutex, so the lock orders it.  go stays seq_cst — it is the load
    // side of the Dekker pair and must not hoist above the parked store.
    return shutdown_.load(std::memory_order_relaxed) ||
           slot.go.load(std::memory_order_seq_cst) >= epoch;  // portalint: mo-ok(Dekker load side)
  });
  slot.parked.store(0, std::memory_order_relaxed);
  return slot.go.load(std::memory_order_acquire) >= epoch;
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
  std::uint64_t epoch = 0;
  for (;;) {
    ++epoch;
    if (!await_epoch(slot, epoch)) return;
    // task_fn_/task_ctx_ were published before the slot's go store; the
    // acquire load in await_epoch orders these plain reads after it.
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
    const std::size_t prev = arrived_.fetch_add(1, std::memory_order_seq_cst);  // portalint: mo-ok(Dekker store side; pairs with run_impl's caller_parked-store/arrived-load)
    if (prev + 1 == num_threads_ - 1 &&
        caller_parked_.load(std::memory_order_seq_cst)) {  // portalint: mo-ok(Dekker load side)
      // Empty critical section: the caller either holds the mutex inside
      // wait() (notify after we acquire+release is ordered correctly) or
      // has not parked yet, in which case its predicate will see arrived_.
      { std::lock_guard lock(mutex_); }
      done_cv_.notify_one();
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

  // Publish the region: one padded line per worker, then a condvar nudge
  // only if someone actually parked.
  const std::uint64_t epoch = ++epoch_;
  bool any_parked = false;
  for (WorkerSlot& slot : slots_) {
    slot.go.store(epoch, std::memory_order_seq_cst);  // portalint: mo-ok(Dekker store side; pairs with await_epoch's parked-store/go-load)
    any_parked |= slot.parked.load(std::memory_order_seq_cst) != 0;  // portalint: mo-ok(Dekker load side)
  }
  if (any_parked) {
    { std::lock_guard lock(mutex_); }
    start_cv_.notify_all();
  }

  // The caller participates as logical thread 0 (like an OpenMP master).
  try {
    portacheck::LaneScope lane(0);
    fn(ctx, 0);
  } catch (...) {
    record_error();
  }

  // Join: spin on the arrival counter, then park on done_cv_.
  const std::size_t expect = num_threads_ - 1;
  int spins = 0;
  while (arrived_.load(std::memory_order_acquire) != expect) {
    if (spins < kPauseSpins) {
      cpu_pause();
    } else if (spins < kPauseSpins + kYieldSpins) {
      std::this_thread::yield();
    } else {
      std::unique_lock lock(mutex_);
      caller_parked_.store(true, std::memory_order_seq_cst);  // portalint: mo-ok(Dekker store side; pairs with worker_loop's arrived-add/caller_parked-load)
      done_cv_.wait(lock, [&] {
        return arrived_.load(std::memory_order_seq_cst) == expect;  // portalint: mo-ok(Dekker load side)
      });
      caller_parked_.store(false, std::memory_order_relaxed);
      break;
    }
    ++spins;
  }
  finish_region();
}

}  // namespace portabench::simrt
