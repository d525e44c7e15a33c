// Persistent fork-join worker pool.
//
// This is the engine under the Threads execution space: the analogue of
// the OpenMP runtime's thread team (C/OpenMP and Kokkos frontends) and of
// Julia's task scheduler threads.  Workers are created once and reused
// across parallel regions — matching the paper's protocol where thread
// counts are fixed per run (OMP_NUM_THREADS / JULIA_NUM_THREADS /
// NUMBA_NUM_THREADS) and warm-up iterations absorb team start-up cost.
//
// Dispatch protocol (see docs/PERF.md): the pool is epoch-based and
// lock-free on the region hot path.  Each worker owns a cache-line-padded
// slot holding a "go" epoch; the caller publishes a region by storing the
// new epoch into every slot, workers detect it by spinning briefly and
// then parking on a condvar (spin-then-park), and the join is a single
// shared arrival counter the caller spins on.  The mutex/condvar pair is
// touched only on the park/unpark slow path, never on a region where all
// participants are running hot — the old implementation paid a mutex +
// notify_all + condvar rendezvous on *every* region, which dominated
// small-region latency (bench/micro_dispatch.cpp measures the difference).
//
// On top of the cheap fork-join, run_auto() adds grain-based fork
// elision: a region whose total work is below kForkCutoff
// (simrt/tunables.hpp) executes all logical lanes serially on the caller
// with identical lane decomposition (so results are bitwise-identical to
// the forked path) and touches no shared state at all.  The simrt dispatch layer (parallel.hpp) routes
// every parallel_* region through run_auto with the region's iteration
// count as the hint.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "affinity.hpp"
#include "tunables.hpp"
#include "common/buffer.hpp"

namespace portabench::simrt {

class ThreadPool {
 public:
  /// Spawn a pool of `num_threads` logical threads (>= 1).  The calling
  /// thread acts as thread 0, so num_threads-1 workers are created.  The
  /// placement is recorded (and applied where the host OS allows) so the
  /// performance model can reason about locality even when the simulation
  /// host has fewer cores than the modeled machine.
  explicit ThreadPool(std::size_t num_threads, Placement placement = {});

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return num_threads_; }
  [[nodiscard]] const Placement& placement() const noexcept { return placement_; }

  /// Execute task(thread_id) once on every logical thread (ids
  /// 0..size()-1) and block until all complete.  The first exception
  /// thrown by any thread is rethrown on the caller.  Not reentrant: a
  /// task must not call run() on the same pool.
  ///
  /// Templated: the functor is erased to a raw (function pointer, context)
  /// pair — no std::function, no allocation, no virtual dispatch on the
  /// region hot path.  Any callable with signature void(std::size_t) works.
  template <class F>
  void run(F&& task) {
    using Fn = std::remove_reference_t<F>;
    run_impl(
        [](void* ctx, std::size_t tid) { (*static_cast<Fn*>(ctx))(tid); },
        const_cast<std::remove_const_t<Fn>*>(std::addressof(task)));
  }

  /// run() with grain-based fork elision: regions whose total work is
  /// below kForkCutoff execute all logical lanes serially on the caller
  /// (same per-lane closures, same arithmetic, bitwise-identical results
  /// — only the execution strategy changes); larger regions fork as run()
  /// does.  Lanes of a sub-cutoff region share the caller's OS thread, so
  /// use run() directly when distinct OS threads are part of the contract.
  template <class F>
  void run_auto(F&& task, std::size_t work_hint) {
    using Fn = std::remove_reference_t<F>;
    auto* ctx = const_cast<std::remove_const_t<Fn>*>(std::addressof(task));
    auto* fn = +[](void* c, std::size_t tid) { (*static_cast<Fn*>(c))(tid); };
    if (work_hint < kForkCutoff) {
      run_inline(fn, ctx);
    } else {
      run_impl(fn, ctx);
    }
  }

 private:
  /// Raw erased task: fn(ctx, thread_id).
  using TaskFn = void (*)(void*, std::size_t);

  /// Per-worker dispatch slot, padded so each worker spins on its own
  /// cache line.  `go` is the epoch the worker should run next; `parked`
  /// tells the caller whether a condvar notify is needed at all.
  struct alignas(kCacheLineBytes) WorkerSlot {
    std::atomic<std::uint64_t> go{0};
    std::atomic<std::uint32_t> parked{0};
  };

  void run_impl(TaskFn fn, void* ctx);
  /// Execute every logical lane serially on the caller (fork elision for
  /// sub-cutoff regions).  Workers are never signalled: the region leaves
  /// no trace in the epoch protocol.
  void run_inline(TaskFn fn, void* ctx);
  void worker_loop(std::size_t thread_id);
  /// Stash std::current_exception() as the region's first error (cold path).
  void record_error() noexcept;
  /// End the caller's region: clear in_flight_ and rethrow the region's
  /// first error, if any.
  void finish_region();
  /// Spin-then-park until the slot's go epoch reaches `epoch` or shutdown.
  /// Returns false on shutdown.
  bool await_epoch(WorkerSlot& slot, std::uint64_t epoch);

  std::size_t num_threads_;
  Placement placement_;
  std::vector<std::thread> workers_;
  std::vector<WorkerSlot> slots_;  // one per worker (thread ids 1..n-1)

  // Join state: workers arrive with one fetch_add each; the caller waits
  // for num_threads_-1 arrivals.  Padded: the arrival counter is the only
  // line workers write on the join path, and it must not share a line
  // with the fields the caller reads while spinning.
  alignas(kCacheLineBytes) std::atomic<std::size_t> arrived_{0};
  alignas(kCacheLineBytes) std::atomic<bool> caller_parked_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> in_flight_{false};
  std::atomic<bool> has_error_{false};

  // Published task for the current epoch; read by workers after an
  // acquire load of their slot's go epoch.
  TaskFn task_fn_ = nullptr;
  void* task_ctx_ = nullptr;
  std::uint64_t epoch_ = 0;  // caller-owned region counter

  // Slow path only: park/unpark of workers (start_cv_) and caller
  // (done_cv_).  Never touched on a region where everyone is spinning.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace portabench::simrt
