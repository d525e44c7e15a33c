// parallel_for / parallel_reduce over execution spaces.
//
// This is the mini-Kokkos dispatch layer used by the Kokkos frontend
// (Fig. 2b) and, under the hood, by the OpenMP/Julia/Numba CPU frontends
// (which differ in loop order, layout, scheduling, and pinning — not in
// the fork-join mechanism).  Serial and Threads host spaces are provided;
// the GPU spaces live in gpusim and share the same functor style.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "op.hpp"
#include "policy.hpp"
#include "portacheck/hooks.hpp"
#include "thread_pool.hpp"

namespace portabench::simrt {

/// Trivial execution space: runs the functor inline on the caller.
class SerialSpace {
 public:
  static constexpr const char* label = "Serial";
  [[nodiscard]] std::size_t concurrency() const noexcept { return 1; }
};

/// Host-parallel execution space backed by a persistent ThreadPool.
/// Copies share the pool (cheap handles, like Kokkos execution space
/// instances).
class ThreadsSpace {
 public:
  static constexpr const char* label = "Threads";

  explicit ThreadsSpace(std::size_t num_threads, Placement placement = {})
      : pool_(std::make_shared<ThreadPool>(num_threads, std::move(placement))) {}

  [[nodiscard]] std::size_t concurrency() const noexcept { return pool_->size(); }
  [[nodiscard]] ThreadPool& pool() const noexcept { return *pool_; }

 private:
  std::shared_ptr<ThreadPool> pool_;
};

namespace detail {

/// Contiguous block [begin, end) owned by thread t of n under static
/// scheduling; remainder spread one-each over the leading threads
/// (OpenMP static schedule semantics).
struct Block {
  std::size_t begin;
  std::size_t end;
};

inline Block static_block(std::size_t extent, std::size_t num_threads, std::size_t t) {
  const std::size_t base = extent / num_threads;
  const std::size_t rem = extent % num_threads;
  const std::size_t begin = t * base + std::min(t, rem);
  const std::size_t len = base + (t < rem ? 1 : 0);
  return {begin, begin + len};
}

inline std::size_t default_chunk(std::size_t extent, std::size_t num_threads) {
  // Aim for ~chunks_per_thread chunks per thread (load balance), but
  // never chunks so small that per-chunk scheduling overhead exceeds the
  // work: at least min_grain iterations per chunk, relaxed to extent/nt
  // when the extent is too small to give every thread even one such
  // chunk (so all threads still participate).  Both knobs come from the
  // runtime tunables (simrt/tunables.hpp) so the autotuner can retune
  // them; chunking only repartitions iterations, so results stay
  // bitwise-identical across any setting.
  const DispatchTunables tn = dispatch_tunables();
  const std::size_t nt = std::max<std::size_t>(1, num_threads);
  const std::size_t cpt = std::max<std::size_t>(1, tn.chunks_per_thread);
  const std::size_t balanced = (extent + nt * cpt - 1) / (nt * cpt);  // ceil
  const std::size_t per_thread = std::max<std::size_t>(1, extent / nt);
  return std::max(balanced, std::min(std::max<std::size_t>(1, tn.min_grain), per_thread));
}

/// Per-thread chunk queue for dynamic scheduling: a contiguous range of
/// chunk indices drained from the front via fetch_add.  Padded so each
/// owner's hot counter lives on its own cache line — a thief touches a
/// remote line only when its own queue is empty (the old dispatch
/// funnelled every chunk of every thread through one shared counter).
struct alignas(kCacheLineBytes) ChunkQueue {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
};

/// Execute body(thread, chunk) for every chunk index in [0, nchunks).
/// Chunks are dealt to per-thread queues in contiguous blocks (so the
/// common case preserves locality); a thread drains its own queue, then
/// steals round-robin from its right neighbour's.  A steal uses the same
/// fetch_add pop as the owner, so the protocol stays lock-free; the
/// overshoot past `end` from racing pops is benign.  Work is fixed up
/// front, so after one full pass over all queues a thread can retire.
/// `work_hint` is the region's total iteration count, used for grain-based
/// fork elision (ThreadPool::run_auto): a sub-cutoff region drains all the
/// queues on the caller instead of forking.
template <class Body>
void work_steal_run(ThreadPool& pool, std::size_t nchunks, std::size_t work_hint,
                    Body&& body) {
  if (nchunks == 0) return;
  const std::size_t nt = pool.size();
  std::vector<ChunkQueue> queues(nt);
  for (std::size_t t = 0; t < nt; ++t) {
    const Block b = static_block(nchunks, nt, t);
    queues[t].next.store(b.begin, std::memory_order_relaxed);
    queues[t].end = b.end;
  }
  pool.run_auto([&](std::size_t t) {
    for (std::size_t v = 0; v < nt; ++v) {
      ChunkQueue& q = queues[(t + v) % nt];
      for (;;) {
        const std::size_t c = q.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= q.end) break;
        body(t, c);
      }
    }
  }, work_hint);
}

/// Cache-line-padded accumulator slot: per-thread reduce partials must
/// not share lines, or the join's writes ping-pong the line between
/// cores while the region is still running.
template <class T>
struct alignas(kCacheLineBytes) PaddedSlot {
  T value{};
};

// --- portacheck sanitized dispatch (see docs/SANITIZER.md) -----------------
//
// Under PORTABENCH_CHECK each parallel region opens a fresh shadow epoch,
// every logical iteration runs under its own lane id (iterations of one
// region are unordered, so per-iteration lanes flag conflicts even when
// two iterations land on the same pool thread), and the iteration chunks
// are executed in a seed-permuted order to prove schedule independence.

/// Chunked, seed-permuted execution of f over [0, extent) with lane ==
/// iteration index.  Threads grab permuted chunks from a shared counter.
template <class F>
void checked_range_run(ThreadPool& pool, std::size_t extent, std::size_t chunk, F& f) {
  const std::size_t nchunks = (extent + chunk - 1) / chunk;
  const auto order = portacheck::permutation(nchunks, portacheck::order_seed());
  std::atomic<std::size_t> next{0};
  pool.run([&](std::size_t) {
    for (;;) {
      const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= nchunks) return;
      const std::size_t start = order[slot] * chunk;
      const std::size_t stop = std::min(start + chunk, extent);
      for (std::size_t i = start; i < stop; ++i) {
        portacheck::LaneScope lane(i);
        f(i);
      }
    }
  });
}

}  // namespace detail

// ---------------------------------------------------------------------------
// parallel_for — RangePolicy
// ---------------------------------------------------------------------------

/// Serial: f(i) for i in [begin, end).
template <class F>
void parallel_for(const SerialSpace&, const RangePolicy& policy, F&& f) {
  if (portacheck::active()) {
    portacheck::begin_region();
    const std::size_t extent = policy.extent();
    const auto order = portacheck::permutation(extent, portacheck::order_seed());
    for (std::size_t slot = 0; slot < extent; ++slot) {
      const std::size_t i = order[slot];
      portacheck::LaneScope lane(i);
      f(policy.begin + i);
    }
    return;
  }
  for (std::size_t i = policy.begin; i < policy.end; ++i) f(i);
}

/// Threads: iterations distributed per the policy's schedule.
template <class F>
void parallel_for(const ThreadsSpace& space, const RangePolicy& policy, F&& f) {
  const std::size_t extent = policy.extent();
  if (extent == 0) return;
  ThreadPool& pool = space.pool();
  const std::size_t nt = pool.size();

  if (portacheck::active()) {
    portacheck::begin_region();
    const std::size_t chunk =
        policy.chunk != 0 ? policy.chunk : detail::default_chunk(extent, nt);
    auto body = [&](std::size_t i) { f(policy.begin + i); };
    detail::checked_range_run(pool, extent, chunk, body);
    return;
  }

  if (policy.schedule == Schedule::kStatic) {
    pool.run_auto([&](std::size_t t) {
      const auto block = detail::static_block(extent, nt, t);
      for (std::size_t i = block.begin; i < block.end; ++i) f(policy.begin + i);
    }, extent);
    return;
  }

  const std::size_t chunk =
      policy.chunk != 0 ? policy.chunk : detail::default_chunk(extent, nt);
  const std::size_t nchunks = (extent + chunk - 1) / chunk;
  detail::work_steal_run(pool, nchunks, extent, [&](std::size_t, std::size_t c) {
    const std::size_t start = c * chunk;
    const std::size_t stop = std::min(start + chunk, extent);
    for (std::size_t i = start; i < stop; ++i) f(policy.begin + i);
  });
}

// ---------------------------------------------------------------------------
// parallel_for — MDRangePolicy2 (tile-by-tile)
// ---------------------------------------------------------------------------

namespace detail {

inline std::array<std::size_t, 2> effective_tile(const MDRangePolicy2& policy) {
  // Kokkos' host MDRange default: tile the fast dimension wide enough to
  // vectorize, keep the slow dimension small.
  std::array<std::size_t, 2> t = policy.tile;
  if (t[0] == 0) t[0] = 4;
  if (t[1] == 0) t[1] = 64;
  t[0] = std::min(t[0], std::max<std::size_t>(1, policy.extent(0)));
  t[1] = std::min(t[1], std::max<std::size_t>(1, policy.extent(1)));
  return t;
}

template <class F>
void run_tile(const MDRangePolicy2& policy, const std::array<std::size_t, 2>& tile,
              std::size_t tile_index, std::size_t tiles1, F& f) {
  const std::size_t t0 = tile_index / tiles1;
  const std::size_t t1 = tile_index % tiles1;
  const std::size_t i0 = policy.lower[0] + t0 * tile[0];
  const std::size_t j0 = policy.lower[1] + t1 * tile[1];
  const std::size_t i1 = std::min(i0 + tile[0], policy.upper[0]);
  const std::size_t j1 = std::min(j0 + tile[1], policy.upper[1]);
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t j = j0; j < j1; ++j) f(i, j);
  }
}

/// run_tile under the sanitizer: each (i, j) iteration gets its own lane,
/// linearized over the full iteration rectangle (not the tile).
template <class F>
void checked_run_tile(const MDRangePolicy2& policy, const std::array<std::size_t, 2>& tile,
                      std::size_t tile_index, std::size_t tiles1, F& f) {
  auto body = [&](std::size_t i, std::size_t j) {
    portacheck::LaneScope lane((i - policy.lower[0]) * policy.extent(1) +
                               (j - policy.lower[1]));
    f(i, j);
  };
  run_tile(policy, tile, tile_index, tiles1, body);
}

}  // namespace detail

template <class F>
void parallel_for(const SerialSpace&, const MDRangePolicy2& policy, F&& f) {
  if (portacheck::active()) {
    if (policy.extent(0) == 0 || policy.extent(1) == 0) return;
    portacheck::begin_region();
    const auto tile = detail::effective_tile(policy);
    const std::size_t tiles1 = (policy.extent(1) + tile[1] - 1) / tile[1];
    const std::size_t num_tiles =
        ((policy.extent(0) + tile[0] - 1) / tile[0]) * tiles1;
    const auto order = portacheck::permutation(num_tiles, portacheck::order_seed());
    for (std::size_t slot = 0; slot < num_tiles; ++slot) {
      detail::checked_run_tile(policy, tile, order[slot], tiles1, f);
    }
    return;
  }
  for (std::size_t i = policy.lower[0]; i < policy.upper[0]; ++i) {
    for (std::size_t j = policy.lower[1]; j < policy.upper[1]; ++j) f(i, j);
  }
}

template <class F>
void parallel_for(const ThreadsSpace& space, const MDRangePolicy2& policy, F&& f) {
  if (policy.extent(0) == 0 || policy.extent(1) == 0) return;
  const auto tile = detail::effective_tile(policy);
  const std::size_t tiles0 = (policy.extent(0) + tile[0] - 1) / tile[0];
  const std::size_t tiles1 = (policy.extent(1) + tile[1] - 1) / tile[1];
  const std::size_t num_tiles = tiles0 * tiles1;

  ThreadPool& pool = space.pool();
  const std::size_t nt = pool.size();
  if (portacheck::active()) {
    portacheck::begin_region();
    const auto order = portacheck::permutation(num_tiles, portacheck::order_seed());
    std::atomic<std::size_t> next{0};
    pool.run([&](std::size_t) {
      for (;;) {
        const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
        if (slot >= num_tiles) return;
        detail::checked_run_tile(policy, tile, order[slot], tiles1, f);
      }
    });
    return;
  }
  const std::size_t total_iters = policy.extent(0) * policy.extent(1);
  if (policy.schedule == Schedule::kStatic) {
    pool.run_auto([&](std::size_t t) {
      const auto block = detail::static_block(num_tiles, nt, t);
      for (std::size_t ti = block.begin; ti < block.end; ++ti) {
        detail::run_tile(policy, tile, ti, tiles1, f);
      }
    }, total_iters);
    return;
  }
  detail::work_steal_run(pool, num_tiles, total_iters, [&](std::size_t, std::size_t ti) {
    detail::run_tile(policy, tile, ti, tiles1, f);
  });
}

// ---------------------------------------------------------------------------
// parallel_for — TeamPolicy
// ---------------------------------------------------------------------------

template <class F>
void parallel_for(const SerialSpace&, const TeamPolicy& policy, F&& f) {
  // Allocation check hoisted out of the league loop: scratch-free teams
  // (the common case for the Fig. 2 kernels) pay neither the allocation
  // nor the per-team std::fill.
  const bool has_scratch = policy.scratch_bytes != 0;
  std::vector<std::byte> scratch;
  if (has_scratch) scratch.resize(policy.scratch_bytes);
  if (portacheck::active()) {
    portacheck::begin_region();
    const auto order = portacheck::permutation(policy.league, portacheck::order_seed());
    for (std::size_t slot = 0; slot < policy.league; ++slot) {
      const std::size_t league = order[slot];
      if (has_scratch) std::fill(scratch.begin(), scratch.end(), std::byte{0});
      // Teams are the unordered unit: lanes of one team run sequentially and
      // may legitimately share scratch, so the shadow lane is the league rank.
      portacheck::LaneScope lane_scope(league);
      for (std::size_t lane = 0; lane < policy.team_size; ++lane) {
        f(TeamMember(league, lane, policy.team_size, scratch.data(), scratch.size()));
      }
    }
    return;
  }
  for (std::size_t league = 0; league < policy.league; ++league) {
    if (has_scratch) std::fill(scratch.begin(), scratch.end(), std::byte{0});  // fresh per team
    for (std::size_t lane = 0; lane < policy.team_size; ++lane) {
      f(TeamMember(league, lane, policy.team_size, scratch.data(), scratch.size()));
    }
  }
}

template <class F>
void parallel_for(const ThreadsSpace& space, const TeamPolicy& policy, F&& f) {
  if (policy.league == 0) return;
  ThreadPool& pool = space.pool();
  const std::size_t nt = pool.size();
  const bool has_scratch = policy.scratch_bytes != 0;
  if (portacheck::active()) {
    portacheck::begin_region();
    const auto order = portacheck::permutation(policy.league, portacheck::order_seed());
    std::atomic<std::size_t> next{0};
    pool.run([&](std::size_t) {
      std::vector<std::byte> scratch;
      if (has_scratch) scratch.resize(policy.scratch_bytes);
      for (;;) {
        const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
        if (slot >= policy.league) return;
        const std::size_t league = order[slot];
        if (has_scratch) std::fill(scratch.begin(), scratch.end(), std::byte{0});
        portacheck::LaneScope lane_scope(league);
        for (std::size_t lane = 0; lane < policy.team_size; ++lane) {
          f(TeamMember(league, lane, policy.team_size, scratch.data(), scratch.size()));
        }
      }
    });
    return;
  }
  const std::size_t team_iters = policy.league * policy.team_size;
  if (policy.schedule == Schedule::kDynamic) {
    // Teams stolen chunk-by-chunk: one league rank per chunk, per-thread
    // scratch arenas allocated lazily on first use.
    std::vector<std::vector<std::byte>> arenas(nt);
    detail::work_steal_run(pool, policy.league, team_iters,
                           [&](std::size_t t, std::size_t league) {
      std::vector<std::byte>& scratch = arenas[t];
      if (has_scratch) {
        if (scratch.empty()) scratch.resize(policy.scratch_bytes);
        std::fill(scratch.begin(), scratch.end(), std::byte{0});
      }
      for (std::size_t lane = 0; lane < policy.team_size; ++lane) {
        f(TeamMember(league, lane, policy.team_size, scratch.data(), scratch.size()));
      }
    });
    return;
  }
  pool.run_auto([&](std::size_t t) {
    // One scratch arena per pool thread: teams on the same thread run
    // back-to-back and each gets a zeroed arena.  The allocation check is
    // hoisted: scratch-free leagues skip both the allocation and the fill.
    std::vector<std::byte> scratch;
    if (has_scratch) scratch.resize(policy.scratch_bytes);
    const auto block = detail::static_block(policy.league, nt, t);
    for (std::size_t league = block.begin; league < block.end; ++league) {
      if (has_scratch) std::fill(scratch.begin(), scratch.end(), std::byte{0});
      // Host lowering: one pool thread executes all lanes of its team
      // sequentially (Kokkos OpenMP back end behaviour for TeamThreadRange).
      for (std::size_t lane = 0; lane < policy.team_size; ++lane) {
        f(TeamMember(league, lane, policy.team_size, scratch.data(), scratch.size()));
      }
    }
  }, team_iters);
}

// ---------------------------------------------------------------------------
// parallel_reduce — RangePolicy, under any op from op.hpp
// ---------------------------------------------------------------------------

/// Serial reduce: acc starts at op.identity() and f(i, acc) folds element
/// i into it, in index order.
template <ReductionOp Op, class F>
[[nodiscard]] op_value_t<Op> parallel_reduce(const SerialSpace&, const RangePolicy& policy,
                                             Op op, F&& f) {
  op_value_t<Op> acc = op.identity();
  if (portacheck::active()) {
    // No permutation: a serial reduction's accumulation order is part of its
    // contract (fp determinism), but each iteration still gets a lane so
    // side-channel writes from inside reduce bodies are race-checked.
    portacheck::begin_region();
    for (std::size_t i = policy.begin; i < policy.end; ++i) {
      portacheck::LaneScope lane(i - policy.begin);
      f(i, acc);
    }
    return acc;
  }
  for (std::size_t i = policy.begin; i < policy.end; ++i) f(i, acc);
  return acc;
}

/// Threaded reduce: each thread folds its static block into an
/// identity-seeded partial, and the partials join left to right in block
/// order with op — deterministic for a fixed thread count (as with OpenMP
/// reductions under static scheduling), and correct for non-commutative
/// ops.
template <ReductionOp Op, class F>
[[nodiscard]] op_value_t<Op> parallel_reduce(const ThreadsSpace& space,
                                             const RangePolicy& policy, Op op, F&& f) {
  using T = op_value_t<Op>;
  const std::size_t extent = policy.extent();
  ThreadPool& pool = space.pool();
  const std::size_t nt = pool.size();
  // Padded partials: each thread's accumulator slot owns a full cache
  // line, so the end-of-block stores never contend.  The join still walks
  // the slots in thread order — results stay bitwise-identical to the
  // unpadded layout.
  std::vector<detail::PaddedSlot<T>> partial(nt, detail::PaddedSlot<T>{op.identity()});
  if (extent != 0) {
    if (portacheck::active()) {
      // Permute which pool thread owns which static block, but keep each
      // block's iteration order and the block-ordered join: the checked run
      // reshuffles the schedule without perturbing the fold order, so
      // results stay bitwise-identical across seeds.
      portacheck::begin_region();
      const auto order = portacheck::permutation(nt, portacheck::order_seed());
      pool.run([&](std::size_t t) {
        const std::size_t b = order[t];
        T acc = op.identity();
        const auto block = detail::static_block(extent, nt, b);
        for (std::size_t i = block.begin; i < block.end; ++i) {
          portacheck::LaneScope lane(i);
          f(policy.begin + i, acc);
        }
        partial[b].value = acc;
      });
    } else {
      pool.run_auto([&](std::size_t t) {
        T acc = op.identity();
        const auto block = detail::static_block(extent, nt, t);
        for (std::size_t i = block.begin; i < block.end; ++i) f(policy.begin + i, acc);
        partial[t].value = acc;
      }, extent);
    }
  }
  T total = op.identity();
  for (const auto& p : partial) total = op(total, p.value);
  return total;
}

/// Kokkos-shape sum reduce: f(i, acc) accumulates into acc, the total
/// lands in `result`.
template <class Space, class F, class T>
  requires(!ReductionOp<std::remove_cvref_t<F>>)
void parallel_reduce(const Space& space, const RangePolicy& policy, F&& f, T& result) {
  result = parallel_reduce(space, policy, SumOp<T>{}, std::forward<F>(f));
}

}  // namespace portabench::simrt
