// ServeEngine implementation: admission, flush batching, one launch per
// flush in which every job fills, runs and checksums its own arena
// section, and deterministic delivery.  See engine.hpp and
// docs/SERVE.md for the architecture.
#include "engine.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "gemm/kernels_cpu.hpp"
#include "gemm/kernels_tiled.hpp"
#include "gpusim/batch.hpp"
#include "serial.hpp"
#include "simrt/mdarray.hpp"
#include "stencil/kernels.hpp"

namespace portabench::serve {

namespace {

using simrt::LayoutLeft;
using simrt::LayoutRight;
using simrt::RawView2;

/// Arena bytes one job's carved section occupies (inputs + outputs,
/// every sub-section cache-line aligned).
[[nodiscard]] std::size_t job_bytes(const JobDesc& d) {
  const std::size_t n = d.n;
  switch (d.kind) {
    case JobKind::kGemm:
      return 2 * align_up(n * n * input_bytes(d.precision)) +
             align_up(n * n * output_bytes(d.precision));
    case JobKind::kSpmv: {
      const std::size_t cap = n * kSpmvMaxNnzPerRow;
      return align_up((n + 1) * sizeof(std::size_t)) +
             align_up(cap * sizeof(std::size_t)) +
             align_up(cap * input_bytes(d.precision)) +
             2 * align_up(n * input_bytes(d.precision));
    }
    case JobKind::kStencil:
      return 2 * align_up(n * n * sizeof(double));
  }
  return 0;
}

/// Carve `count` elements of U off the front of a job's section; the
/// next sub-section starts cache-line aligned, as job_bytes counts them.
template <class U>
[[nodiscard]] U* carve(std::byte*& cursor, std::size_t count) {
  U* const p = reinterpret_cast<U*>(cursor);
  cursor += align_up(count * sizeof(U));
  return p;
}

/// One GEMM job: fill A and B, run the job's frontend idiom serially
/// (the kernel instantiation run_serial uses, minus the allocation;
/// tiled packs into the engine's pooled scratch), checksum C.
template <class T, class Acc>
[[nodiscard]] double run_gemm_job(const JobDesc& d, std::byte* base,
                                  gpusim::LaunchEngine& engine, std::size_t worker) {
  const std::size_t n = d.n;
  T* const a = carve<T>(base, n * n);
  T* const b = carve<T>(base, n * n);
  Acc* const c = carve<Acc>(base, n * n);
  fill_gemm_inputs<T>(d.frontend, d.precision, d.seed, {a, n * n}, {b, n * n});
  const simrt::SerialSpace space;
  if (d.frontend == Frontend::kJulia) {
    const RawView2<const T, LayoutLeft> A(a, n, n);
    const RawView2<const T, LayoutLeft> B(b, n, n);
    RawView2<Acc, LayoutLeft> C(c, n, n);
    gemm::gemm_julia_style<Acc>(space, A, B, C);
    return view_checksum(C);
  }
  const RawView2<const T, LayoutRight> A(a, n, n);
  const RawView2<const T, LayoutRight> B(b, n, n);
  RawView2<Acc, LayoutRight> C(c, n, n);
  switch (d.frontend) {
    case Frontend::kOpenMP:
      gemm::gemm_openmp_style<Acc>(space, A, B, C);
      break;
    case Frontend::kKokkos:
      gemm::gemm_kokkos_style<Acc>(space, A, B, C);
      break;
    case Frontend::kNumba:
      gemm::gemm_numba_style<Acc>(space, A, B, C);
      break;
    case Frontend::kTiled:
      gemm::gemm_tiled_serial_scratch<Acc>(
          A, B, C,
          gpusim::batch_scratch(engine, worker, gemm::gemm_tiled_scratch_bytes<Acc>(n, n, n)));
      break;
    case Frontend::kJulia:
      break;  // LayoutLeft, above
  }
  return view_checksum(C);
}

/// One SpMV job: fill the banded CSR matrix and x, walk the rows in
/// order with spmv_csr_row_parallel's accumulation, checksum y.
template <class T>
[[nodiscard]] double run_spmv_job(const JobDesc& d, std::byte* base) {
  const std::size_t n = d.n;
  std::size_t* const row_ptr = carve<std::size_t>(base, n + 1);
  std::size_t* const col_idx = carve<std::size_t>(base, n * kSpmvMaxNnzPerRow);
  T* const values = carve<T>(base, n * kSpmvMaxNnzPerRow);
  T* const x = carve<T>(base, n);
  T* const y = carve<T>(base, n);
  fill_spmv_inputs<T>(d.seed, n, row_ptr, col_idx, values, {x, n});
  for (std::size_t r = 0; r < n; ++r) {
    T sum{};
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      sum += values[e] * static_cast<T>(x[col_idx[e]]);
    }
    y[r] = sum;
  }
  return span_checksum(std::span<const T>(y, n));
}

/// One stencil job: fill the input grid, sweep its interior rows through
/// the tier-dispatched SIMD row kernel (pinned bit-identical to
/// sweep_serial on every tier), checksum the output grid.
[[nodiscard]] double run_stencil_job(const JobDesc& d, std::byte* base) {
  const std::size_t n = d.n;
  double* const in = carve<double>(base, n * n);
  double* const out = carve<double>(base, n * n);
  fill_stencil_input(d.seed, {in, n * n});
  const stencil::stencil_detail::sweep_row_fn row = stencil::stencil_detail::pick_sweep_row();
  for (std::size_t i = 1; i + 1 < n; ++i) {
    row(in + (i - 1) * n, in + i * n, in + (i + 1) * n, out + i * n, n);
  }
  return span_checksum(std::span<const double>(out, n * n));
}

/// One job, start to finish, on its own zeroed arena section; returns its
/// checksum.  `worker` picks the tiled GEMM's packing scratch.
[[nodiscard]] double run_job(const JobDesc& d, std::byte* base, gpusim::LaunchEngine& engine,
                             std::size_t worker) {
  switch (d.kind) {
    case JobKind::kGemm:
      switch (d.precision) {
        case Precision::kDouble:
          return run_gemm_job<double, double>(d, base, engine, worker);
        case Precision::kSingle:
          return run_gemm_job<float, float>(d, base, engine, worker);
        case Precision::kHalfIn:
          return run_gemm_job<half, float>(d, base, engine, worker);
      }
      return 0.0;
    case JobKind::kSpmv:
      return d.precision == Precision::kSingle ? run_spmv_job<float>(d, base)
                                               : run_spmv_job<double>(d, base);
    case JobKind::kStencil:
      return run_stencil_job(d, base);
  }
  return 0.0;
}

}  // namespace

ServeEngine::Shard::Shard(const ServeConfig& cfg, gpusim::DeviceContext& shard_ctx)
    : queue(cfg.queue_capacity),
      ctx(&shard_ctx),
      stream(shard_ctx, gpusim::StreamMode::kAsync) {
  slots.reserve(cfg.batch_jobs);
}

ServeEngine::ServeEngine(ServeConfig config) : config_(std::move(config)) {
  PB_EXPECTS(config_.shards > 0);
  PB_EXPECTS(config_.queue_capacity > 0);
  PB_EXPECTS(config_.batch_jobs > 0);
  PB_EXPECTS(config_.max_n > 0);
  topo_ = std::make_unique<gpusim::DeviceTopology>(config_.topology);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_, topo_->context(device_of(i))));
  }
}

ServeEngine::~ServeEngine() { shutdown(); }

AdmitError ServeEngine::try_submit(const JobDesc& desc) {
  AdmitError err = AdmitError::kNone;
  if (!accepting_.load(std::memory_order_acquire)) {
    err = AdmitError::kShutdown;
  } else if (desc.n == 0) {
    err = AdmitError::kZeroSize;
  } else if (desc.n > config_.max_n) {
    err = AdmitError::kTooLarge;
  } else if (!supported(desc.kind, desc.frontend, desc.precision)) {
    err = AdmitError::kUnsupported;
  }
  if (err != AdmitError::kNone) {
    rejected_by_[static_cast<std::size_t>(err)].fetch_add(1, std::memory_order_relaxed);
    return err;
  }

  Shard& shard = *shards_[desc.id % shards_.size()];
  if (!shard.queue.try_push(desc)) {
    rejected_by_[static_cast<std::size_t>(AdmitError::kQueueFull)].fetch_add(
        1, std::memory_order_relaxed);
    return AdmitError::kQueueFull;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (shard.stream.mode() == gpusim::StreamMode::kAsync) {
    // Doorbell: the first job into an idle shard schedules its flush.  A
    // ring that finds the bell set is covered by the flush already
    // scheduled, which clears it only after this job's push.
    if (!shard.doorbell.exchange(true, std::memory_order_acq_rel)) schedule_flush(shard);
  } else {
    // Eager streams flush inline on the submitter, so they keep the count
    // trigger: the sanitized tier still runs multi-job batches.
    const std::uint64_t nth = shard.submitted.fetch_add(1, std::memory_order_relaxed) + 1;
    if (nth % config_.batch_jobs == 0) schedule_flush(shard);
  }
  return AdmitError::kNone;
}

void ServeEngine::schedule_flush(Shard& shard) {
  std::lock_guard<ShardMutex> lock(shard.submit_mutex);
  try {
    shard.stream.enqueue(0.0, [this, &shard] {
      // Clear the bell before the first pop: a job whose ring comes later
      // schedules the next flush.  Jobs that rang earlier may fill more
      // than one batch, so go on until a batch comes back short, and
      // throw only then, so a fault never strands them.
      shard.doorbell.exchange(false, std::memory_order_acq_rel);
      bool failed = false;
      for (;;) {
        const FlushOutcome out = flush_shard(shard, config_.batch_jobs);
        if (out.injected != 0) {
          batch_errors_.fetch_add(1, std::memory_order_relaxed);
          failed = true;
        }
        if (out.popped < config_.batch_jobs) break;
      }
      if (failed) throw batch_error("serve: injected batch failure");
    });
  } catch (const batch_error&) {
    // Eager streams run the op inline, so there is no error stash: the
    // batch error surfaces here and stops with us (already counted) —
    // a submitter never sees its accept turned into a throw.
  }
}

ServeEngine::FlushOutcome ServeEngine::flush_shard(Shard& shard, std::size_t max_jobs) {
  std::lock_guard<ShardMutex> lock(shard.flush_mutex);
  std::vector<JobSlot>& slots = shard.slots;
  slots.clear();
  JobDesc d;
  while (slots.size() < max_jobs && shard.queue.try_pop(d)) {
    slots.push_back(JobSlot{d});
  }
  FlushOutcome out;
  out.popped = slots.size();
  if (slots.empty()) return out;

  // Deterministic batch order: ids.  The arena layout and delivery
  // follow it, so a replayed trace gives a byte-identical run.
  std::sort(slots.begin(), slots.end(),
            [](const JobSlot& a, const JobSlot& b) { return a.desc.id < b.desc.id; });

  std::size_t total = 0;
  for (const JobSlot& slot : slots) total += job_bytes(slot.desc);
  const std::span<std::byte> slab = shard.arena.acquire(total);
  std::byte* cursor = slab.data();
  for (JobSlot& slot : slots) {
    slot.base = cursor;
    cursor += job_bytes(slot.desc);
  }

  if (config_.fail_injection) {
    for (JobSlot& slot : slots) {
      if (config_.fail_injection(slot.desc)) {
        slot.failed = true;
        ++out.injected;
      }
    }
  }

  // One launch: each live job fills, runs and checksums its own section.
  std::size_t threads = 0;
  for (const JobSlot& slot : slots) {
    if (!slot.failed) threads += std::size_t{slot.desc.n} * slot.desc.n;
  }
  if (out.injected < slots.size()) {
    // Tallied on the shard's device, so per-GCD counters mirror where the
    // serving work ran (a block per live job).
    shard.ctx->note_launch(gpusim::Dim3{slots.size() - out.injected, 1, 1},
                           gpusim::Dim3{1, 1, 1});
  }
  gpusim::LaunchEngine& engine = shard.ctx->engine();
  const std::span<JobSlot> sl(slots);
  gpusim::run_batch(engine, sl.size(), threads, [sl, &engine](std::size_t worker, std::size_t i) {
    JobSlot& slot = sl[i];
    if (!slot.failed) slot.checksum = run_job(slot.desc, slot.base, engine, worker);
  });

  // Delivery in batch order.
  deliver(shard);
  batches_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void ServeEngine::deliver(Shard& shard) {
  for (const JobSlot& slot : shard.slots) {
    JobResult r;
    r.id = slot.desc.id;
    if (slot.failed) {
      r.status = JobStatus::kFailed;
      failed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      r.checksum = slot.checksum;
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (config_.on_complete) config_.on_complete(r);
  }
}

void ServeEngine::drain() {
  // Wait out every shard's scheduled flushes before the first drain
  // flush, so the drain phase starts from one queue state; a stashed
  // batch_error was counted at its throw site, so absorbing it here is
  // not a lost error.
  for (auto& sp : shards_) {
    try {
      sp->stream.synchronize();
    } catch (const batch_error&) {
    }
  }
  for (auto& sp : shards_) {
    for (;;) {
      const FlushOutcome out = flush_shard(*sp, config_.batch_jobs);
      if (out.injected != 0) batch_errors_.fetch_add(1, std::memory_order_relaxed);
      if (out.popped == 0) break;
    }
  }
}

void ServeEngine::shutdown() {
  accepting_.store(false, std::memory_order_release);
  drain();
}

ServeStats ServeEngine::stats() const {
  ServeStats st;
  st.accepted = accepted_.load(std::memory_order_relaxed);
  st.completed = completed_.load(std::memory_order_relaxed);
  st.failed = failed_.load(std::memory_order_relaxed);
  st.batches = batches_.load(std::memory_order_relaxed);
  st.batch_errors = batch_errors_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < st.rejected_by.size(); ++i) {
    st.rejected_by[i] = rejected_by_[i].load(std::memory_order_relaxed);
    st.rejected_total += st.rejected_by[i];
  }
  for (const auto& sp : shards_) {
    Shard& shard = *sp;
    std::lock_guard<ShardMutex> lock(shard.flush_mutex);
    st.arena_high_water = std::max(st.arena_high_water, shard.arena.high_water());
    st.arena_grow_events += shard.arena.grow_events();
  }
  return st;
}

}  // namespace portabench::serve
