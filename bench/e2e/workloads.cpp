// The four workloads of the end-to-end benchmark (bench/e2e/README.md).
//
// A pass generates its inputs from the seed, constructs the engine or
// topology with the program's own defaults, runs the measured loop from
// this thread (the only client), and verifies outputs bitwise against
// the serial oracles: every 8th job of the trace against
// serve::run_serial on the serve workloads, every call on the device
// workloads.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "e2e.hpp"
#include "multigpu/gemm.hpp"
#include "multigpu/stencil.hpp"
#include "serve/engine.hpp"
#include "serve/serial.hpp"
#include "serve/trace.hpp"

namespace portabench::e2e {

namespace {

// serve-open-gemm: a fixed offered-rate ladder over one engine and one
// continuous trace.  The e2e metrics come from the 6000 req/s rung, a
// quarter of what a busy 4-core host still serves without shedding; the
// rungs above it measure capacity (per-layer).
constexpr std::array<double, 5> kRungRps{3000, 6000, 12000, 24000, 48000};
constexpr std::size_t kLatencyRung = 1;
constexpr double kLatencyLimitMs = 100.0;
constexpr double kDrainLimitMs = 100.0;
// serve-*: the warm-up batch is the same for every --seed, so set-up time
// and set-up memory do not depend on the measured trace.
constexpr std::uint64_t kWarmupSeed = 0x5EED;
// serve-*: every kVerifyEvery-th job of the trace is checked bitwise.
constexpr std::size_t kVerifyEvery = 8;
// serve-closed-mixed: callers waiting for a reply (split evenly over the
// shards), and the rate the outcome slots are sized for (far above this
// host's capacity).
constexpr std::size_t kOutstanding = 512;
constexpr double kClosedMaxRps = 40000.0;
// device-stencil: problem shape (device-gemm's is kDeviceGemmN).
constexpr std::size_t kStencilSide = 64;
constexpr std::size_t kStencilIterations = 2000;

constexpr double kNsToMs = 1e-6;
constexpr double kNsToS = 1e-9;
constexpr double kMiss = std::numeric_limits<double>::infinity();

std::string rung_key(std::size_t r, const char* what) {
  return "rung." + std::to_string(static_cast<long>(kRungRps[r])) + "." + what;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One serve workload's engine plus the outcome slots its completion
/// callback writes: one slot per id (flush threads never share an
/// element) and, per shard, one per completion in delivery order.  The
/// slots are read only after ServeEngine::drain(), which orders the
/// callbacks' writes before the reads.
class ServeClient {
 public:
  static constexpr std::uint8_t kPending = 0, kOk = 1, kFailed = 2;

  explicit ServeClient(std::size_t capacity)
      : capacity_(capacity),
        done_ns_(std::make_unique_for_overwrite<std::int64_t[]>(capacity)),
        order_ns_(std::make_unique_for_overwrite<std::int64_t[]>(capacity)),
        checksum_(std::make_unique_for_overwrite<double[]>(capacity)),
        status_(std::make_unique<std::uint8_t[]>(capacity)),
        shard_done_(serve::ServeConfig{}.shards) {}
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Construct the engine with ServeConfig defaults and flush one warm-up
  /// batch on every shard; returns the seconds this took.  Warm-up ids
  /// lie past the measured range, so their outcomes are not recorded.
  double setup(const serve::TraceConfig& trace) {
    const std::int64_t t0 = now_ns();
    serve::ServeConfig cfg;
    cfg.on_complete = [this](const serve::JobResult& r) { complete(r); };
    engine_ = std::make_unique<serve::ServeEngine>(std::move(cfg));
    serve::TraceConfig warm = trace;
    warm.seed = kWarmupSeed;
    serve::TraceGen gen(warm);
    const std::size_t jobs = engine_->config().shards * engine_->config().batch_jobs;
    for (std::size_t k = 0; k < jobs; ++k) {
      serve::JobDesc d = gen.next();
      d.id = capacity_ + k;
      (void)engine_->try_submit(d);
    }
    engine_->drain();
    const double seconds = static_cast<double>(now_ns() - t0) * kNsToS;
    completions_.store(0, std::memory_order_relaxed);
    for (auto& c : shard_done_) c.store(0, std::memory_order_relaxed);
    base_stats_ = engine_->stats();
    base_launches_ = engine_->context().counters().kernel_launches;
    return seconds;
  }

  [[nodiscard]] serve::ServeEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] std::uint8_t status(std::uint64_t id) const { return status_[id]; }
  [[nodiscard]] std::int64_t done_ns(std::uint64_t id) const { return done_ns_[id]; }
  /// Shards of the engine; a job's id selects its shard (id % shards).
  [[nodiscard]] std::size_t shards() const noexcept { return shard_done_.size(); }
  /// Completion time of the k-th job shard `s` delivered in the pass.
  [[nodiscard]] std::int64_t order_ns(std::size_t s, std::size_t k) const {
    return order_ns_[s + k * shards()];
  }
  [[nodiscard]] std::uint64_t completions() const noexcept {
    return completions_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t completions(std::size_t shard) const noexcept {
    return shard_done_[shard].load(std::memory_order_acquire);
  }
  /// Block until a completion arrives after `seen` were counted.
  void wait_past(std::uint64_t seen) const noexcept {
    completions_.wait(seen, std::memory_order_acquire);
  }

  /// Serve-layer counts of the measured pass (deltas past set-up).
  void layer_counts(Values& layer, std::size_t submitted) const {
    const serve::ServeStats st = engine_->stats();
    const auto delta = [](std::uint64_t now, std::uint64_t base) {
      return static_cast<double>(now - base);
    };
    const std::size_t full = static_cast<std::size_t>(serve::AdmitError::kQueueFull);
    const double batches = delta(st.batches, base_stats_.batches);
    const double jobs = delta(st.completed + st.failed, base_stats_.completed + base_stats_.failed);
    const double launches =
        delta(engine_->context().counters().kernel_launches, base_launches_);
    layer["serve.accept_ratio"] =
        submitted == 0 ? 0.0 : delta(st.accepted, base_stats_.accepted) / submitted;
    layer["serve.shed_jobs"] = delta(st.rejected_by[full], base_stats_.rejected_by[full]);
    layer["serve.batches"] = batches;
    layer["serve.jobs_per_batch"] = batches > 0 ? jobs / batches : 0.0;
    layer["serve.launches_per_batch"] = batches > 0 ? launches / batches : 0.0;
    layer["serve.arena_grow_events"] =
        delta(st.arena_grow_events, base_stats_.arena_grow_events);
    layer["serve.arena_high_water_bytes"] = static_cast<double>(st.arena_high_water);
  }

  struct Verified {
    std::uint64_t checked = 0;
    std::uint64_t mismatched = 0;
    double serial_s = 0.0;
  };

  /// Check every kVerifyEvery-th job of the trace, when delivered,
  /// bitwise against serve::run_serial.  `corrupt` perturbs the first
  /// expected value.
  [[nodiscard]] Verified verify(std::span<const serve::JobDesc> jobs, bool corrupt) const {
    Verified v;
    for (std::size_t k = 0; k < jobs.size(); k += kVerifyEvery) {
      const serve::JobDesc& d = jobs[k];
      if (status_[d.id] != kOk) continue;
      const std::int64_t t = now_ns();
      double expected = serve::run_serial(d).checksum;
      v.serial_s += static_cast<double>(now_ns() - t) * kNsToS;
      if (corrupt && v.checked == 0) expected = std::nextafter(expected, kMiss);
      ++v.checked;
      if (!same_bits(expected, checksum_[d.id])) ++v.mismatched;
    }
    return v;
  }

 private:
  void complete(const serve::JobResult& r) {
    const std::int64_t t = now_ns();
    if (r.id < capacity_) {
      done_ns_[r.id] = t;
      checksum_[r.id] = r.checksum;
      status_[r.id] = r.status == serve::JobStatus::kOk ? kOk : kFailed;
    }
    // Shard s's k-th completion lands in slot s + k * shards: below
    // capacity whenever the shard's k-th id is.
    const std::size_t s = r.id % shards();
    const std::uint64_t k = shard_done_[s].fetch_add(1, std::memory_order_release);
    if (s + k * shards() < capacity_) order_ns_[s + k * shards()] = t;
    completions_.fetch_add(1, std::memory_order_release);
    completions_.notify_one();
  }

  std::size_t capacity_;
  std::unique_ptr<std::int64_t[]> done_ns_;
  std::unique_ptr<std::int64_t[]> order_ns_;
  std::unique_ptr<double[]> checksum_;
  std::unique_ptr<std::uint8_t[]> status_;
  std::vector<std::atomic<std::uint64_t>> shard_done_;
  mutable std::atomic<std::uint64_t> completions_{0};
  serve::ServeStats base_stats_;
  std::uint64_t base_launches_ = 0;
  // Last: destroyed first, so flush threads stop before the slots go.
  std::unique_ptr<serve::ServeEngine> engine_;
};

/// Fold the verification of a serve pass into its result.
void apply_verification(Pass& p, const ServeClient::Verified& v, double served_us_per_job) {
  p.failed += v.mismatched;
  p.correct = p.correct && v.mismatched == 0;
  p.detail["verify.checked"] = static_cast<double>(v.checked);
  p.detail["verify.mismatched"] = static_cast<double>(v.mismatched);
  if (v.checked > 0) {
    const double serial_us = v.serial_s * 1e6 / static_cast<double>(v.checked);
    p.layer["kernel.serial_us_per_unit"] = serial_us;
    if (served_us_per_job > 0.0) p.layer["kernel.speedup_vs_serial"] = serial_us / served_us_per_job;
  }
}

void admit_detail(Pass& p, const std::vector<double>& admit_us) {
  if (admit_us.empty()) return;
  p.detail["load.admit_us_p50"] = percentile_of(admit_us, 50.0);
  p.detail["load.admit_us_p99"] = percentile_of(admit_us, 99.0);
}

// --- serve-open-gemm ---------------------------------------------------------

Pass open_pass(std::uint64_t seed, double seconds, bool corrupt, Tracer* tr) {
  Pass p;
  const std::int64_t prep0 = now_ns();
  const serve::TraceConfig tc = serve_trace(true, seed);
  const double rung_s = seconds / static_cast<double>(kRungRps.size());
  serve::TraceGen gen(tc);
  Xoshiro256 arrivals(SplitMix64(seed).next());  // independent of the job stream
  std::vector<serve::JobDesc> jobs;
  std::vector<std::int64_t> due;  // ns after the ladder starts
  std::array<std::size_t, kRungRps.size() + 1> first{};
  for (std::size_t r = 0; r < kRungRps.size(); ++r) {
    first[r] = jobs.size();
    // Poisson arrivals, restarted at the rung boundary (memoryless).
    double t = rung_s * static_cast<double>(r);
    for (;;) {
      t -= std::log1p(-arrivals.uniform()) / kRungRps[r];
      if (t >= rung_s * static_cast<double>(r + 1)) break;
      jobs.push_back(gen.next());
      due.push_back(static_cast<std::int64_t>(t * 1e9));
    }
  }
  first.back() = jobs.size();
  const std::size_t n = jobs.size();
  std::vector<std::int64_t> submit_ns(n);
  std::vector<std::uint8_t> refused(n);
  std::vector<double> admit_us;
  if (tr != nullptr) admit_us.reserve(n);
  ServeClient client(n);
  p.prep_s = static_cast<double>(now_ns() - prep0) * kNsToS;
  p.setup_s = client.setup(tc);

  serve::ServeEngine& engine = client.engine();
  const std::int64_t t0 = now_ns();
  std::size_t i = 0;
  while (i < n) {
    std::int64_t now = now_ns() - t0;
    if (due[i] > now) {
      sleep_until_ns(t0 + due[i]);  // the generator sleeps; it never spins
      continue;
    }
    // Submit every job already due, once: a refusal is final.
    for (; i < n && due[i] <= now; ++i) {
      const std::int64_t s = now_ns();
      refused[i] = engine.try_submit(jobs[i]) != serve::AdmitError::kNone;
      submit_ns[i] = s - t0;
      now = s - t0;
      if (tr != nullptr) {
        const std::int64_t e = now_ns();
        tr->span("try_submit", "serve.admit", s, e, jobs[i].id);
        admit_us.push_back(static_cast<double>(e - s) * 1e-3);
      }
    }
  }
  engine.drain();
  const std::int64_t drained = now_ns();
  if (tr != nullptr) tr->span("ladder", "client", t0, drained, 0);

  std::array<double, kRungRps.size()> goodput{};
  std::size_t best = kRungRps.size();
  for (std::size_t r = 0; r < kRungRps.size(); ++r) {
    std::vector<double> latency;
    latency.reserve(first[r + 1] - first[r]);
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::int64_t last_done = 0;
    // The rung's limit test counts a refusal as a miss; the reported
    // latency is that of the delivered jobs, the rest count as failed.
    std::vector<double> delivered;
    for (std::size_t k = first[r]; k < first[r + 1]; ++k) {
      if (refused[k] != 0) {
        ++shed;
        latency.push_back(kMiss);  // a refused request misses every limit
        continue;
      }
      if (client.status(k) != ServeClient::kOk) {
        if (client.status(k) == ServeClient::kPending) p.correct = false;  // lost
        latency.push_back(kMiss);
        continue;
      }
      ++completed;
      const std::int64_t done = client.done_ns(k) - t0;
      last_done = std::max(last_done, done);
      latency.push_back(static_cast<double>(done - due[k]) * kNsToMs);
      delivered.push_back(latency.back());
      if (tr != nullptr) tr->async_span("job", "serve.job", t0 + due[k], t0 + done, jobs[k].id);
    }
    const double offered = static_cast<double>(first[r + 1] - first[r]);
    const double rung_end_ns = rung_s * 1e9 * static_cast<double>(r + 1);
    const double drain_ms = std::max(0.0, (static_cast<double>(last_done) - rung_end_ns) * kNsToMs);
    const double p99 = percentile_of(latency, 99.0);
    goodput[r] = static_cast<double>(completed) / rung_s;
    p.detail[rung_key(r, "offered_rps")] = offered / rung_s;
    p.detail[rung_key(r, "goodput_rps")] = goodput[r];
    p.detail[rung_key(r, "latency_ms_p50")] = percentile_of(latency, 50.0);
    p.detail[rung_key(r, "latency_ms_p99")] = p99;
    p.detail[rung_key(r, "latency_ms_p999")] = percentile_of(latency, 99.9);
    p.detail[rung_key(r, "drain_ms")] = drain_ms;
    p.layer[rung_key(r, "shed_frac")] = offered > 0 ? static_cast<double>(shed) / offered : 0.0;
    if (p99 <= kLatencyLimitMs && shed == 0 && drain_ms <= kDrainLimitMs) best = r;
    if (r <= kLatencyRung) {
      p.attempted += first[r + 1] - first[r];
      p.failed += first[r + 1] - first[r] - completed;
    }
    if (r == kLatencyRung) p.latency_ms = std::move(delivered);
  }
  if (p.latency_ms.empty()) p.correct = false;  // nothing delivered to time
  p.throughput_per_s = goodput[kLatencyRung];
  p.detail["max_rate_rps"] = best < kRungRps.size() ? kRungRps[best] : 0.0;
  p.layer["serve.capacity_rps"] = goodput.back();
  p.primary = percentile_of(p.latency_ms, 50.0);

  std::vector<double> late_ms(n);
  for (std::size_t k = 0; k < n; ++k) {
    late_ms[k] = static_cast<double>(submit_ns[k] - due[k]) * kNsToMs;
  }
  p.layer["client.late_ms_p99"] = percentile_of(late_ms, 99.0);
  client.layer_counts(p.layer, n);
  admit_detail(p, admit_us);

  const std::int64_t v0 = now_ns();
  const double top = goodput.back();
  apply_verification(p, client.verify(jobs, corrupt), top > 0 ? 1e6 / top : 0.0);
  if (tr != nullptr) tr->span("verify", "client", v0, now_ns(), 0);
  return p;
}

// --- serve-closed-mixed ------------------------------------------------------

Pass closed_pass(std::uint64_t seed, double seconds, bool corrupt, Tracer* tr) {
  Pass p;
  const std::int64_t prep0 = now_ns();
  const serve::TraceConfig tc = serve_trace(false, seed);
  const std::size_t capacity =
      std::max(4 * kOutstanding, static_cast<std::size_t>(seconds * kClosedMaxRps));
  std::vector<serve::JobDesc> jobs;
  std::vector<std::int64_t> submit_ns;
  std::vector<std::uint8_t> refused;
  jobs.reserve(capacity);
  submit_ns.reserve(capacity);
  refused.reserve(capacity);
  std::vector<double> admit_us;
  if (tr != nullptr) admit_us.reserve(capacity);
  ServeClient client(capacity);
  p.prep_s = static_cast<double>(now_ns() - prep0) * kNsToS;
  p.setup_s = client.setup(tc);

  // Each caller sends its next request to the shard its last reply came
  // from (a job's id selects its shard), so every shard keeps the same
  // number of callers waiting and a slow shard cannot soak up the others'.
  serve::ServeEngine& engine = client.engine();
  serve::TraceGen gen(tc);
  const std::size_t shards = client.shards();
  const std::size_t window = kOutstanding / shards;
  std::vector<std::uint64_t> accepted(shards, 0);
  std::vector<std::uint64_t> next_id(shards);
  for (std::size_t s = 0; s < shards; ++s) next_id[s] = s;
  std::size_t last = 0;
  const std::int64_t t0 = now_ns();
  const std::int64_t stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  for (;;) {
    const std::int64_t b = now_ns();
    if (b >= stop) break;
    const std::uint64_t seen = client.completions();
    std::size_t shard = shards;
    for (std::size_t j = 1; j <= shards && shard == shards; ++j) {
      const std::size_t s = (last + j) % shards;
      if (accepted[s] - client.completions(s) < window) shard = s;
    }
    if (shard == shards) {
      client.wait_past(seen);  // every caller is waiting for its reply
      continue;
    }
    if (next_id[shard] >= capacity) break;
    last = shard;
    serve::JobDesc d = gen.next();
    d.id = next_id[shard];
    next_id[shard] += shards;
    jobs.push_back(d);
    const bool ok = engine.try_submit(d) == serve::AdmitError::kNone;
    submit_ns.push_back(b - t0);
    refused.push_back(ok ? 0 : 1);
    accepted[shard] += ok ? 1 : 0;
    if (tr != nullptr) {
      const std::int64_t e = now_ns();
      tr->span("try_submit", "serve.admit", b, e, d.id);
      admit_us.push_back(static_cast<double>(e - b) * 1e-3);
    }
  }
  engine.drain();
  const std::int64_t end = now_ns();
  if (tr != nullptr) tr->span("closed-loop", "client", t0, end, 0);

  const std::size_t n = jobs.size();
  std::uint64_t completed = 0;
  std::vector<double> late_ms;
  std::vector<std::size_t> nth_accepted(shards, 0);
  p.latency_ms.reserve(n);
  // Latency is that of the delivered jobs; the rest count as failed.
  for (std::size_t k = 0; k < n; ++k) {
    if (refused[k] != 0) continue;
    // A shard's j-th job past its window waited for the shard's
    // (j - window)-th reply: how late the client issued it after that.
    const std::size_t s = jobs[k].id % shards;
    if (nth_accepted[s] >= window) {
      late_ms.push_back(static_cast<double>(t0 + submit_ns[k] -
                                            client.order_ns(s, nth_accepted[s] - window)) *
                        kNsToMs);
    }
    ++nth_accepted[s];
    const std::uint64_t id = jobs[k].id;
    if (client.status(id) != ServeClient::kOk) {
      if (client.status(id) == ServeClient::kPending) p.correct = false;  // lost
      continue;
    }
    ++completed;
    const std::int64_t done = client.done_ns(id) - t0;
    p.latency_ms.push_back(static_cast<double>(done - submit_ns[k]) * kNsToMs);
    if (tr != nullptr) tr->async_span("job", "serve.job", t0 + submit_ns[k], t0 + done, id);
  }
  if (p.latency_ms.empty()) p.correct = false;  // nothing delivered to time
  p.attempted = n;
  p.failed = n - completed;
  p.throughput_per_s = static_cast<double>(completed) / (static_cast<double>(end - t0) * kNsToS);
  p.primary = p.throughput_per_s;
  p.primary_lower = false;
  p.detail["jobs"] = static_cast<double>(n);
  p.detail["callers"] = static_cast<double>(window * shards);
  p.layer["client.late_ms_p99"] = percentile_of(late_ms, 99.0);
  client.layer_counts(p.layer, n);
  admit_detail(p, admit_us);

  const std::int64_t v0 = now_ns();
  apply_verification(p, client.verify(jobs, corrupt),
                     p.throughput_per_s > 0 ? 1e6 / p.throughput_per_s : 0.0);
  if (tr != nullptr) tr->span("verify", "client", v0, now_ns(), 0);
  return p;
}

// --- device-gemm / device-stencil --------------------------------------------

/// device-gemm's call: C = A * B, FP64 768^3, sharded over both devices.
struct GemmCall {
  static constexpr const char* kName = "gemm_sharded";
  static constexpr std::size_t n = kDeviceGemmN;
  std::vector<double> a, b, c, expected;

  explicit GemmCall(std::uint64_t seed) : a(n * n), b(n * n), c(n * n), expected(n * n) {
    Xoshiro256 rng(seed);
    fill_uniform(std::span<double>(a), rng);
    fill_uniform(std::span<double>(b), rng);
  }
  void oracle() {
    multigpu::gemm_sharded_oracle<double>({a.data(), n, n}, {b.data(), n, n},
                                          {expected.data(), n, n});
  }
  /// Poison the output, so a call that skips a panel cannot pass.
  void reset() { std::fill(c.begin(), c.end(), std::numeric_limits<double>::quiet_NaN()); }
  gpusim::PipelineStats operator()(gpusim::DeviceTopology& topo) {
    return multigpu::gemm_sharded<double>(topo, {a.data(), n, n}, {b.data(), n, n},
                                          {c.data(), n, n});
  }
  [[nodiscard]] const std::vector<double>& result() const { return c; }
};

/// device-stencil's call: 2000 Jacobi sweeps of a 64x64 grid, slab-
/// sharded over both devices with halo exchange every sweep.
struct StencilCall {
  static constexpr const char* kName = "stencil_sharded";
  static constexpr std::size_t n = kStencilSide;
  std::vector<double> initial, grid, expected;

  explicit StencilCall(std::uint64_t seed) : initial(n * n), grid(n * n) {
    Xoshiro256 rng(seed);
    fill_uniform(std::span<double>(initial), rng);
  }
  void oracle() {
    expected = multigpu::stencil_iterated_oracle(initial, n, n, kStencilIterations);
  }
  /// The call updates the grid in place: restore the initial grid.
  void reset() { std::copy(initial.begin(), initial.end(), grid.begin()); }
  gpusim::PipelineStats operator()(gpusim::DeviceTopology& topo) {
    multigpu::StencilShardOptions opt;
    opt.iterations = kStencilIterations;
    return multigpu::stencil_sharded(topo, std::span<double>(grid), n, n, opt);
  }
  [[nodiscard]] const std::vector<double>& result() const { return grid; }
};

gpusim::DeviceCounters sum_counters(const gpusim::DeviceTopology& topo) {
  gpusim::DeviceCounters sum;
  for (std::size_t d = 0; d < topo.devices(); ++d) {
    const gpusim::DeviceCounters c = topo.context(d).counters();
    sum.kernel_launches += c.kernel_launches;
    sum.bytes_h2d += c.bytes_h2d;
    sum.bytes_d2h += c.bytes_d2h;
    sum.bytes_d2d_in += c.bytes_d2d_in;
  }
  return sum;
}

template <class Call>
Pass device_pass(std::uint64_t seed, double seconds, bool corrupt, Tracer* tr) {
  Pass p;
  const std::int64_t prep0 = now_ns();
  Call call(seed);
  const std::int64_t oracle0 = now_ns();
  call.oracle();
  const double serial_us = static_cast<double>(now_ns() - oracle0) * 1e-3;
  if (corrupt) call.expected[0] = std::nextafter(call.expected[0], kMiss);
  call.reset();
  p.prep_s = static_cast<double>(now_ns() - prep0) * kNsToS;

  const std::int64_t setup0 = now_ns();
  gpusim::DeviceTopology topo(device_topology());
  (void)call(topo);  // warm-up call
  p.setup_s = static_cast<double>(now_ns() - setup0) * kNsToS;

  const gpusim::DeviceCounters before = sum_counters(topo);
  std::vector<double> late_ms;
  double modeled_s = 0.0;
  double wall_s = 0.0;
  const std::int64_t t0 = now_ns();
  const std::int64_t stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t prev_end = t0;
  while (now_ns() < stop) {
    call.reset();
    const std::int64_t b = now_ns();
    const gpusim::PipelineStats st = call(topo);
    const std::int64_t e = now_ns();
    p.latency_ms.push_back(static_cast<double>(e - b) * kNsToMs);
    late_ms.push_back(static_cast<double>(b - prev_end) * kNsToMs);
    modeled_s += st.modeled_s;
    wall_s += static_cast<double>(e - b) * kNsToS;
    ++p.attempted;
    const bool ok = std::memcmp(call.result().data(), call.expected.data(),
                                call.expected.size() * sizeof(double)) == 0;
    if (!ok) {
      ++p.failed;
      p.correct = false;
    }
    prev_end = e;
    if (tr != nullptr) {
      tr->span(Call::kName, "device.call", b, e, p.attempted);
      tr->span("verify", "client", e, now_ns(), p.attempted);
    }
  }
  const std::int64_t end = now_ns();
  const gpusim::DeviceCounters after = sum_counters(topo);

  const double calls = static_cast<double>(p.attempted);
  const auto per_call = [calls](std::uint64_t a, std::uint64_t b) {
    return calls > 0 ? static_cast<double>(a - b) / calls : 0.0;
  };
  p.throughput_per_s = calls / (static_cast<double>(end - t0) * kNsToS);
  p.primary = percentile_of(p.latency_ms, 50.0);
  p.detail["calls"] = calls;
  p.layer["client.late_ms_p99"] = percentile_of(late_ms, 99.0);
  p.layer["kernel.serial_us_per_unit"] = serial_us;
  p.layer["kernel.speedup_vs_serial"] = p.primary > 0 ? serial_us / (p.primary * 1e3) : 0.0;
  p.layer["gpusim.launches"] = per_call(after.kernel_launches, before.kernel_launches);
  p.layer["gpusim.bytes_h2d"] = per_call(after.bytes_h2d, before.bytes_h2d);
  p.layer["gpusim.bytes_d2h"] = per_call(after.bytes_d2h, before.bytes_d2h);
  p.layer["gpusim.bytes_d2d"] = per_call(after.bytes_d2d_in, before.bytes_d2d_in);
  p.layer["copy.share"] = wall_s > 0 ? modeled_s / wall_s : 0.0;
  return p;
}

}  // namespace

serve::TraceConfig serve_trace(bool tiled_gemm_only, std::uint64_t seed) {
  serve::TraceConfig tc;
  tc.seed = seed;
  tc.min_n = 32;
  tc.max_n = 80;
  if (tiled_gemm_only) {
    tc.spmv_weight = 0;
    tc.stencil_weight = 0;
    tc.tiled_only = true;
  }
  return tc;
}

gpusim::TopologyConfig device_topology() {
  gpusim::TopologyConfig cfg = gpusim::TopologyConfig::crusher_node(2);
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  cfg.workers_per_device = std::max<std::size_t>(1, nproc / cfg.devices);
  cfg.pin_workers = false;
  cfg.throttle_links = true;
  return cfg;
}

Pass run_pass(std::string_view workload, std::uint64_t seed, double seconds, bool corrupt,
              Tracer* tracer) {
  if (workload == "serve-open-gemm") return open_pass(seed, seconds, corrupt, tracer);
  if (workload == "serve-closed-mixed") return closed_pass(seed, seconds, corrupt, tracer);
  if (workload == "device-gemm") return device_pass<GemmCall>(seed, seconds, corrupt, tracer);
  if (workload == "device-stencil") {
    return device_pass<StencilCall>(seed, seconds, corrupt, tracer);
  }
  throw std::invalid_argument("unknown workload " + std::string(workload));
}

double setup_once(std::string_view workload, std::uint64_t seed) {
  if (workload == "serve-open-gemm" || workload == "serve-closed-mixed") {
    ServeClient client(1);
    return client.setup(serve_trace(workload == "serve-open-gemm", seed));
  }
  const auto time_setup = [](auto& call) {
    call.reset();
    const std::int64_t t0 = now_ns();
    gpusim::DeviceTopology topo(device_topology());
    (void)call(topo);
    return static_cast<double>(now_ns() - t0) * kNsToS;
  };
  if (workload == "device-gemm") {
    GemmCall call(seed);
    return time_setup(call);
  }
  if (workload == "device-stencil") {
    StencilCall call(seed);
    return time_setup(call);
  }
  throw std::invalid_argument("unknown workload " + std::string(workload));
}

}  // namespace portabench::e2e
