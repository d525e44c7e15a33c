// End-to-end benchmark: shared declarations (bench/e2e/README.md).
//
// portabench_e2e runs one of four workloads against the public library
// entry points, from one client thread, and reports the metrics of
// BENCHMARK.json.  The parent process spawns every measurement in a
// child process of its own, so set-up time and peak memory belong to
// one workload; this header is what the parent and child halves share.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gpusim/topology.hpp"
#include "serve/trace.hpp"

namespace portabench::e2e {

enum class Better { kLower, kHigher };

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  Better better;
  /// The largest worsening, as a share of the baseline median, that
  /// still counts as no regression.
  double bound;
};

/// Per-layer metrics have no bound; their directions live in
/// BENCHMARK.json.
struct LayerMetric {
  std::string_view name;
  std::string_view unit;
};

/// Reported on every workload by an untraced run (`--trace 0`).  The
/// CPU-bound metrics carry the widest bound the benchmark contract
/// allows: on the 4-core reference host their 10-run spread follows the
/// host's own drift, up to 9% (bench/e2e/README.md).
inline constexpr std::array<MetricSpec, 5> kEndToEnd{{
    {"setup_s", "s", Better::kLower, 0.25},
    {"latency_ms_p50", "ms", Better::kLower, 0.25},
    {"latency_ms_p95", "ms", Better::kLower, 0.25},
    {"throughput_per_s", "1/s", Better::kHigher, 0.25},
    {"peak_rss_mb", "MiB", Better::kLower, 0.10},
}};

/// Reported on every workload by a traced run (`--trace 1`).  Probe
/// metrics come from isolated probes that are identical on every
/// workload; serve.* counts and gpusim.* counts read 0 on a workload
/// that does not cross that layer.
inline constexpr std::array<LayerMetric, 36> kPerLayer{{
    // Isolated probes of each layer's public entry points.
    {"launch.fork_us", "us"},
    {"stream.handoff_us", "us"},
    {"copy.h2d_ms", "ms"},
    {"copy.d2h_ms", "ms"},
    {"copy.d2d_ms", "ms"},
    {"kernel.gemm_ms", "ms"},
    {"kernel.gemm_gflops", "GFLOP/s"},
    {"serve.admit_us_p50", "us"},
    {"serve.admit_us_p99", "us"},
    {"serve.drain_ms", "ms"},
    // The workload's own traced pass.
    {"trace.overhead", "ratio"},
    {"trace.spans", "count"},
    {"client.prep_s", "s"},
    {"client.late_ms_p99", "ms"},
    {"failed_frac", "share"},
    {"kernel.serial_us_per_unit", "us"},
    {"kernel.speedup_vs_serial", "ratio"},
    {"kernel.share", "share"},
    {"serve.capacity_rps", "1/s"},
    {"serve.accept_ratio", "share"},
    {"serve.shed_jobs", "count"},
    {"serve.jobs_per_batch", "count"},
    {"serve.batches", "count"},
    {"serve.launches_per_batch", "count"},
    {"serve.arena_grow_events", "count"},
    {"serve.arena_high_water_bytes", "bytes"},
    {"rung.3000.shed_frac", "share"},
    {"rung.6000.shed_frac", "share"},
    {"rung.12000.shed_frac", "share"},
    {"rung.24000.shed_frac", "share"},
    {"rung.48000.shed_frac", "share"},
    {"gpusim.launches", "count"},
    {"gpusim.bytes_h2d", "bytes"},
    {"gpusim.bytes_d2h", "bytes"},
    {"gpusim.bytes_d2d", "bytes"},
    {"copy.share", "share"},
}};

inline constexpr std::array<std::string_view, 4> kWorkloads{
    "serve-open-gemm", "serve-closed-mixed", "device-gemm", "device-stencil"};

/// device-gemm's matrix order; the copy and kernel probes use it too.
inline constexpr std::size_t kDeviceGemmN = 768;

using Values = std::map<std::string, double>;

/// Steady-clock nanoseconds; every timestamp of a run uses this clock.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleep until now_ns() reaches `t`.
inline void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(t))));
}

/// In-memory span recorder for one client thread.  Spans are appended
/// into storage reserved up front and written as Chrome trace-event JSON
/// (loadable in Perfetto) when the run ends; a full recorder counts the
/// spans it dropped instead of allocating.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  /// A span on the client's own timeline (`lane` 0) or a probe lane.
  void span(const char* name, const char* category, std::int64_t begin_ns,
            std::int64_t end_ns, std::uint64_t id, std::uint32_t lane = 0) noexcept;
  /// A span that may overlap others: one request's life, due to delivery.
  /// Spans of one request share `id`.
  void async_span(const char* name, const char* category, std::int64_t begin_ns,
                  std::int64_t end_ns, std::uint64_t id) noexcept;

  [[nodiscard]] std::size_t recorded() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

  /// Write every span as Chrome trace-event JSON; false on I/O failure.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* category;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint32_t lane;
    bool async;
  };
  void push(const Span& s) noexcept;

  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::int64_t epoch_ns_;
};

/// One timed pass of a workload: generated inputs, set-up, the measured
/// loop, and verification of its outputs.
struct Pass {
  std::vector<double> latency_ms;  ///< the latency sample of the e2e metrics
  double throughput_per_s = 0.0;
  /// The workload's primary metric (what trace.overhead compares) and
  /// whether lower is better for it.
  double primary = 0.0;
  bool primary_lower = true;
  bool correct = true;  ///< every verified output matched its oracle bitwise
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< refused + failed + verification mismatch
  double prep_s = 0.0;
  double setup_s = 0.0;
  Values layer;   ///< per-layer values this pass measured
  Values detail;  ///< workload detail for the artifact and the table
};

/// Run one pass of `workload` for `seconds`.  `corrupt` perturbs one
/// expected value (the --self-check path); `tracer` may be null.
[[nodiscard]] Pass run_pass(std::string_view workload, std::uint64_t seed, double seconds,
                            bool corrupt, Tracer* tracer);

/// Set-up only: construct the workload's engine or topology and run one
/// warm-up batch or call.  Returns seconds (excludes input preparation).
[[nodiscard]] double setup_once(std::string_view workload, std::uint64_t seed);

/// The serve workloads' job stream: n in [32, 80], either tiled GEMMs
/// only or TraceGen's full default mix.
[[nodiscard]] serve::TraceConfig serve_trace(bool tiled_gemm_only, std::uint64_t seed);

/// The device workloads' node: crusher_node(2) with throttled links and
/// the program's default worker split (nproc / devices, unpinned).
[[nodiscard]] gpusim::TopologyConfig device_topology();

/// Isolated probes of each layer (the probe half of kPerLayer).
[[nodiscard]] Values run_probes(Tracer& tracer);

/// `--compare BASE NEW`: per-workload medians, quartiles and deltas of
/// the e2e metrics of two BENCH_e2e.json artifacts.  Returns the exit
/// code (nonzero on a regression or unreadable input).
[[nodiscard]] int compare_artifacts(const std::string& base_path,
                                    const std::string& new_path);

}  // namespace portabench::e2e
