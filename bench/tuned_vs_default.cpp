// tuned_vs_default: prove the tuning cache helps and never hurts.
//
// For every tunable workload (tiled GEMM at each precision, serve
// batching) this bench resolves a tuned config — from a warm cache
// (--cache / PORTABENCH_TUNE_CACHE) when one matches this machine's
// fingerprint, else a bounded in-process search — then measures default
// and tuned interleaved and enforces two contracts:
//
//   never worse: if the tuned config fails to beat the default beyond
//     the default's own noise floor, the bench REVERTS it to the default
//     (recorded as "reverted") — so the emitted tuned_ms is >= default
//     only within noise, by construction;
//   bitwise: each workload re-runs under the tuned schedule and checks
//     the results are bit-identical to the default/serial reference
//     (tuning moves schedule knobs, never fp combination order).
//
// Emits BENCH_tune.json.  --require-never-worse and --require-best=R
// turn the contracts into exit-code gates for CI.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/cli.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "gemm/kernels_tiled.hpp"
#include "serve/engine.hpp"
#include "serve/serial.hpp"
#include "simrt/mdarray.hpp"
#include "simrt/parallel.hpp"
#include "tune/cache.hpp"
#include "tune/fingerprint.hpp"
#include "tune/objectives.hpp"
#include "tune/params.hpp"
#include "tune/search.hpp"

namespace {

using namespace portabench;

struct Options {
  std::string out = "BENCH_tune.json";
  std::string cache;          // empty: in-process tune
  double require_best = 0.0;  // 0: no gate
  bool require_never_worse = false;
  bool quick = false;
  int reps = 5;
  double budget_ms = 1500.0;
  std::size_t n = 320;
};

struct WorkloadResult {
  std::string name;
  std::string space;
  std::string precision = "-";
  std::uint32_t size_class = 0;
  tune::Config config;
  double default_ms = 0.0;
  double tuned_ms = 0.0;
  double noise_ms = 0.0;
  bool from_cache = false;
  bool reverted = false;
  bool bitwise_match = true;
};

struct Workload {
  std::string name;
  std::string space;
  std::string precision = "-";
  std::uint32_t size_class = 0;
  tune::Objective objective;
};

// --------------------------------------------------------------------------
// Bitwise contract checks: tuned schedule vs default/serial reference.

template <class T, class Acc>
bool gemm_bitwise_check(const gemm::TileConfig& tuned) {
  constexpr std::size_t n = 96;
  std::vector<T> a(n * n), b(n * n);
  Xoshiro256 rng(7);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<T>(rng.uniform() - 0.5);
    b[i] = static_cast<T>(rng.uniform() - 0.5);
  }
  const simrt::RawView2<const T> A(a.data(), n, n);
  const simrt::RawView2<const T> B(b.data(), n, n);

  std::vector<Acc> c_ref(n * n, Acc{});
  {
    simrt::RawView2<Acc> C(c_ref.data(), n, n);
    gemm::gemm_tiled<Acc>(simrt::SerialSpace{}, A, B, C);  // default, serial
  }
  std::vector<Acc> c_tuned(n * n, Acc{});
  {
    simrt::ThreadsSpace space(std::max<std::size_t>(2, std::thread::hardware_concurrency()));
    simrt::RawView2<Acc> C(c_tuned.data(), n, n);
    gemm::gemm_tiled<Acc>(space, A, B, C, tuned);
  }
  return std::memcmp(c_ref.data(), c_tuned.data(), n * n * sizeof(Acc)) == 0;
}

bool gemm_bitwise_for(Precision p, const tune::Config& cfg) {
  gemm::TileConfig tc;
  const tune::SpaceDesc* space = tune::find_space("gemm-tile");
  tc.mc = static_cast<std::size_t>(std::max(1L, tune::config_value(*space, cfg, "mc")));
  tc.kc = static_cast<std::size_t>(std::max(1L, tune::config_value(*space, cfg, "kc")));
  tc.tier = static_cast<int>(tune::config_value(*space, cfg, "tier"));
  switch (p) {
    case Precision::kDouble: return gemm_bitwise_check<double, double>(tc);
    case Precision::kSingle: return gemm_bitwise_check<float, float>(tc);
    case Precision::kHalfIn: return gemm_bitwise_check<half, float>(tc);
  }
  return false;
}

/// Served checksums under the tuned batch size must equal the serial
/// oracle's — batch size changes flush boundaries, never job math.
bool serve_bitwise(const tune::Config& cfg) {
  const tune::SpaceDesc* space = tune::find_space("serve-batch");
  std::vector<serve::JobDesc> jobs;
  std::uint64_t id = 0;
  for (const Precision p : {Precision::kDouble, Precision::kSingle, Precision::kHalfIn}) {
    for (const std::uint32_t n : {24u, 48u, 64u}) {
      serve::JobDesc d;
      d.id = id++;
      d.kind = serve::JobKind::kGemm;
      d.frontend = serve::Frontend::kTiled;
      d.precision = p;
      d.n = n;
      d.seed = 0x9e3779b97f4a7c15ull ^ (id * 2654435761ull);
      jobs.push_back(d);
    }
  }

  std::map<std::uint64_t, double> got;
  // on_complete fires on the serve flush workers, so the collection map
  // needs a real lock.
  std::mutex mu;  // portalint: raw-thread-ok(guards checksum collection from serve completion threads)
  serve::ServeConfig sc;
  sc.batch_jobs = static_cast<std::size_t>(
      std::max(1L, tune::config_value(*space, cfg, "batch_jobs")));
  sc.on_complete = [&](const serve::JobResult& r) {
    const std::lock_guard<std::mutex> lock(mu);  // portalint: raw-thread-ok(see mu above)
    got[r.id] = r.checksum;
  };
  {
    serve::ServeEngine engine(sc);
    for (const serve::JobDesc& d : jobs) {
      if (engine.try_submit(d) != serve::AdmitError::kNone) return false;
    }
    engine.drain();
  }
  for (const serve::JobDesc& d : jobs) {
    const double want = serve::run_serial(d).checksum;
    const auto it = got.find(d.id);
    if (it == got.end()) return false;
    if (std::memcmp(&it->second, &want, sizeof(double)) != 0) return false;
  }
  return true;
}

bool bitwise_check(const Workload& w, const tune::Config& cfg) {
  if (w.space == "gemm-tile") {
    for (const Precision p : {Precision::kDouble, Precision::kSingle, Precision::kHalfIn}) {
      if (w.precision == name(p)) return gemm_bitwise_for(p, cfg);
    }
    return false;
  }
  return serve_bitwise(cfg);
}

// --------------------------------------------------------------------------

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

WorkloadResult run_workload(const Workload& w, const tune::TuningCache& cache,
                            std::uint64_t fp_hash, const Options& opt) {
  WorkloadResult r;
  r.name = w.name;
  r.space = w.space;
  r.precision = w.precision;
  r.size_class = w.size_class;

  const tune::SpaceDesc* space = tune::find_space(w.space);
  const tune::Config defaults = tune::default_config(*space);

  // Resolve the tuned candidate: warm cache first (an entry the registry
  // forbids counts as a miss, as in tune::Tuned), else bounded search.
  const tune::CacheEntry* hit =
      cache.find(w.space, w.precision, w.size_class, fp_hash);
  if (hit != nullptr && tune::config_valid(*space, hit->config)) {
    r.config = hit->config;
    r.from_cache = true;
  } else {
    tune::SearchOptions so;
    so.reps = opt.quick ? 2 : 3;
    so.warmup = 1;
    so.budget_ms = opt.budget_ms;
    r.config = tune::tune_space(*space, w.objective, so).best;
  }

  // Interleaved default/tuned measurement (drift cancels pairwise).
  (void)w.objective(defaults);  // warmup
  (void)w.objective(r.config);
  std::vector<double> ds, ts;
  for (int i = 0; i < opt.reps; ++i) {
    ds.push_back(w.objective(defaults));
    ts.push_back(w.objective(r.config));
  }
  std::sort(ds.begin(), ds.end());
  r.default_ms = median_of(ds);
  r.tuned_ms = median_of(ts);
  const double iqr = ds[(3 * ds.size()) / 4] - ds[ds.size() / 4];
  r.noise_ms = std::max(iqr, 0.02 * r.default_ms);

  // Never-worse contract: a tuned config that cannot hold its win under
  // re-measurement is not shipped — revert to the default.
  if (r.tuned_ms > r.default_ms + r.noise_ms) {
    r.config = defaults;
    r.tuned_ms = r.default_ms;
    r.reverted = true;
  }

  r.bitwise_match = bitwise_check(w, r.config);
  return r;
}

int run(const Options& opt) {
  const tune::MachineFingerprint fp = tune::local_fingerprint();
  const std::uint64_t fp_hash = tune::fingerprint_hash(fp);

  tune::TuningCache cache;
  if (!opt.cache.empty()) {
    const tune::CacheLoadResult lr = cache.load(opt.cache);
    if (lr.status != tune::CacheLoadStatus::kOk) {
      const std::string why = lr.warning.empty()
                                  ? std::string(tune::cache_status_name(lr.status))
                                  : lr.warning;
      std::fprintf(stderr, "tuned_vs_default: %s (tuning in-process)\n", why.c_str());
    }
  }

  const std::size_t n = opt.quick ? std::min<std::size_t>(opt.n, 160) : opt.n;
  const std::uint32_t sc = serve::size_class(static_cast<std::uint32_t>(n));
  const std::size_t serve_jobs = opt.quick ? 256 : 1024;

  std::vector<Workload> workloads;
  for (const Precision p : {Precision::kDouble, Precision::kSingle, Precision::kHalfIn}) {
    workloads.push_back({std::string("gemm_") + std::string(name(p)), "gemm-tile",
                         std::string(name(p)), sc, tune::gemm_tile_objective(p, n)});
  }
  workloads.push_back(
      {"serve_batch", "serve-batch", "-", 0, tune::serve_batch_objective(serve_jobs)});

  std::vector<WorkloadResult> results;
  double best_speedup = 1.0;
  bool all_bitwise = true;
  bool never_worse = true;
  for (const Workload& w : workloads) {
    WorkloadResult r = run_workload(w, cache, fp_hash, opt);
    const double speedup = r.tuned_ms > 0.0 ? r.default_ms / r.tuned_ms : 1.0;
    best_speedup = std::max(best_speedup, speedup);
    all_bitwise = all_bitwise && r.bitwise_match;
    never_worse = never_worse && r.tuned_ms <= r.default_ms + r.noise_ms;
    std::printf("%-10s default %9.3f ms  tuned %9.3f ms  x%.2f%s%s%s\n", r.name.c_str(),
                r.default_ms, r.tuned_ms, speedup, r.from_cache ? "  [cache]" : "",
                r.reverted ? "  [reverted]" : "",
                r.bitwise_match ? "" : "  BITWISE MISMATCH");
    results.push_back(std::move(r));
  }

  BenchArtifact artifact("tuned_vs_default");
  JsonWriter& w = artifact.writer();
  w.key("machine");
  w.begin_object();
  w.key("fingerprint_key");
  w.value(tune::fingerprint_key(fp));
  w.key("cores");
  w.value(static_cast<std::size_t>(fp.cores));
  w.key("simd_tier");
  w.value(fp.simd_tier);
  w.end_object();
  w.key("cache_path");
  w.value(opt.cache);
  w.key("gemm_n");
  w.value(n);
  w.key("workloads");
  w.begin_array();
  for (const WorkloadResult& r : results) {
    w.begin_object();
    w.key("name");
    w.value(r.name);
    w.key("space");
    w.value(r.space);
    w.key("precision");
    w.value(r.precision);
    w.key("size_class");
    w.value(static_cast<std::size_t>(r.size_class));
    w.key("default_ms");
    w.value(r.default_ms);
    w.key("tuned_ms");
    w.value(r.tuned_ms);
    w.key("noise_ms");
    w.value(r.noise_ms);
    w.key("speedup");
    w.value(r.tuned_ms > 0.0 ? r.default_ms / r.tuned_ms : 1.0);
    w.key("from_cache");
    w.value(r.from_cache);
    w.key("reverted");
    w.value(r.reverted);
    w.key("bitwise_match");
    w.value(r.bitwise_match);
    w.key("config");
    w.begin_object();
    for (const auto& [k, v] : r.config) {
      w.key(k);
      w.value(v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("best_speedup");
  w.value(best_speedup);
  w.key("never_worse");
  w.value(never_worse);
  w.key("all_bitwise");
  w.value(all_bitwise);

  const int io = artifact.write(opt.out);
  if (io != 0) return io;
  if (!all_bitwise) {
    std::fprintf(stderr, "FAILED: tuned schedule changed results bitwise\n");
    return 1;
  }
  if (opt.require_never_worse && !never_worse) {
    std::fprintf(stderr, "FAILED: a tuned config measured worse than default\n");
    return 1;
  }
  if (opt.require_best > 0.0 && best_speedup < opt.require_best) {
    std::fprintf(stderr, "FAILED: best speedup x%.2f below required x%.2f\n",
                 best_speedup, opt.require_best);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.option("out", "artifact path", "BENCH_tune.json")
      .option("cache", "warm tuning cache (default: $PORTABENCH_TUNE_CACHE)", "")
      .option("require-best", "fail unless some workload speeds up this much", "0")
      .option("reps", "interleaved default/tuned measurement pairs", "0")
      .option("budget-ms", "in-process search budget per space", "0")
      .option("n", "GEMM edge for the gemm-tile workloads", "0")
      .flag("require-never-worse", "fail if tuned measures worse than default")
      .flag("quick", "smoke sizes (also the argless default)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tuned_vs_default: %s\n%s", e.what(),
                 cli.usage("tuned_vs_default").c_str());
    return 2;
  }

  Options opt;
  opt.out = cli.get("out");
  opt.cache = cli.get("cache");
  if (opt.cache.empty()) {
    if (const char* env = std::getenv("PORTABENCH_TUNE_CACHE")) opt.cache = env;
  }
  opt.require_best = cli.get_double("require-best");
  opt.require_never_worse = cli.has("require-never-worse");
  // Argless runs are CI smoke runs: default to quick sizes unless the
  // caller asked for specific measurement depth.
  opt.quick = cli.has("quick") ||
              (!cli.has("reps") && !cli.has("n") && !cli.has("budget-ms"));
  if (cli.get_int("reps") > 0) opt.reps = static_cast<int>(cli.get_int("reps"));
  else if (opt.quick) opt.reps = 3;
  if (cli.get_double("budget-ms") > 0) opt.budget_ms = cli.get_double("budget-ms");
  else if (opt.quick) opt.budget_ms = 350.0;
  if (cli.get_int("n") > 0) opt.n = static_cast<std::size_t>(cli.get_int("n"));

  return run(opt);
}
