// portatune: tune, inspect, and verify the persisted tuning cache.
//
//   portatune tune   [--spaces=a,b] [--cache=F] [--budget-ms=N] [--n=N]
//   portatune show   [--cache=F]
//   portatune verify [--cache=F] [--reps=N] [--n=N]
//
// `tune` searches each requested registry space with the same harness
// the benches use (default measured first, IQR noise floor, hill-climb
// on large spaces) and merges the winners into the cache keyed by this
// machine's fingerprint.  `show` prints the cache against the registry.
// `verify` re-measures every local-fingerprint entry whose key matches a
// workload at `--n` against the space default and fails if a cached
// winner has gone stale (slower than the default beyond the re-measured
// noise floor); entries tuned at another size class are skipped.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/precision.hpp"
#include "serve/job.hpp"
#include "tune/cache.hpp"
#include "tune/fingerprint.hpp"
#include "tune/objectives.hpp"
#include "tune/params.hpp"
#include "tune/search.hpp"

namespace {

using namespace portabench;
using namespace portabench::tune;

constexpr const char* kDefaultCachePath = "tune_cache.json";

struct Workload {
  std::string space;
  std::string precision = "-";   // cache key ("FP64"... or "-")
  std::uint32_t size_class = 0;
  Objective objective;
};

/// Every tunable workload this host can run, at GEMM edge `n`.
std::vector<Workload> all_workloads(std::size_t n) {
  std::vector<Workload> out;
  const std::uint32_t sc = serve::size_class(static_cast<std::uint32_t>(n));
  for (const Precision p : {Precision::kDouble, Precision::kSingle, Precision::kHalfIn}) {
    out.push_back({"gemm-tile", std::string(name(p)), sc, gemm_tile_objective(p, n)});
  }
  out.push_back({"serve-batch", "-", 0, serve_batch_objective()});
  return out;
}

bool wanted(const std::string& space, const std::vector<std::string>& filter) {
  if (filter.empty()) return true;
  for (const std::string& f : filter) {
    if (f == space) return true;
  }
  return false;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t lo = 0;
  while (lo <= text.size()) {
    const std::size_t hi = text.find(',', lo);
    const std::string tok = text.substr(lo, hi == std::string::npos ? hi : hi - lo);
    if (!tok.empty()) out.push_back(tok);
    if (hi == std::string::npos) break;
    lo = hi + 1;
  }
  return out;
}

std::string config_string(const Config& cfg) {
  std::string out;
  for (const auto& [k, v] : cfg) {
    if (!out.empty()) out += " ";
    out += k + "=" + std::to_string(v);
  }
  return out;
}

void warn_if_bad_load(const TuningCache& cache, const CacheLoadResult& r) {
  (void)cache;
  if (r.status != CacheLoadStatus::kOk && r.status != CacheLoadStatus::kMissing) {
    std::fprintf(stderr, "portatune: %s\n", r.warning.c_str());
  }
}

int cmd_tune(const CliParser& cli) {
  const std::string path = cli.get("cache");
  const std::vector<std::string> filter = split_csv(cli.get("spaces"));
  const auto n = static_cast<std::size_t>(cli.get_int("n"));

  TuningCache cache;
  warn_if_bad_load(cache, cache.load(path));

  const MachineFingerprint fp = local_fingerprint();
  const std::uint64_t fp_hash = fingerprint_hash(fp);
  std::printf("machine: %s (0x%016llx)\n", fingerprint_key(fp).c_str(),
              static_cast<unsigned long long>(fp_hash));

  SearchOptions opt;
  opt.budget_ms = cli.get_double("budget-ms");
  opt.reps = static_cast<int>(cli.get_int("reps"));
  if (cli.has("quick")) {
    opt.reps = 2;
    opt.budget_ms = std::min(opt.budget_ms, 500.0);
  }

  int tuned = 0;
  for (Workload& w : all_workloads(n)) {
    if (!wanted(w.space, filter)) continue;
    const SpaceDesc* space = find_space(w.space);
    if (space == nullptr) continue;
    const TuneResult r = tune_space(*space, w.objective, opt);

    CacheEntry e;
    e.space = w.space;
    e.precision = w.precision;
    e.size_class = w.size_class;
    e.fingerprint = fp_hash;
    e.machine = fingerprint_key(fp);
    e.config = r.best;
    e.tuned_ms = r.best_ms;
    e.default_ms = r.default_ms;
    cache.put(std::move(e));
    ++tuned;

    const double speedup = r.best_ms > 0.0 ? r.default_ms / r.best_ms : 1.0;
    std::printf("%-11s %-5s sc=%-2u  %-40s %8.3f ms (default %8.3f, x%.2f%s%s)\n",
                w.space.c_str(), w.precision.c_str(), w.size_class,
                config_string(r.best).c_str(), r.best_ms, r.default_ms, speedup,
                r.improved ? ", improved" : "",
                r.budget_exhausted ? ", budget hit" : "");
  }

  if (tuned == 0) {
    std::fprintf(stderr, "portatune: no spaces matched --spaces filter\n");
    return 2;
  }
  if (!cache.save(path)) {
    std::fprintf(stderr, "portatune: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu entr%s to %s\n", cache.size(), cache.size() == 1 ? "y" : "ies",
              path.c_str());
  return 0;
}

int cmd_show(const CliParser& cli) {
  const std::string path = cli.get("cache");
  TuningCache cache;
  const CacheLoadResult r = cache.load(path);
  warn_if_bad_load(cache, r);
  if (r.status == CacheLoadStatus::kMissing) {
    std::printf("%s: no cache (%s)\n", path.c_str(),
                std::string(cache_status_name(r.status)).c_str());
    return 0;
  }

  const std::uint64_t local = fingerprint_hash(local_fingerprint());
  std::printf("%s: %zu entries (schema v%d); local machine 0x%016llx\n", path.c_str(),
              cache.size(), kCacheSchemaVersion,
              static_cast<unsigned long long>(local));
  for (const CacheEntry& e : cache.entries()) {
    std::printf("  %-11s %-5s sc=%-2u %s 0x%016llx  %-40s %8.3f ms (default %8.3f)\n",
                e.space.c_str(), e.precision.c_str(), e.size_class,
                e.fingerprint == local ? "*" : " ",
                static_cast<unsigned long long>(e.fingerprint),
                config_string(e.config).c_str(), e.tuned_ms, e.default_ms);
  }
  std::printf("(* = matches this machine; other fingerprints are ignored at dispatch)\n");
  return 0;
}

int cmd_verify(const CliParser& cli) {
  const std::string path = cli.get("cache");
  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const int reps = static_cast<int>(cli.get_int("reps"));

  TuningCache cache;
  const CacheLoadResult r = cache.load(path);
  warn_if_bad_load(cache, r);
  if (r.status != CacheLoadStatus::kOk) {
    std::fprintf(stderr, "portatune: nothing to verify (%s)\n",
                 std::string(cache_status_name(r.status)).c_str());
    return r.status == CacheLoadStatus::kMissing ? 0 : 1;
  }

  const std::uint64_t local = fingerprint_hash(local_fingerprint());
  std::vector<Workload> workloads = all_workloads(n);
  int checked = 0;
  int stale = 0;
  int skipped = 0;
  for (const CacheEntry& e : cache.entries()) {
    if (e.fingerprint != local) continue;
    const SpaceDesc* space = find_space(e.space);
    if (space == nullptr) continue;
    Workload* w = nullptr;
    for (Workload& cand : workloads) {
      if (cand.space == e.space && cand.precision == e.precision &&
          cand.size_class == e.size_class) {
        w = &cand;
      }
    }
    if (w == nullptr) {
      ++skipped;  // tuned at another size class than --n measures
      continue;
    }

    const Config defaults = default_config(*space);
    const Measurement dm = measure([&] { return w->objective(defaults); }, reps, 1);
    const Measurement tm = measure([&] { return w->objective(e.config); }, reps, 1);
    ++checked;
    // The search's adoption floor: max(IQR, 2% of the default's median).
    const double floor = std::max(dm.noise_ms, 0.02 * dm.median_ms);
    const bool ok = tm.median_ms <= dm.median_ms + floor;
    if (!ok) ++stale;
    std::printf("%-11s %-5s  tuned %8.3f ms vs default %8.3f ms (floor %.3f)  %s\n",
                e.space.c_str(), e.precision.c_str(), tm.median_ms, dm.median_ms, floor,
                ok ? "ok" : "STALE");
  }
  std::printf("%d entr%s checked, %d stale, %d skipped (size class differs from --n)\n",
              checked, checked == 1 ? "y" : "ies", stale, skipped);
  return stale == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd != "tune" && cmd != "show" && cmd != "verify") {
    std::fprintf(stderr,
                 "usage: portatune <tune|show|verify> [options]\n"
                 "  tune    search registry spaces, merge winners into the cache\n"
                 "  show    print the cache against the local fingerprint\n"
                 "  verify  re-measure local entries, fail on stale winners\n");
    return cmd.empty() ? 2 : (cmd == "--help" || cmd == "-h" ? 0 : 2);
  }

  CliParser cli;
  cli.option("cache", "tuning cache path", kDefaultCachePath)
      .option("spaces", "comma-separated registry spaces (default: all)", "")
      .option("budget-ms", "wall-clock budget per space", "2000")
      .option("reps", "samples per config (median taken)", "5")
      .option("n", "GEMM edge used for gemm-tile workloads", "320")
      .flag("quick", "cap reps/budget for smoke runs");
  try {
    cli.parse(argc - 1, argv + 1);
    if (cmd == "tune") return cmd_tune(cli);
    if (cmd == "show") return cmd_show(cli);
    return cmd_verify(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "portatune: %s\n%s", e.what(),
                 cli.usage("portatune <tune|show|verify>").c_str());
    return 2;
  }
}
