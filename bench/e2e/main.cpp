// portabench_e2e: the end-to-end benchmark (bench/e2e/README.md).
//
//   portabench_e2e [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
//                  [--repeat N] [--quick] [--out-dir DIR]
//   portabench_e2e --self-check [--seed S]
//   portabench_e2e --compare BASE.json NEW.json
//
// The parent process owns the command line, the hermetic environment and
// the output.  Every measurement runs in a child process (this binary
// again, with --child), so setup_s and peak_rss_mb belong to one
// workload: both are medians over several fresh children that each set
// the workload up and run its warm-up batch or call.  The last line on
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; BENCH_e2e.json in --out-dir records every run.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_json.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "e2e.hpp"
#include "tune/fingerprint.hpp"

extern char** environ;

namespace portabench::e2e {

namespace {

constexpr double kDefaultSeconds = 20.0;
constexpr std::size_t kSetupSamples = 7;
constexpr double kSetupTimeoutS = 60.0;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;

/// Variables that change what the program runs; cleared at start-up so
/// every run measures the same configuration, and recorded.
constexpr std::array<const char*, 4> kHermeticEnv{
    "PORTABENCH_TUNE_CACHE", "PORTABENCH_TUNE_DISABLE", "PORTABENCH_GPUSIM_THREADS",
    "PORTABENCH_SIMD_TIER"};

struct Cli {
  std::vector<std::string> workloads{kWorkloads.begin(), kWorkloads.end()};
  std::uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  bool trace = false;
  std::size_t repeat = 1;
  std::size_t setup_samples = kSetupSamples;
  std::string out_dir = ".";
  bool self_check = false;
  std::string child;     // "run" or "setup": this process is a measurement child
  bool corrupt = false;  // child: perturb one expected value
  std::vector<std::string> compare;
};

void usage() {
  std::cerr << "usage: portabench_e2e [--workload NAME] [--seed S] [--seconds T] "
               "[--trace 0|1] [--repeat N] [--quick] [--out-dir DIR]\n"
               "       portabench_e2e --self-check [--seed S]\n"
               "       portabench_e2e --compare BASE.json NEW.json\n"
               "workloads:";
  for (const auto w : kWorkloads) std::cerr << " " << w;
  std::cerr << "\n";
}

std::uint64_t parse_count(const std::string& s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno != 0 || s.front() == '-') {
    throw std::invalid_argument(std::string("bad ") + what + ": " + s);
  }
  return v;
}

Cli parse(int argc, char** argv) {
  Cli cli;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      const std::string w = value(i);
      if (std::find(kWorkloads.begin(), kWorkloads.end(), w) == kWorkloads.end()) {
        throw std::invalid_argument("unknown workload: " + w);
      }
      cli.workloads = {w};
    } else if (arg == "--seed") {
      cli.seed = parse_count(value(i), "seed");
    } else if (arg == "--seconds") {
      const std::string s = value(i);
      char* end = nullptr;
      cli.seconds = std::strtod(s.c_str(), &end);
      if (*end != '\0' || !(cli.seconds > 0.0 && cli.seconds <= 600.0)) {
        throw std::invalid_argument("bad seconds: " + s);
      }
    } else if (arg == "--trace") {
      const std::uint64_t t = parse_count(value(i), "trace");
      if (t > 1) throw std::invalid_argument("--trace takes 0 or 1");
      cli.trace = t == 1;
    } else if (arg == "--repeat") {
      cli.repeat = std::max<std::uint64_t>(1, parse_count(value(i), "repeat"));
    } else if (arg == "--quick") {
      cli.seconds = 1.0;
      cli.setup_samples = 3;
    } else if (arg == "--out-dir") {
      cli.out_dir = value(i);
    } else if (arg == "--self-check") {
      cli.self_check = true;
    } else if (arg == "--compare") {
      cli.compare = {value(i), value(i)};
    } else if (arg == "--child") {
      cli.child = value(i);
      if (cli.child != "run" && cli.child != "setup") {
        throw std::invalid_argument("bad child mode: " + cli.child);
      }
    } else if (arg == "--corrupt") {
      cli.corrupt = true;
    } else {
      throw std::invalid_argument("unknown option: " + arg);
    }
  }
  return cli;
}

// --- hermetic start-up -------------------------------------------------------

using EnvRecord = std::vector<std::pair<std::string, std::optional<std::string>>>;

/// Clear and record the variables that would change the measurement.
EnvRecord clear_environment() {
  EnvRecord rec;
  for (const char* name : kHermeticEnv) {
    const char* v = std::getenv(name);
    rec.emplace_back(name, v == nullptr ? std::nullopt : std::optional<std::string>(v));
    ::unsetenv(name);
  }
  return rec;
}

std::string fingerprint_hex() {
  std::ostringstream s;
  s << "0x" << std::hex << std::setw(16) << std::setfill('0')
    << tune::fingerprint_hash(tune::local_fingerprint());
  return s.str();
}

// --- child processes ---------------------------------------------------------

/// This process's peak resident set in MiB.  VmHWM, not ru_maxrss: Linux
/// carries the spawning parent's high-water mark across exec into
/// ru_maxrss, and VmHWM covers only this image.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

struct ChildOutput {
  int exit_code = 0;
  JsonValue result;
};

/// Run this binary again with `args`, collect its standard output (the
/// last line is its JSON result), and wait for it; a child still running
/// after `timeout_s` is killed.  Throws when the child leaves no result.
ChildOutput run_child(const std::vector<std::string>& args, double timeout_s) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string self = "/proc/self/exe";
  std::vector<char*> argv{self.data()};
  std::vector<std::string> owned(args);
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("posix_spawn failed");
  }

  std::string out;
  bool timed_out = false;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  char buf[4096];
  for (;;) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) {
      ::kill(pid, SIGKILL);
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left_ms, 1000)));
    if (ready <= 0) continue;  // timeout slice or EINTR
    const ssize_t got = ::read(fds[0], buf, sizeof buf);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    out.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) throw std::runtime_error("child timed out after " + std::to_string(timeout_s) + " s");

  ChildOutput c;
  c.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  while (!out.empty() && out.back() == '\n') out.pop_back();
  const std::size_t nl = out.rfind('\n');
  const JsonParseResult parsed = parse_json(nl == std::string::npos ? out : out.substr(nl + 1));
  if (!parsed.ok || !parsed.value.is_object()) {
    throw std::runtime_error("child (exit " + std::to_string(c.exit_code) + ") left no result");
  }
  c.result = parsed.value;
  return c;
}

Values numbers_of(const JsonValue* obj) {
  Values v;
  if (obj == nullptr || !obj->is_object()) return v;
  for (const auto& [k, x] : obj->as_object()) {
    v[k] = x.is_number() ? x.as_number() : std::numeric_limits<double>::infinity();
  }
  return v;
}

void write_values(JsonWriter& w, const Values& values) {
  w.begin_object();
  for (const auto& [k, x] : values) {
    w.key(k);
    w.value(x);
  }
  w.end_object();
}

/// --child setup: print {"setup_s": seconds, "peak_rss_mb": MiB}.
int child_setup(const Cli& cli) {
  const double s = setup_once(cli.workloads.front(), cli.seed);
  JsonWriter w;
  w.begin_object();
  w.key("setup_s");
  w.value(s);
  w.key("peak_rss_mb");
  w.value(peak_rss_mb());
  w.end_object();
  std::cout << w.str() << std::endl;
  return 0;
}

/// --child run: one untraced pass (e2e metrics), or an untraced and a
/// traced half-pass plus the layer probes (per-layer metrics).
int child_run(const Cli& cli) {
  const std::string& workload = cli.workloads.front();
  Values metrics;
  Values detail;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (!cli.trace) {
    const Pass p = run_pass(workload, cli.seed, cli.seconds, cli.corrupt, nullptr);
    metrics["latency_ms_p50"] = percentile_of(p.latency_ms, 50.0);
    metrics["latency_ms_p95"] = percentile_of(p.latency_ms, 95.0);
    metrics["throughput_per_s"] = p.throughput_per_s;
    detail = p.detail;
    detail.insert(p.layer.begin(), p.layer.end());
    detail["latency.samples"] = static_cast<double>(p.latency_ms.size());
    detail["client.prep_s"] = p.prep_s;
    detail["client.setup_s"] = p.setup_s;
    detail["run.peak_rss_mb"] = peak_rss_mb();
    correct = p.correct;
    attempted = p.attempted;
    failed = p.failed;
  } else {
    Tracer tracer(kTraceCapacity);
    const double half = cli.seconds / 2.0;
    const Pass base = run_pass(workload, cli.seed, half, cli.corrupt, nullptr);
    const Pass p = run_pass(workload, cli.seed, half, cli.corrupt, &tracer);
    for (const LayerMetric& spec : kPerLayer) metrics[std::string(spec.name)] = 0.0;
    for (const auto& [k, v] : p.layer) metrics[k] = v;
    for (const auto& [k, v] : run_probes(tracer)) metrics[k] = v;
    correct = base.correct && p.correct;
    attempted = base.attempted + p.attempted;
    failed = base.failed + p.failed;
    metrics["trace.overhead"] = p.primary_lower ? p.primary / base.primary
                                                : base.primary / p.primary;
    metrics["trace.spans"] = static_cast<double>(tracer.recorded());
    metrics["client.prep_s"] = p.prep_s;
    metrics["failed_frac"] =
        attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
    if (workload == "device-gemm") {
      metrics["kernel.share"] = metrics["kernel.gemm_ms"] / percentile_of(p.latency_ms, 50.0);
    }
    detail = p.detail;
    detail["trace.dropped"] = static_cast<double>(tracer.dropped());
    const std::string path = cli.out_dir + "/e2e-trace-" + workload + ".json";
    if (!tracer.write_chrome(path)) {
      std::cerr << "FAILED: could not write " << path << "\n";
      return 1;
    }
    std::cerr << "wrote " << path << "\n";
  }
  JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(correct);
  w.key("attempted");
  w.value(static_cast<std::size_t>(attempted));
  w.key("failed");
  w.value(static_cast<std::size_t>(failed));
  w.key("metrics");
  write_values(w, metrics);
  w.key("detail");
  write_values(w, detail);
  w.end_object();
  std::cout << w.str() << std::endl;
  return correct ? 0 : 1;
}

// --- parent ------------------------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int exit_code = 0;
  Values metrics;
  Values detail;
};

std::vector<std::string> child_args(const Cli& cli, const char* mode, const std::string& w,
                                    std::uint64_t seed) {
  return {"--child", mode, "--workload", w, "--seed", std::to_string(seed),
          "--seconds", std::to_string(cli.seconds), "--trace", cli.trace ? "1" : "0",
          "--out-dir", cli.out_dir};
}

Run measure(const Cli& cli, const std::string& w, std::uint64_t seed) {
  Run r;
  r.workload = w;
  r.seed = seed;
  r.trace = cli.trace;
  std::vector<double> setups;
  std::vector<double> rss;
  if (!cli.trace) {
    for (std::size_t k = 0; k < cli.setup_samples; ++k) {
      const ChildOutput c = run_child(child_args(cli, "setup", w, seed), kSetupTimeoutS);
      const auto s = c.result.number_at("setup_s");
      const auto m = c.result.number_at("peak_rss_mb");
      if (c.exit_code != 0 || !s || !m) throw std::runtime_error("set-up child failed");
      setups.push_back(*s);
      rss.push_back(*m);
    }
  }
  std::vector<std::string> args = child_args(cli, "run", w, seed);
  if (cli.corrupt) args.push_back("--corrupt");
  const ChildOutput c = run_child(args, 3.0 * cli.seconds + 90.0);
  r.exit_code = c.exit_code;
  const JsonValue* correct = c.result.find("correct");
  r.correct = correct != nullptr && correct->is_bool() && correct->as_bool();
  r.attempted = static_cast<std::uint64_t>(c.result.number_at("attempted").value_or(0));
  r.failed = static_cast<std::uint64_t>(c.result.number_at("failed").value_or(0));
  r.metrics = numbers_of(c.result.find("metrics"));
  r.detail = numbers_of(c.result.find("detail"));
  if (!cli.trace) {
    r.metrics["setup_s"] = percentile_of(setups, 50.0);
    r.metrics["peak_rss_mb"] = percentile_of(rss, 50.0);
    r.detail["setup.samples"] = static_cast<double>(setups.size());
  }
  return r;
}

void print_run(const Run& r, double seconds) {
  std::cout << "== " << r.workload << "  seed " << r.seed << ", " << seconds << " s, "
            << (r.trace ? "traced" : "untraced") << " ==\n"
            << "  correct " << (r.correct ? "true" : "false") << ", attempted "
            << r.attempted << ", failed " << r.failed << "\n";
  const auto row = [&](std::string_view name, std::string_view unit, double v,
                       const std::string& note) {
    std::cout << "  " << std::left << std::setw(32) << name << std::right << std::setw(16)
              << std::setprecision(6) << v << " " << std::left << std::setw(8) << unit
              << note << "\n";
  };
  const auto note = [&](const char* key, const char* what) {
    const auto it = r.detail.find(key);
    return it == r.detail.end() ? std::string()
                                : std::string("(") + what + " " +
                                      std::to_string(static_cast<long>(it->second)) + ")";
  };
  if (!r.trace) {
    for (const MetricSpec& s : kEndToEnd) {
      std::string n;
      if (s.name == "setup_s" || s.name == "peak_rss_mb") n = note("setup.samples", "median of");
      if (s.name.starts_with("latency")) n = note("latency.samples", "n =");
      row(s.name, s.unit, r.metrics.at(std::string(s.name)), n);
    }
  } else {
    for (const LayerMetric& s : kPerLayer) row(s.name, s.unit, r.metrics.at(std::string(s.name)), "");
  }
  std::cout << "  detail:\n";
  for (const auto& [k, v] : r.detail) row("  " + k, "", v, "");
}

/// The contract line: every metric of the run's block with its unit.
/// Throws when a metric is not a finite number, which JSON cannot carry.
std::string result_line(const Run& r) {
  JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(r.correct);
  w.key("attempted");
  w.value(static_cast<std::size_t>(r.attempted));
  w.key("failed");
  w.value(static_cast<std::size_t>(r.failed));
  w.key("metrics");
  w.begin_object();
  const auto emit = [&](const auto& specs) {
    for (const auto& s : specs) {
      const double v = r.metrics.at(std::string(s.name));
      if (!std::isfinite(v)) {
        throw std::runtime_error(r.workload + ": metric " + std::string(s.name) + " is not finite");
      }
      w.key(std::string(s.name));
      w.begin_object();
      w.key("value");
      w.value(v);
      w.key("unit");
      w.value(std::string(s.unit));
      w.end_object();
    }
  };
  if (r.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  w.end_object();
  w.end_object();
  return w.str();
}

int write_artifact(const Cli& cli, const EnvRecord& env, const std::vector<Run>& runs) {
  BenchArtifact artifact("portabench_e2e");
  JsonWriter& w = artifact.writer();
  const tune::MachineFingerprint& fp = tune::local_fingerprint();
  w.key("seconds");
  w.value(cli.seconds);
  w.key("host");
  w.begin_object();
  w.key("nproc");
  w.value(fp.cores);
  w.key("cpu_model");
  w.value(fp.cpu_model);
  w.key("simd_tier");
  w.value(fp.simd_tier);
  w.key("tune_fingerprint");
  w.value(fingerprint_hex());
  w.end_object();
  w.key("cleared_env");
  w.begin_object();
  for (const auto& [name, value] : env) {
    w.key(name);
    if (value) {
      w.value(*value);
    } else {
      w.null();
    }
  }
  w.end_object();
  w.key("runs");
  w.begin_array();
  for (const Run& r : runs) {
    w.begin_object();
    w.key("workload");
    w.value(r.workload);
    w.key("seed");
    w.value(static_cast<std::size_t>(r.seed));
    w.key("trace");
    w.value(r.trace);
    w.key("correct");
    w.value(r.correct);
    w.key("attempted");
    w.value(static_cast<std::size_t>(r.attempted));
    w.key("failed");
    w.value(static_cast<std::size_t>(r.failed));
    w.key("exit_code");
    w.value(static_cast<long>(r.exit_code));
    w.key("metrics");
    write_values(w, r.metrics);
    w.key("detail");
    write_values(w, r.detail);
    w.end_object();
  }
  w.end_array();
  return artifact.write(cli.out_dir + "/BENCH_e2e.json");
}

/// --self-check: every workload, with one expected value corrupted, must
/// report failed_frac > 0 and exit nonzero.
int self_check(Cli cli) {
  cli.seconds = 1.0;
  cli.trace = false;
  cli.corrupt = true;
  cli.setup_samples = 1;
  bool all_detected = true;
  for (const std::string& w : cli.workloads) {
    const Run r = measure(cli, w, cli.seed);
    const double frac =
        r.attempted == 0 ? 0.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    const bool detected = frac > 0.0 && !r.correct && r.exit_code != 0;
    all_detected = all_detected && detected;
    std::cout << "self-check " << std::left << std::setw(20) << w << " failed_frac "
              << std::setprecision(4) << frac << ", exit " << r.exit_code << " -> "
              << (detected ? "detected" : "NOT DETECTED") << "\n";
  }
  return all_detected ? 0 : 1;
}

int run(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  if (cli.compare.size() == 2) return compare_artifacts(cli.compare[0], cli.compare[1]);

  if (const char* check = std::getenv("PORTABENCH_CHECK"); check != nullptr) {
    std::cerr << "refusing to run: PORTABENCH_CHECK=" << check
              << " serializes every stream (unset it to measure)\n";
    return 2;
  }
  const EnvRecord env = clear_environment();
  if (!cli.child.empty()) {
    if (cli.workloads.size() != 1) throw std::invalid_argument("--child needs --workload");
    return cli.child == "setup" ? child_setup(cli) : child_run(cli);
  }

  const tune::MachineFingerprint& fp = tune::local_fingerprint();
  std::cout << "host: nproc " << fp.cores << ", cpu \"" << fp.cpu_model << "\", simd "
            << fp.simd_tier << ", tune fingerprint " << fingerprint_hex() << "\n";
  for (const auto& [name, value] : env) {
    std::cout << "env: " << name << " = " << (value ? *value + " (cleared)" : "<unset>")
              << "\n";
  }
  if (cli.self_check) return self_check(cli);

  std::vector<Run> runs;
  for (std::size_t rep = 0; rep < cli.repeat; ++rep) {
    for (const std::string& w : cli.workloads) {
      runs.push_back(measure(cli, w, cli.seed + rep));
      print_run(runs.back(), cli.seconds);
    }
  }
  if (const int rc = write_artifact(cli, env, runs); rc != 0) return rc;
  bool ok = true;
  for (const Run& r : runs) ok = ok && r.correct && r.exit_code == 0;
  std::cout << result_line(runs.back()) << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

}  // namespace portabench::e2e

int main(int argc, char** argv) {
  try {
    return portabench::e2e::run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "portabench_e2e: " << e.what() << "\n";
    portabench::e2e::usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "FAILED: " << e.what() << "\n";
    return 1;
  }
}
