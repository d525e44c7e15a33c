// Serving-layer throughput bench: millions of small mixed jobs through
// the launch engine.
//
// Two measured phases, both driven by the deterministic serve::TraceGen
// (same seed → bit-for-bit the same trace):
//
//   small-gemm  the gated mix: small tiled-frontend GEMMs, the
//               microkernel path.  Serial baseline replays every job through
//               serve::run_serial (the plain pre-existing frontends, one
//               job at a time); the served run streams the same trace
//               through ServeEngine's sharded queues and batched launches.
//               Every completed job's checksum is compared bitwise against
//               the serial oracle before any number is reported.
//   mixed       the full taxonomy (GEMM x 5 frontends x 3 precisions,
//               SpMV, stencil) at the default trace weights — reported,
//               not gated.
//
// Served latency under fixed open-loop arrival rates is bench/e2e's
// serve-open-gemm workload.  BENCH_serve.json records sustained req/s,
// speedup, and the engine's arena/backpressure accounting.
// --require-throughput X makes the binary exit nonzero unless the
// small-gemm served/serial speedup reaches X — the CI release-bench job
// pins a 5x target on >= 8-core runners.
//
// Usage: serve_throughput [--jobs N] [--shards N] [--batch N] [--min-n N]
//                         [--max-n N] [--seed S] [--require-throughput X]
//                         [--out PATH]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "serve/engine.hpp"
#include "serve/serial.hpp"
#include "serve/trace.hpp"

namespace {

using namespace portabench;

struct Options {
  std::size_t jobs = 8000;  // small-gemm phase (mixed runs jobs/2)
  std::size_t shards = 4;
  std::size_t batch = 32;
  std::uint32_t min_n = 32;
  std::uint32_t max_n = 80;
  std::uint64_t seed = 1;
  double require_throughput = 0.0;  // minimum small-gemm speedup; 0 = report only
  std::string out = "BENCH_serve.json";
};

/// Result of replaying one trace serially and then through the engine.
struct PhaseResult {
  std::size_t jobs = 0;
  double serial_s = 0.0;
  double served_s = 0.0;
  double serial_rps = 0.0;
  double served_rps = 0.0;
  double speedup = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t backpressure_rejects = 0;
  std::size_t arena_high_water = 0;
  std::uint64_t arena_grow_events = 0;
  bool bitwise_identical = false;
};

/// Serial oracle + served replay of one trace, with bitwise verification.
PhaseResult run_phase(const Options& opt, const serve::TraceConfig& trace_cfg,
                      std::size_t jobs) {
  PhaseResult r;
  r.jobs = jobs;

  serve::TraceGen gen(trace_cfg);
  std::vector<serve::JobDesc> trace;
  trace.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) trace.push_back(gen.next());

  // Serial baseline: every job through the plain frontends, one at a time.
  std::vector<double> expected(jobs);
  {
    Timer timer;
    for (std::size_t i = 0; i < jobs; ++i) {
      expected[i] = serve::run_serial(trace[i]).checksum;
    }
    r.serial_s = timer.seconds();
  }

  // Served run: same trace through the sharded, batched engine.  Each
  // result lands in its own id-indexed slot, so completion callbacks from
  // different shard flush threads never touch the same element; drain()
  // orders those writes before the verification reads.
  std::vector<double> served(jobs, 0.0);
  std::vector<unsigned char> completed(jobs, 0);
  serve::ServeConfig cfg;
  cfg.shards = opt.shards;
  cfg.batch_jobs = opt.batch;
  cfg.max_n = std::max(trace_cfg.max_n, opt.max_n);
  cfg.on_complete = [&](const serve::JobResult& res) {
    served[res.id] = res.checksum;
    completed[res.id] = res.status == serve::JobStatus::kOk ? 1 : 2;
  };
  {
    serve::ServeEngine engine(cfg);
    Timer timer;
    for (const auto& d : trace) {
      // Bounded-queue backpressure: a full shard sheds the request with a
      // typed reject; the open-throttle bench simply resubmits.
      while (engine.try_submit(d) == serve::AdmitError::kQueueFull) {
      }
    }
    engine.drain();
    r.served_s = timer.seconds();

    const serve::ServeStats st = engine.stats();
    r.batches = st.batches;
    r.backpressure_rejects =
        st.rejected_by[static_cast<std::size_t>(serve::AdmitError::kQueueFull)];
    r.arena_high_water = st.arena_high_water;
    r.arena_grow_events = st.arena_grow_events;
  }

  r.bitwise_identical = true;
  for (std::size_t i = 0; i < jobs; ++i) {
    if (completed[i] != 1 || served[i] != expected[i]) {
      r.bitwise_identical = false;
      std::cerr << "FAILED: job " << i << " (" << name(trace[i].kind) << "/"
                << name(trace[i].frontend) << " n=" << trace[i].n << ") served "
                << served[i] << " vs serial " << expected[i] << "\n";
      break;
    }
  }

  r.serial_rps = static_cast<double>(jobs) / r.serial_s;
  r.served_rps = static_cast<double>(jobs) / r.served_s;
  r.speedup = r.serial_s / r.served_s;
  return r;
}

void write_phase(JsonWriter& w, const PhaseResult& r) {
  w.begin_object();
  w.key("jobs");
  w.value(r.jobs);
  w.key("serial_s");
  w.value(r.serial_s);
  w.key("served_s");
  w.value(r.served_s);
  w.key("serial_rps");
  w.value(r.serial_rps);
  w.key("served_rps");
  w.value(r.served_rps);
  w.key("speedup");
  w.value(r.speedup);
  w.key("batches");
  w.value(static_cast<std::size_t>(r.batches));
  w.key("backpressure_rejects");
  w.value(static_cast<std::size_t>(r.backpressure_rejects));
  w.key("arena_high_water_bytes");
  w.value(r.arena_high_water);
  w.key("arena_grow_events");
  w.value(static_cast<std::size_t>(r.arena_grow_events));
  w.key("bitwise_identical");
  w.value(r.bitwise_identical);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opt.jobs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      opt.shards = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      opt.batch = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--min-n") == 0 && i + 1 < argc) {
      opt.min_n = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--max-n") == 0 && i + 1 < argc) {
      opt.max_n = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--require-throughput") == 0 && i + 1 < argc) {
      opt.require_throughput = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else {
      std::cerr << "usage: serve_throughput [--jobs N] [--shards N] [--batch N] "
                   "[--min-n N] [--max-n N] [--seed S] [--require-throughput X] "
                   "[--out PATH]\n";
      return 2;
    }
  }

  std::cout << "=== serve_throughput: sharded batched serving vs serial replay "
            << "(shards = " << opt.shards << ", batch = " << opt.batch << ") ===\n\n";

  // The gated mix: tiled-frontend small GEMMs (the microkernel path).
  serve::TraceConfig small_gemm;
  small_gemm.seed = opt.seed;
  small_gemm.min_n = opt.min_n;
  small_gemm.max_n = opt.max_n;
  small_gemm.spmv_weight = 0;
  small_gemm.stencil_weight = 0;
  small_gemm.tiled_only = true;
  const PhaseResult gemm_phase = run_phase(opt, small_gemm, opt.jobs);

  // The full taxonomy at the default trace weights — reported, not gated.
  serve::TraceConfig mixed;
  mixed.seed = opt.seed + 1;
  mixed.min_n = opt.min_n;
  mixed.max_n = opt.max_n;
  const PhaseResult mixed_phase = run_phase(opt, mixed, std::max<std::size_t>(opt.jobs / 2, 1));

  if (!gemm_phase.bitwise_identical || !mixed_phase.bitwise_identical) {
    std::cerr << "FAILED: served results are not bitwise-identical to serial replay\n";
    return 1;
  }

  Table table({"mix", "jobs", "serial req/s", "served req/s", "speedup", "batches",
               "sheds"});
  const auto add = [&](const char* label, const PhaseResult& r) {
    table.add_row({label, std::to_string(r.jobs), Table::num(r.serial_rps, 0),
                   Table::num(r.served_rps, 0), Table::num(r.speedup, 2),
                   std::to_string(r.batches), std::to_string(r.backpressure_rejects)});
  };
  add("small-gemm", gemm_phase);
  add("mixed", mixed_phase);
  std::cout << "-- sustained throughput, bitwise-verified against run_serial --\n"
            << table.to_markdown() << "\n";

  std::cout << "arena: high water = " << gemm_phase.arena_high_water << " bytes, "
            << gemm_phase.arena_grow_events << " grow events (small-gemm mix)\n";

  // --- machine-readable artifact --------------------------------------------
  BenchArtifact artifact("serve_throughput");
  JsonWriter& w = artifact.writer();
  w.key("shards");
  w.value(opt.shards);
  w.key("batch_jobs");
  w.value(opt.batch);
  w.key("min_n");
  w.value(static_cast<std::size_t>(opt.min_n));
  w.key("max_n");
  w.value(static_cast<std::size_t>(opt.max_n));
  w.key("seed");
  w.value(static_cast<std::size_t>(opt.seed));
  w.key("small_gemm");
  write_phase(w, gemm_phase);
  w.key("mixed");
  write_phase(w, mixed_phase);
  w.key("required_speedup");
  w.value(opt.require_throughput);
  if (const int rc = artifact.write(opt.out); rc != 0) return rc;

  if (opt.require_throughput > 0.0 && gemm_phase.speedup < opt.require_throughput) {
    std::cerr << "FAILED: small-gemm served speedup " << gemm_phase.speedup
              << "x is below the " << opt.require_throughput << "x requirement\n";
    return 1;
  }
  return 0;
}
