// Device-wide primitives microbenchmark: scan and sort (src/primitives/)
// against their serial oracles and the std:: baselines they displace,
// with every comparison verified bitwise in-bench (the primitives'
// determinism contract says the schedule NEVER changes a result — a
// mismatch exits 1 regardless of gates).  A device path stays in the
// library only while it beats its serial oracle beyond noise at the
// default n; these rows are that evidence.
//
// Sections:
//   scan       device_exclusive_scan vs oracle and std::exclusive_scan,
//              plus the block-scan tree ablation: Blelloch (shipped,
//              combines counted) vs the Hillis-Steele shape it replaced
//              (combines from the closed form), by exact COMBINE COUNT
//              (deterministic, host-independent)
//   sort       device_radix_sort_pairs vs the stable oracle, and the
//              host radix path vs the std::stable_sort permutation idiom
//   phi        Phi_M-style portability rows (Eq. 1): each primitive's
//              simulated throughput on the two GPU models (A100,
//              MI250X GCD), efficiency relative to the better one
//
// Gates (CI: release-bench):
//   --require-scan-combines X   Hillis/Blelloch combine ratio >= X
//                               (deterministic — gated on every host)
//   --require-sort X            host radix vs std::stable_sort speedup
//                               >= X (gated on big runners only)
//
// Usage: micro_primitives [--n N] [--samples K] [--quick]
//                         [--require-scan-combines X] [--require-sort X]
//                         [--out PATH]
#include <algorithm>
#include <bit>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "gpusim/block_primitives.hpp"
#include "portability/metric.hpp"
#include "primitives/scan.hpp"
#include "primitives/serial.hpp"
#include "primitives/sort.hpp"

namespace {

using namespace portabench;

struct Options {
  std::size_t n = 1u << 20;
  std::size_t samples = 3;
  bool quick = false;
  double require_scan_combines = 0.0;
  double require_sort = 0.0;
  std::string out = "BENCH_primitives.json";
};

template <class F>
double best_ms(std::size_t samples, F&& f) {
  double best = 1e300;
  for (std::size_t s = 0; s < samples; ++s) {
    Timer timer;
    f();
    best = std::min(best, timer.seconds() * 1e3);
  }
  return best;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform() - 0.5;
  return v;
}

/// Sum op that counts its own invocations — the tree-shape ablation
/// metric (combine count is exact and host-independent, unlike wall
/// time under the simulator).
struct CountingSum {
  static constexpr bool kExact = true;
  long* combines;
  [[nodiscard]] long operator()(long a, long b) const {
    ++*combines;
    return a + b;
  }
  [[nodiscard]] long identity() const { return 0; }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      opt.n = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      opt.samples = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--require-scan-combines") == 0 && i + 1 < argc) {
      opt.require_scan_combines = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--require-sort") == 0 && i + 1 < argc) {
      opt.require_sort = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else {
      std::cerr << "usage: micro_primitives [--n N] [--samples K] [--quick]"
                   " [--require-scan-combines X] [--require-sort X] [--out PATH]\n";
      return 2;
    }
  }
  if (opt.quick) opt.n = std::min<std::size_t>(opt.n, 1u << 17);

  std::cout << "=== micro_primitives: device-wide primitives vs serial baselines ===\n\n";

  int failures = 0;
  gpusim::DeviceContext ctx(gpusim::GpuSpec::a100());

  BenchArtifact artifact("micro_primitives");
  JsonWriter& w = artifact.writer();
  w.key("n");
  w.value(opt.n);
  w.key("samples");
  w.value(opt.samples);

  // --- scan -----------------------------------------------------------------
  struct ScanRow {
    std::size_t n;
    double device_ms;
    double oracle_ms;
    double std_scan_ms;
    bool bitwise;
  };
  std::vector<ScanRow> scan_rows;
  for (const std::size_t n : {opt.n / 16, opt.n / 4, opt.n}) {
    const std::vector<double> in = random_doubles(n, 23 + n);
    std::vector<double> dev(n), ora(n), std_out(n);
    const simrt::SumOp<double> sum;
    const double device_ms = best_ms(opt.samples, [&] {
      primitives::device_exclusive_scan(ctx, std::span<const double>(in),
                                        std::span<double>(dev), sum);
    });
    const double oracle_ms = best_ms(opt.samples, [&] {
      primitives::exclusive_scan_oracle(std::span<const double>(in),
                                        std::span<double>(ora), sum);
    });
    const double std_ms = best_ms(opt.samples, [&] {
      std::exclusive_scan(in.begin(), in.end(), std_out.begin(), 0.0);
    });
    const bool bitwise =
        std::memcmp(dev.data(), ora.data(), n * sizeof(double)) == 0;
    if (!bitwise) {
      std::cerr << "FAILED: device_exclusive_scan(n=" << n << ") differs from oracle\n";
      ++failures;
    }
    scan_rows.push_back({n, device_ms, oracle_ms, std_ms, bitwise});
  }
  Table scan_table({"n", "device (ms)", "oracle (ms)", "std::exclusive_scan (ms)",
                    "bitwise"});
  for (const auto& r : scan_rows) {
    scan_table.add_row({std::to_string(r.n), Table::num(r.device_ms, 3),
                        Table::num(r.oracle_ms, 3), Table::num(r.std_scan_ms, 3),
                        r.bitwise ? "yes" : "NO"});
  }
  std::cout << "-- device_exclusive_scan, double sum (device == oracle bit-for-bit) --\n"
            << scan_table.to_markdown() << "\n";

  // Tree ablation: the Blelloch block scan we ship vs the Hillis-Steele
  // shape it replaced, by exact combine count at one 256-lane block.
  // Hillis-Steele's log2(n) levels combine n - stride lanes each:
  // n * log2(n) - (n - 1) in total.
  constexpr std::size_t kLanes = 256;
  long blelloch_combines = 0;
  gpusim::launch_blocks(ctx, {1, 1, 1}, {kLanes, 1, 1}, 2 * kLanes * sizeof(long),
                        [&](gpusim::BlockCtx& bc) {
                          auto scratch = bc.shared<long>(2 * kLanes);
                          gpusim::block_exclusive_scan(
                              bc, scratch, CountingSum{&blelloch_combines},
                              [](const gpusim::ThreadCtx& tc) {
                                return static_cast<long>(tc.lane_in_block());
                              });
                        });
  constexpr long hillis_combines =
      static_cast<long>(kLanes * std::countr_zero(kLanes) - (kLanes - 1));
  const double scan_combine_ratio =
      static_cast<double>(hillis_combines) / static_cast<double>(blelloch_combines);
  std::cout << "-- block-scan tree, 256 lanes: Blelloch " << blelloch_combines
            << " combines vs Hillis-Steele " << hillis_combines << " ("
            << Table::num(scan_combine_ratio, 2) << "x fewer) --\n\n";

  // --- sort -----------------------------------------------------------------
  const std::size_t ns = opt.n;
  Xoshiro256 sort_rng(31);
  std::vector<std::uint64_t> keys0(ns);
  for (auto& k : keys0) k = sort_rng() & 0xffffffffull;
  std::vector<std::uint32_t> vals0(ns);
  std::iota(vals0.begin(), vals0.end(), std::uint32_t{0});

  // Device radix vs the stable oracle (timed like the host rows below,
  // input copy included on both sides; bitwise on keys and values).
  std::vector<std::uint64_t> dk, ok;
  std::vector<std::uint32_t> dv, ov;
  const double device_sort_ms = best_ms(opt.samples, [&] {
    dk = keys0;
    dv = vals0;
    primitives::device_radix_sort_pairs(ctx, std::span<std::uint64_t>(dk),
                                        std::span<std::uint32_t>(dv));
  });
  const double device_sort_oracle_ms = best_ms(opt.samples, [&] {
    ok = keys0;
    ov = vals0;
    primitives::sort_pairs_oracle(std::span<std::uint64_t>(ok), std::span<std::uint32_t>(ov));
  });
  const bool device_sort_bitwise =
      std::memcmp(dk.data(), ok.data(), ns * sizeof(std::uint64_t)) == 0 &&
      std::memcmp(dv.data(), ov.data(), ns * sizeof(std::uint32_t)) == 0;
  if (!device_sort_bitwise) {
    std::cerr << "FAILED: device_radix_sort_pairs differs from the stable oracle\n";
    ++failures;
  }

  // Host radix vs the std::stable_sort permutation idiom.
  primitives::HostRadixScratch<std::uint64_t, std::uint32_t> scratch;
  std::vector<std::uint64_t> hk;
  std::vector<std::uint32_t> hv;
  const double radix_ms = best_ms(opt.samples, [&] {
    hk = keys0;
    hv = vals0;
    primitives::host_radix_sort_pairs(std::span<std::uint64_t>(hk),
                                      std::span<std::uint32_t>(hv), scratch);
  });
  std::vector<std::uint64_t> sk;
  std::vector<std::uint32_t> sv;
  const double stable_ms = best_ms(opt.samples, [&] {
    sk = keys0;
    sv = vals0;
    std::vector<std::uint32_t> perm(ns);
    std::iota(perm.begin(), perm.end(), std::uint32_t{0});
    std::stable_sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
      return keys0[a] < keys0[b];
    });
    for (std::size_t i = 0; i < ns; ++i) {
      sk[i] = keys0[perm[i]];
      sv[i] = vals0[perm[i]];
    }
  });
  const double sort_speedup = stable_ms / radix_ms;
  const bool sort_bitwise =
      std::memcmp(hk.data(), sk.data(), ns * sizeof(std::uint64_t)) == 0 &&
      std::memcmp(hv.data(), sv.data(), ns * sizeof(std::uint32_t)) == 0;
  if (!sort_bitwise) {
    std::cerr << "FAILED: host_radix_sort_pairs differs from std::stable_sort\n";
    ++failures;
  }
  Table sort_table({"n", "path", "radix (ms)", "baseline (ms)", "speedup", "bitwise"});
  sort_table.add_row({std::to_string(ns), "device vs oracle", Table::num(device_sort_ms, 3),
                      Table::num(device_sort_oracle_ms, 3),
                      Table::num(device_sort_oracle_ms / device_sort_ms, 2),
                      device_sort_bitwise ? "yes" : "NO"});
  sort_table.add_row({std::to_string(ns), "host vs std::stable_sort", Table::num(radix_ms, 3),
                      Table::num(stable_ms, 3), Table::num(sort_speedup, 2),
                      sort_bitwise ? "yes" : "NO"});
  std::cout << "-- (key, value) radix sort, 32-bit-dense uint64 keys (every side\n"
               "   is stable) --\n"
            << sort_table.to_markdown() << "\n";

  // --- Phi_M rows -----------------------------------------------------------
  // Eq.-1 style portability of each primitive across the two simulated
  // GPU models: throughput per platform, efficiency relative to the
  // better platform, Phi the arithmetic mean (both supported, so the
  // metric-definition variants coincide up to the mean used).
  struct PhiRow {
    const char* primitive;
    double rate_mi250x;  ///< Melem/s, simulated MI250X GCD
    double rate_a100;    ///< Melem/s, simulated A100
    double phi;
  };
  std::vector<PhiRow> phi_rows;
  {
    const std::size_t np = opt.quick ? (1u << 15) : (1u << 18);
    const std::vector<double> in = random_doubles(np, 3);
    std::vector<std::uint32_t> hkeys(np);
    {
      Xoshiro256 rng(5);
      for (auto& k : hkeys) k = static_cast<std::uint32_t>(rng());
    }
    auto rate = [&](gpusim::DeviceContext& c, const char* which) {
      double ms = 0;
      if (std::strcmp(which, "scan") == 0) {
        std::vector<double> out(np);
        ms = best_ms(opt.samples, [&] {
          primitives::device_exclusive_scan(c, std::span<const double>(in),
                                            std::span<double>(out),
                                            simrt::SumOp<double>{});
        });
      } else {
        std::vector<std::uint32_t> k = hkeys;
        ms = best_ms(opt.samples, [&] {
          k = hkeys;
          primitives::device_radix_sort_keys(c, std::span<std::uint32_t>(k));
        });
      }
      return static_cast<double>(np) / (ms * 1e3);  // Melem/s
    };
    gpusim::DeviceContext mi250x(gpusim::GpuSpec::mi250x_gcd());
    for (const char* which : {"scan", "sort"}) {
      const double r_mi = rate(mi250x, which);
      const double r_a100 = rate(ctx, which);
      const double best = std::max(r_mi, r_a100);
      const portability::EfficiencyEntry entries[] = {
          {perfmodel::Platform::kCrusherGpu, r_mi / best, true},
          {perfmodel::Platform::kWombatGpu, r_a100 / best, true},
      };
      phi_rows.push_back({which, r_mi, r_a100,
                          portability::phi_arithmetic(entries)});
    }
  }
  Table phi_table({"primitive", "MI250X GCD (Melem/s)", "A100 (Melem/s)", "Phi_M"});
  for (const auto& r : phi_rows) {
    phi_table.add_row({r.primitive, Table::num(r.rate_mi250x, 2),
                       Table::num(r.rate_a100, 2), Table::num(r.phi, 3)});
  }
  std::cout << "-- Phi_M (Eq. 1) across the simulated GPU models (efficiency is\n"
               "   relative to the better platform; results are identical bits on\n"
               "   both, so portability here is purely a throughput statement) --\n"
            << phi_table.to_markdown() << "\n";

  // --- machine-readable artifact --------------------------------------------
  w.key("scan");
  w.begin_array();
  for (const auto& r : scan_rows) {
    w.begin_object();
    w.key("n");
    w.value(r.n);
    w.key("device_ms");
    w.value(r.device_ms);
    w.key("oracle_ms");
    w.value(r.oracle_ms);
    w.key("std_scan_ms");
    w.value(r.std_scan_ms);
    w.key("bitwise_identical");
    w.value(r.bitwise);
    w.end_object();
  }
  w.end_array();
  w.key("scan_tree");
  w.begin_object();
  w.key("lanes");
  w.value(kLanes);
  w.key("blelloch_combines");
  w.value(blelloch_combines);
  w.key("hillis_combines");
  w.value(hillis_combines);
  w.key("combine_ratio");
  w.value(scan_combine_ratio);
  w.end_object();
  w.key("sort");
  w.begin_object();
  w.key("n");
  w.value(ns);
  w.key("radix_ms");
  w.value(radix_ms);
  w.key("stable_sort_ms");
  w.value(stable_ms);
  w.key("speedup");
  w.value(sort_speedup);
  w.key("bitwise_identical");
  w.value(sort_bitwise);
  w.end_object();
  w.key("device_sort");
  w.begin_object();
  w.key("n");
  w.value(ns);
  w.key("device_ms");
  w.value(device_sort_ms);
  w.key("oracle_ms");
  w.value(device_sort_oracle_ms);
  w.key("bitwise_identical");
  w.value(device_sort_bitwise);
  w.end_object();
  w.key("phi");
  w.begin_array();
  for (const auto& r : phi_rows) {
    w.begin_object();
    w.key("primitive");
    w.value(r.primitive);
    w.key("rate_mi250x_melems");
    w.value(r.rate_mi250x);
    w.key("rate_a100_melems");
    w.value(r.rate_a100);
    w.key("phi");
    w.value(r.phi);
    w.end_object();
  }
  w.end_array();
  w.key("scan_combine_ratio");
  w.value(scan_combine_ratio);
  w.key("sort_speedup");
  w.value(sort_speedup);
  if (const int rc = artifact.write(opt.out); rc != 0) return rc;

  if (opt.require_scan_combines > 0.0 && scan_combine_ratio < opt.require_scan_combines) {
    std::cerr << "FAILED: Hillis/Blelloch combine ratio " << scan_combine_ratio
              << "x is below the " << opt.require_scan_combines << "x requirement\n";
    ++failures;
  }
  if (opt.require_sort > 0.0 && sort_speedup < opt.require_sort) {
    std::cerr << "FAILED: host radix speedup " << sort_speedup << "x is below the "
              << opt.require_sort << "x requirement\n";
    ++failures;
  }
  if (failures != 0) {
    std::cerr << failures << " FAILURES\n";
    return 1;
  }
  return 0;
}
