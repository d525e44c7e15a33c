// SIMD microbenchmark: what the portable simrt::simd layer buys.
//
// Measures the three hot paths the SIMD layer vectorized, each against
// its scalar baseline, and verifies every comparison bitwise (the layer's
// determinism contract says vectorization NEVER changes a result):
//
//   convert      batched half/bfloat16 <-> float conversion (convert_n)
//                vs the per-element scalar entry points half.cpp exports.
//                Same shared core either way — the batched form just runs
//                it W lanes at a time on the best ISA tier.
//   axpy         y[i] = a*x[i] + y[i] through simd<T, native_lanes<T>>
//                vs the scalar loop (mul+add per element on both sides).
//   microkernel  the tiled-GEMM register-blocked micro-kernel over packed
//                panels: scalar baseline vs every ISA tier the host
//                supports, in FLOP/s (this is the paper-facing number —
//                how much inner-loop throughput explicit SIMD recovers).
//   gemm         full gemm_tiled at --n vs the same driver at the scalar
//                tier (tiled_detail::gemm_tiled_with over the scalar
//                micro-kernel) — the end-to-end delta.
//
// Gates: --require-kernel X fails the run unless the float micro-kernel's
// dispatched-tier FLOP/s reach X times the scalar kernel's; and
// --require-convert X likewise for the batched half<->float conversion
// rate vs per-element (min of the two directions).  The CI release-bench
// job pins 1.5x / 2.0x on AVX2-capable hosts.  BENCH_simd.json records
// everything (see docs/PERF.md).
//
// Usage: micro_simd [--n N] [--samples K] [--require-kernel X]
//                   [--require-convert X] [--out PATH]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/half.hpp"
#include "common/half_convert.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "gemm/kernels_tiled.hpp"
#include "simrt/mdarray.hpp"
#include "simrt/parallel.hpp"
#include "simrt/simd.hpp"

namespace {

using namespace portabench;
using gemm::tiled::kKC;
using gemm::tiled::kMR;
using gemm::tiled::kNRMax;

struct Options {
  std::size_t n = 512;
  std::size_t samples = 5;
  double require_kernel = 0.0;
  double require_convert = 0.0;
  std::string out = "BENCH_simd.json";
};

/// Best-of-samples wall time in milliseconds.
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

// --- scalar axpy baseline (same two rounded ops per element) ----------------
template <class T>
void axpy_scalar(T a, const T* x, T* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a * x[i] + y[i];
}

template <class T>
void axpy_simd(T a, const T* x, T* y, std::size_t n) {
  constexpr std::size_t W = simrt::native_lanes<T>;
  using V = simrt::simd<T, W>;
  const V av(a);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    fma(av, V::load(x + i), V::load(y + i)).store(y + i);
  }
  if (i < n) {
    fma(av, V::load_partial(x + i, n - i), V::load_partial(y + i, n - i))
        .store_partial(y + i, n - i);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      opt.n = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      opt.samples = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--require-kernel") == 0 && i + 1 < argc) {
      opt.require_kernel = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--require-convert") == 0 && i + 1 < argc) {
      opt.require_convert = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else {
      std::cerr << "usage: micro_simd [--n N] [--samples K] [--require-kernel X]"
                   " [--require-convert X] [--out PATH]\n";
      return 2;
    }
  }

  const simrt::SimdTier tier = simrt::simd_dispatch_tier();
  std::cout << "=== micro_simd: simrt::simd layer vs scalar baselines (dispatch tier = "
            << simrt::simd_tier_name(tier) << ") ===\n\n";

  int failures = 0;
  Xoshiro256 rng(42);

  BenchArtifact artifact("micro_simd");
  JsonWriter& w = artifact.writer();
  w.key("n");
  w.value(opt.n);
  w.key("samples");
  w.value(opt.samples);
  w.key("tier");
  w.value(std::string(simrt::simd_tier_name(tier)));

  // --- convert: batched vs per-element --------------------------------------
  const std::size_t nconv = 1u << 20;
  std::vector<float> fsrc(nconv), fdst_s(nconv), fdst_b(nconv);
  std::vector<half> hsrc(nconv), hdst_s(nconv), hdst_b(nconv);
  std::vector<bfloat16> bsrc(nconv), bdst_s(nconv), bdst_b(nconv);
  for (std::size_t i = 0; i < nconv; ++i) {
    const float v = static_cast<float>(rng.uniform(-4.0, 4.0));
    fsrc[i] = v;
    hsrc[i] = half(v * 1.7f);
    bsrc[i] = bfloat16(v * 0.3f);
  }

  struct ConvRow {
    const char* dir;
    double scalar_ms;
    double batched_ms;
    double speedup;
  };
  std::vector<ConvRow> conv_rows;
  auto conv_case = [&](const char* dir, auto&& scalar_loop, auto&& batched,
                       auto&& bitwise_equal) {
    const double s_ms = best_ms(opt.samples, scalar_loop);
    const double b_ms = best_ms(opt.samples, batched);
    if (!bitwise_equal()) {
      std::cerr << "FAILED: " << dir << " batched result differs from per-element\n";
      ++failures;
    }
    conv_rows.push_back({dir, s_ms, b_ms, s_ms / b_ms});
  };

  conv_case(
      "half->float",
      [&] {
        for (std::size_t i = 0; i < nconv; ++i) fdst_s[i] = static_cast<float>(hsrc[i]);
      },
      [&] { convert_n(hsrc.data(), fdst_b.data(), nconv); },
      [&] { return std::memcmp(fdst_s.data(), fdst_b.data(), nconv * sizeof(float)) == 0; });
  conv_case(
      "float->half",
      [&] {
        for (std::size_t i = 0; i < nconv; ++i) hdst_s[i] = half(fsrc[i]);
      },
      [&] { convert_n(fsrc.data(), hdst_b.data(), nconv); },
      [&] { return std::memcmp(hdst_s.data(), hdst_b.data(), nconv * sizeof(half)) == 0; });
  conv_case(
      "bfloat->float",
      [&] {
        for (std::size_t i = 0; i < nconv; ++i) fdst_s[i] = static_cast<float>(bsrc[i]);
      },
      [&] { convert_n(bsrc.data(), fdst_b.data(), nconv); },
      [&] { return std::memcmp(fdst_s.data(), fdst_b.data(), nconv * sizeof(float)) == 0; });
  conv_case(
      "float->bfloat",
      [&] {
        for (std::size_t i = 0; i < nconv; ++i) bdst_s[i] = bfloat16(fsrc[i]);
      },
      [&] { convert_n(fsrc.data(), bdst_b.data(), nconv); },
      [&] {
        return std::memcmp(bdst_s.data(), bdst_b.data(), nconv * sizeof(bfloat16)) == 0;
      });

  const double convert_speedup_half =
      std::min(conv_rows[0].speedup, conv_rows[1].speedup);
  Table conv_table({"direction", "per-element (ms)", "batched (ms)", "speedup"});
  for (const auto& r : conv_rows) {
    conv_table.add_row({r.dir, Table::num(r.scalar_ms, 2), Table::num(r.batched_ms, 2),
                        Table::num(r.speedup, 2)});
  }
  std::cout << "-- batched conversion, " << nconv << " elements (bitwise-verified) --\n"
            << conv_table.to_markdown() << "\n";

  // --- axpy: simd value type vs scalar loop ---------------------------------
  struct AxpyRow {
    const char* type;
    double scalar_ms;
    double simd_ms;
    double speedup;
  };
  std::vector<AxpyRow> axpy_rows;
  auto axpy_case = [&](const char* type, auto one) {
    using T = decltype(one);
    const std::size_t na = (1u << 20) + 3;  // odd: exercises the masked tail
    std::vector<T> x(na), y0(na), ys(na), yv(na);
    for (std::size_t i = 0; i < na; ++i) {
      x[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
      y0[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
    const T a = static_cast<T>(1.25);
    const double s_ms = best_ms(opt.samples, [&] {
      ys = y0;
      axpy_scalar(a, x.data(), ys.data(), na);
    });
    const double v_ms = best_ms(opt.samples, [&] {
      yv = y0;
      axpy_simd(a, x.data(), yv.data(), na);
    });
    if (std::memcmp(ys.data(), yv.data(), na * sizeof(T)) != 0) {
      std::cerr << "FAILED: axpy " << type << " simd result differs from scalar\n";
      ++failures;
    }
    axpy_rows.push_back({type, s_ms, v_ms, s_ms / v_ms});
  };
  axpy_case("float", 0.0f);
  axpy_case("double", 0.0);

  Table axpy_table({"type", "scalar (ms)", "simd (ms)", "speedup"});
  for (const auto& r : axpy_rows) {
    axpy_table.add_row({r.type, Table::num(r.scalar_ms, 2), Table::num(r.simd_ms, 2),
                        Table::num(r.speedup, 2)});
  }
  std::cout << "-- axpy y = a*x + y (bitwise-verified; scalar loop is already\n"
               "   auto-vectorized to the baseline ISA, so gains come from wider tiers) --\n"
            << axpy_table.to_markdown() << "\n";

  // --- microkernel: packed-panel FLOP/s per tier ----------------------------
  struct KernelRow {
    std::string label;
    double ms;
    double gflops;
    double speedup;
  };
  std::vector<KernelRow> kernel_rows;
  double kernel_ratio_float = 1.0;
  auto kernel_case = [&](const char* type, auto one) {
    using Acc = decltype(one);
    const std::size_t kc = kKC;
    const std::size_t reps = 20000;
    std::vector<Acc> ap(kc * kMR), bp(kc * kNRMax), acc(kMR * kNRMax), ref(kMR * kNRMax);
    for (auto& v : ap) v = static_cast<Acc>(rng.uniform(-1.0, 1.0));
    for (auto& v : bp) v = static_cast<Acc>(rng.uniform(-1.0, 1.0));

    const auto scalar_mk = gemm::tiled_detail::microkernel_for_tier<Acc>(
        simrt::SimdTier::kScalar);
    scalar_mk.fn(ap.data(), bp.data(), kc, ref.data());
    const double scalar_ms = best_ms(opt.samples, [&] {
      for (std::size_t r = 0; r < reps; ++r) scalar_mk.fn(ap.data(), bp.data(), kc, acc.data());
    });
    const double scalar_gflops =
        2.0 * static_cast<double>(kc * kMR * scalar_mk.nr * reps) / (scalar_ms * 1e6);
    kernel_rows.push_back({std::string(type) + "/scalar", scalar_ms, scalar_gflops, 1.0});

    for (simrt::SimdTier t : {simrt::SimdTier::kAvx2, simrt::SimdTier::kAvx512}) {
      if (!simrt::simd_tier_available(t)) continue;
      const auto mk = gemm::tiled_detail::microkernel_for_tier<Acc>(t);
      if (mk.tier != t) continue;  // no tuned kernel for this tier/type
      mk.fn(ap.data(), bp.data(), kc, acc.data());
      // Bitwise check vs the scalar kernel at the SAME panel geometry
      // (NR changes how the packed bp array is interpreted).
      if (mk.nr == gemm::tiled::kNR) {
        gemm::tiled_detail::microkernel_scalar<Acc, gemm::tiled::kNR>(ap.data(), bp.data(),
                                                                      kc, ref.data());
      } else {
        gemm::tiled_detail::microkernel_scalar<Acc, kNRMax>(ap.data(), bp.data(), kc,
                                                            ref.data());
      }
      const bool same =
          std::memcmp(acc.data(), ref.data(), kMR * mk.nr * sizeof(Acc)) == 0;
      if (!same) {
        std::cerr << "FAILED: " << type << " micro-kernel tier "
                  << simrt::simd_tier_name(t) << " differs from scalar\n";
        ++failures;
      }
      const double ms = best_ms(opt.samples, [&] {
        for (std::size_t r = 0; r < reps; ++r) mk.fn(ap.data(), bp.data(), kc, acc.data());
      });
      const double gflops =
          2.0 * static_cast<double>(kc * kMR * mk.nr * reps) / (ms * 1e6);
      const double speedup = gflops / scalar_gflops;
      kernel_rows.push_back({std::string(type) + "/" +
                                 std::string(simrt::simd_tier_name(t)),
                             ms, gflops, speedup});
      if (std::strcmp(type, "float") == 0 && mk.tier == tier) kernel_ratio_float = speedup;
    }
  };
  kernel_case("float", 0.0f);
  kernel_case("double", 0.0);

  Table kernel_table({"kernel", "ms", "GFLOP/s", "vs scalar"});
  for (const auto& r : kernel_rows) {
    kernel_table.add_row(
        {r.label, Table::num(r.ms, 2), Table::num(r.gflops, 2), Table::num(r.speedup, 2)});
  }
  std::cout << "-- GEMM micro-kernel over packed panels (FLOPs-normalized; "
               "bitwise-verified) --\n"
            << kernel_table.to_markdown() << "\n";

  // --- gemm: end-to-end tiled GEMM vs the same driver at the scalar tier ----
  struct GemmRow {
    const char* type;
    double legacy_ms;
    double simd_ms;
    double speedup;
  };
  std::vector<GemmRow> gemm_rows;
  {
    const std::size_t n = opt.n;
    simrt::SerialSpace space;
    simrt::View2<float> A(n, n), B(n, n), C_scalar(n, n), C_simd(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        A(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
        B(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
    const double legacy_ms = best_ms(opt.samples, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) C_scalar(i, j) = 0.0f;
      }
      namespace td = gemm::tiled_detail;
      td::gemm_tiled_with(space, td::microkernel_for_tier<float>(simrt::SimdTier::kScalar), A,
                          B, C_scalar);
    });
    const double simd_ms = best_ms(opt.samples, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) C_simd(i, j) = 0.0f;
      }
      gemm::gemm_tiled<float>(space, A, B, C_simd);
    });
    bool same = true;
    for (std::size_t i = 0; i < n && same; ++i) {
      for (std::size_t j = 0; j < n && same; ++j) {
        const float a = C_scalar(i, j);
        const float b = C_simd(i, j);
        same = std::memcmp(&a, &b, sizeof(float)) == 0;
      }
    }
    if (!same) {
      std::cerr << "FAILED: gemm_tiled result differs from the scalar-tier baseline\n";
      ++failures;
    }
    gemm_rows.push_back({"float", legacy_ms, simd_ms, legacy_ms / simd_ms});
  }

  Table gemm_table({"type", "scalar tier (ms)", "simd (ms)", "speedup"});
  for (const auto& r : gemm_rows) {
    gemm_table.add_row({r.type, Table::num(r.legacy_ms, 2), Table::num(r.simd_ms, 2),
                        Table::num(r.speedup, 2)});
  }
  std::cout << "-- full tiled GEMM, n=" << opt.n << " (bitwise-verified) --\n"
            << gemm_table.to_markdown() << "\n";

  // --- machine-readable artifact --------------------------------------------
  w.key("convert");
  w.begin_array();
  for (const auto& r : conv_rows) {
    w.begin_object();
    w.key("direction");
    w.value(r.dir);
    w.key("scalar_ms");
    w.value(r.scalar_ms);
    w.key("batched_ms");
    w.value(r.batched_ms);
    w.key("speedup");
    w.value(r.speedup);
    w.end_object();
  }
  w.end_array();
  w.key("axpy");
  w.begin_array();
  for (const auto& r : axpy_rows) {
    w.begin_object();
    w.key("type");
    w.value(r.type);
    w.key("scalar_ms");
    w.value(r.scalar_ms);
    w.key("simd_ms");
    w.value(r.simd_ms);
    w.key("speedup");
    w.value(r.speedup);
    w.end_object();
  }
  w.end_array();
  w.key("microkernel");
  w.begin_array();
  for (const auto& r : kernel_rows) {
    w.begin_object();
    w.key("kernel");
    w.value(r.label);
    w.key("ms");
    w.value(r.ms);
    w.key("gflops");
    w.value(r.gflops);
    w.key("speedup");
    w.value(r.speedup);
    w.end_object();
  }
  w.end_array();
  w.key("gemm");
  w.begin_array();
  for (const auto& r : gemm_rows) {
    w.begin_object();
    w.key("type");
    w.value(r.type);
    w.key("legacy_ms");
    w.value(r.legacy_ms);
    w.key("simd_ms");
    w.value(r.simd_ms);
    w.key("speedup");
    w.value(r.speedup);
    w.end_object();
  }
  w.end_array();
  w.key("kernel_ratio_float");
  w.value(kernel_ratio_float);
  w.key("convert_speedup_half");
  w.value(convert_speedup_half);
  if (const int rc = artifact.write(opt.out); rc != 0) return rc;

  if (opt.require_kernel > 0.0 && kernel_ratio_float < opt.require_kernel) {
    std::cerr << "FAILED: float micro-kernel speedup " << kernel_ratio_float
              << "x is below the " << opt.require_kernel << "x requirement\n";
    ++failures;
  }
  if (opt.require_convert > 0.0 && convert_speedup_half < opt.require_convert) {
    std::cerr << "FAILED: batched half conversion speedup " << convert_speedup_half
              << "x is below the " << opt.require_convert << "x requirement\n";
    ++failures;
  }
  if (failures != 0) {
    std::cerr << failures << " FAILURES\n";
    return 1;
  }
  return 0;
}
