// Optimized tiled/packed CPU GEMM: the measured performance ceiling.
//
// The paper deliberately studies naive hand-rolled kernels as a lower
// bound (Section I).  This kernel is the other end of that bracket: a
// BLIS-style blocked C += A*B with packed panels and a register-blocked
// micro-kernel, the "optimized C++" frontend the naive Fig. 2 kernels are
// normalized against in the Eq.-2 efficiency machinery (how much of what
// a tuned native implementation extracts does each model's idiom reach?).
//
// Structure (classic three-loop blocking around a micro-kernel):
//   for pc over k in KC steps:         pack B[pc:pc+kc, :] into NR-wide
//                                      column panels (serial, shared)
//     parallel_for over MC row blocks: pack A[ic:ic+mc, pc:pc+kc] into
//                                      MR-tall row panels (thread-local)
//       for each NR column panel:
//         for each MR row panel:       MR x NR register-blocked
//                                      micro-kernel over the packed data
//
// Panels are zero-padded to full MR/NR width so the micro-kernel is
// branch-free; edge handling happens only at writeback.  Packing converts
// T -> Acc, so the FP16 path gets FP32 packed operands (the paper's
// FP16-in/FP32-accumulate scheme) and the micro-kernel is unit-stride
// regardless of the source view's layout — the kernel is layout-generic
// without a layout-specific loop nest.
//
// The micro-kernel is tier-dispatched through simrt::simd (docs/PERF.md
// "Portable SIMD layer"): float/double get register-blocked AVX2/AVX-512
// variants picked once per process; the scalar micro-kernel remains the
// baseline (and the bit-exact reference — at -O3 the compiler already
// auto-vectorizes it to the baseline ISA, which is why the generic
// vector tier reuses it rather than shipping a same-width copy).  Panel
// width NR follows the kernel (8 scalar/AVX2, 16 for AVX-512 float).
//
// Determinism contract: every tier produces bit-identical C.  Each
// C(i,j) accumulates a(i,l)*b(l,j) over l strictly ascending into one
// accumulator as two rounded IEEE ops (mul then add — fma() here is the
// two-op form and -ffp-contract=off keeps hardware FMA out), and that
// per-element order is invariant under lane width, unroll factor, and
// panel geometry; zero-padded lanes feed only discarded accumulators.
// The sanitized test tier pins scalar vs every available SIMD tier.
//
// Half/bfloat16 operands with addressable row-major storage are packed
// through the batched convert_n() converters (common/half_convert.hpp)
// instead of per-element round trips; views without raw storage (e.g.
// portacheck shadow views) or non-unit row stride fall back to the
// generic per-element packing loops, preserving instrumentation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/half_convert.hpp"
#include "gpusim/batch.hpp"
#include "simrt/mdarray.hpp"
#include "simrt/parallel.hpp"
#include "simrt/simd.hpp"

namespace portabench::gemm {

namespace tiled {

// The blocking constants, named once here for every tiled-GEMM caller.
// portalint: tn-magic-tile-ok(the tiled GEMM's blocking constants; their one home)
inline constexpr std::size_t kMR = 4;     ///< micro-tile rows (register block)
// portalint: tn-magic-tile-ok(the tiled GEMM's blocking constants; their one home)
inline constexpr std::size_t kNR = 8;     ///< micro-tile columns (scalar/AVX2 panel width)
// portalint: tn-magic-tile-ok(the tiled GEMM's blocking constants; their one home)
inline constexpr std::size_t kNRMax = 16; ///< widest panel any tier uses (AVX-512 float)
// portalint: tn-magic-tile-ok(the tiled GEMM's blocking constants; their one home)
inline constexpr std::size_t kKC = 256;   ///< k blocking (packed panel depth)
// portalint: tn-magic-tile-ok(the tiled GEMM's blocking constants; their one home)
inline constexpr std::size_t kMC = 64;    ///< m blocking (rows per parallel unit)

}  // namespace tiled

/// Row blocking of one tiled-GEMM call; `TileConfig{}` is the schedule
/// every library caller runs.
///
/// mc is rows per parallel/serial unit: pure work partitioning, so any
/// mc > 0 gives bit-identical C (each C(i,j) still accumulates its
/// l-terms in the same KC-block order).  The k blocking is the constant
/// tiled::kKC, not a field: it sets the fp combination order, since C is
/// read, added and written once per KC block.
struct TileConfig {
  std::size_t mc = tiled::kMC;
};

namespace tiled_detail {

/// Micro-kernel signature: acc (kMR x NR, row-major, zero on entry)
/// += ap (kc x kMR panel) * bp (kc x NR panel).
template <class Acc>
using microkernel_fn = void (*)(const Acc* ap, const Acc* bp, std::size_t kc, Acc* acc);

/// A selected micro-kernel plus the panel geometry it expects.
template <class Acc>
struct MicroKernel {
  microkernel_fn<Acc> fn;
  std::size_t nr;        ///< packed-B panel width (acc row stride)
  simrt::SimdTier tier;  ///< tier the kernel was compiled for (reporting)
};

/// Baseline micro-kernel: plain scalar loops, NR-generic.  This is the
/// bit-exact reference every SIMD variant must reproduce.
template <class Acc, std::size_t NR>
inline void microkernel_scalar(const Acc* ap, const Acc* bp, std::size_t kc, Acc* acc) {
  using namespace tiled;
  // Accumulate in a local block: the out-pointer cannot alias the
  // panels, but the compiler can't prove that — a local array keeps the
  // accumulators in registers (and lets -O3 auto-vectorize the jj loop).
  Acc c[kMR][NR] = {};
  for (std::size_t l = 0; l < kc; ++l) {
    const Acc* a = ap + l * kMR;
    const Acc* b = bp + l * NR;
    for (std::size_t ii = 0; ii < kMR; ++ii) {
      const Acc av = a[ii];
      for (std::size_t jj = 0; jj < NR; ++jj) {
        c[ii][jj] += av * b[jj];
      }
    }
  }
  for (std::size_t ii = 0; ii < kMR; ++ii) {
    for (std::size_t jj = 0; jj < NR; ++jj) acc[ii * NR + jj] = c[ii][jj];
  }
}

/// Width-generic SIMD micro-kernel body: kMR x (NR/W vectors) accumulator
/// block, k-loop unrolled by U to hide load latency.  Each accumulator
/// lane still sums its l-terms strictly ascending (the U products are
/// added sequentially into the same register), so the result is
/// bit-identical to microkernel_scalar for every (W, NR, U).
template <class Acc, std::size_t W, std::size_t NR, std::size_t U>
inline void microkernel_simd_body(const Acc* ap, const Acc* bp, std::size_t kc, Acc* acc) {
  using namespace tiled;
  using V = simrt::simd<Acc, W>;
  static_assert(NR % W == 0 && NR <= kNRMax);
  constexpr std::size_t NV = NR / W;

  V c[kMR][NV];
  for (std::size_t ii = 0; ii < kMR; ++ii) {
    for (std::size_t jv = 0; jv < NV; ++jv) c[ii][jv] = V();
  }

  auto step = [&](std::size_t l) {
    const Acc* a = ap + l * kMR;
    const Acc* b = bp + l * NR;
    V bv[NV];
    for (std::size_t jv = 0; jv < NV; ++jv) bv[jv] = V::load(b + jv * W);
    for (std::size_t ii = 0; ii < kMR; ++ii) {
      const V av(a[ii]);
      for (std::size_t jv = 0; jv < NV; ++jv) c[ii][jv] = fma(av, bv[jv], c[ii][jv]);
    }
  };

  std::size_t l = 0;
  for (; l + U <= kc; l += U) {
    for (std::size_t u = 0; u < U; ++u) step(l + u);
  }
  for (; l < kc; ++l) step(l);

  for (std::size_t ii = 0; ii < kMR; ++ii) {
    for (std::size_t jv = 0; jv < NV; ++jv) c[ii][jv].store(acc + ii * NR + jv * W);
  }
}

#if PORTABENCH_SIMD_HAS_X86_TIERS
// Tier wrappers: same generic body recompiled per ISA (flatten inlines
// it under the wider target).  Geometry per tier was measured on the
// perf harness: float AVX2 4x8/u4, float AVX-512 4x16/u2, double AVX2
// 4x8 as two 4-lane vectors/u4, double AVX-512 4x8/u2.
PORTABENCH_SIMD_TARGET_AVX2 inline void microkernel_f32_avx2(const float* ap, const float* bp,
                                                             std::size_t kc, float* acc) {
  microkernel_simd_body<float, 8, 8, 4>(ap, bp, kc, acc);
}
PORTABENCH_SIMD_TARGET_AVX512 inline void microkernel_f32_avx512(const float* ap,
                                                                 const float* bp,
                                                                 std::size_t kc, float* acc) {
  microkernel_simd_body<float, 16, 16, 2>(ap, bp, kc, acc);
}
PORTABENCH_SIMD_TARGET_AVX2 inline void microkernel_f64_avx2(const double* ap,
                                                             const double* bp, std::size_t kc,
                                                             double* acc) {
  microkernel_simd_body<double, 4, 8, 4>(ap, bp, kc, acc);
}
PORTABENCH_SIMD_TARGET_AVX512 inline void microkernel_f64_avx512(const double* ap,
                                                                 const double* bp,
                                                                 std::size_t kc, double* acc) {
  microkernel_simd_body<double, 8, 8, 2>(ap, bp, kc, acc);
}
#endif

/// Micro-kernel for an explicit tier (tests/bench cross-check every
/// available tier for bit identity; pass a tier the host supports).
/// Tiers below kAvx2 — and accumulator types without a tuned variant —
/// use the scalar micro-kernel: the compiler already auto-vectorizes it
/// to the baseline ISA, and the measured generic-vector variant was
/// slower than that baseline.
template <class Acc>
[[nodiscard]] inline MicroKernel<Acc> microkernel_for_tier(simrt::SimdTier tier) noexcept {
  using simrt::SimdTier;
#if PORTABENCH_SIMD_HAS_X86_TIERS
  if constexpr (std::is_same_v<Acc, float>) {
    if (tier == SimdTier::kAvx512) {
      return {&microkernel_f32_avx512, tiled::kNRMax, SimdTier::kAvx512};
    }
    if (tier == SimdTier::kAvx2) return {&microkernel_f32_avx2, tiled::kNR, SimdTier::kAvx2};
  } else if constexpr (std::is_same_v<Acc, double>) {
    if (tier == SimdTier::kAvx512) {
      return {&microkernel_f64_avx512, tiled::kNR, SimdTier::kAvx512};
    }
    if (tier == SimdTier::kAvx2) return {&microkernel_f64_avx2, tiled::kNR, SimdTier::kAvx2};
  }
#endif
  (void)tier;
  return {&microkernel_scalar<Acc, tiled::kNR>, tiled::kNR, SimdTier::kScalar};
}

/// The micro-kernel gemm_tiled dispatches to on this host (cached).
template <class Acc>
[[nodiscard]] inline const MicroKernel<Acc>& pick_microkernel() noexcept {
  static const MicroKernel<Acc> mk = microkernel_for_tier<Acc>(simrt::simd_dispatch_tier());
  return mk;
}

/// True when V exposes raw row-major storage (data() + stride()) whose
/// rows the batched converters can walk.  Deliberately excludes wrapper
/// views without data() — portacheck's ShadowView2 keeps per-element
/// instrumentation by failing this gate.
template <class V>
inline constexpr bool has_raw_rows_v = requires(const V& v) {
  { v.data() };
  { v.stride(std::size_t{0}) } -> std::convertible_to<std::size_t>;
} && V::is_row_major;

/// True when packing V's elements into Acc panels can go through the
/// batched half/bfloat16 converters.
template <class V, class Acc>
inline constexpr bool batched_pack_ok_v =
    std::is_same_v<Acc, float> && has_raw_rows_v<V> &&
    (std::is_same_v<typename V::value_type, half> ||
     std::is_same_v<typename V::value_type, bfloat16>);

}  // namespace tiled_detail

/// Optimized tiled GEMM: C += A * B, any layout mix, accumulation in Acc.
/// Parallelized over MC row blocks of C (disjoint output rows per
/// iteration, so the kernel is race-free by construction and sanitizes
/// cleanly under portacheck).
template <class Acc, class Space, class VA, class VB, class VC>
void gemm_tiled(const Space& space, const VA& A, const VB& B, VC& C,
                const TileConfig& cfg = {}) {
  using TC = typename VC::value_type;
  using namespace tiled;
  namespace td = tiled_detail;
  const std::size_t m = A.extent(0);
  const std::size_t k = A.extent(1);
  const std::size_t n = B.extent(1);
  PB_EXPECTS(B.extent(0) == k);
  PB_EXPECTS(C.extent(0) == m && C.extent(1) == n);
  PB_EXPECTS(cfg.mc > 0);
  if (m == 0 || n == 0 || k == 0) return;

  const td::MicroKernel<Acc> mk = td::pick_microkernel<Acc>();
  const std::size_t mc_blk = cfg.mc;
  const std::size_t nr_panel = mk.nr;
  const std::size_t n_panels = (n + nr_panel - 1) / nr_panel;
  const std::size_t m_blocks = (m + mc_blk - 1) / mc_blk;

  // Shared packed-B storage for one KC step: n_panels panels, each a
  // kc x nr_panel slab in row-major panel order (zero-padded to nr_panel).
  std::vector<Acc> Bp(n_panels * kKC * nr_panel);

  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);

    // Pack B serially: read-only inside the parallel region below.
    bool b_packed = false;
    if constexpr (td::batched_pack_ok_v<VB, Acc>) {
      if (B.stride(1) == 1) {
        // Batched path: convert each source row once (SIMD convert_n),
        // then scatter contiguous float segments into the panels.
        std::vector<Acc> rowbuf(n);
        for (std::size_t l = 0; l < kc; ++l) {
          convert_n(B.data() + (pc + l) * B.stride(0), rowbuf.data(), n);
          for (std::size_t jp = 0; jp < n_panels; ++jp) {
            Acc* row = Bp.data() + jp * kKC * nr_panel + l * nr_panel;
            const std::size_t j0 = jp * nr_panel;
            const std::size_t nr = std::min(nr_panel, n - j0);
            std::memcpy(row, rowbuf.data() + j0, nr * sizeof(Acc));
            for (std::size_t jj = nr; jj < nr_panel; ++jj) row[jj] = Acc{};
          }
        }
        b_packed = true;
      }
    }
    if (!b_packed) {
      for (std::size_t jp = 0; jp < n_panels; ++jp) {
        Acc* panel = Bp.data() + jp * kKC * nr_panel;
        const std::size_t j0 = jp * nr_panel;
        const std::size_t nr = std::min(nr_panel, n - j0);
        for (std::size_t l = 0; l < kc; ++l) {
          for (std::size_t jj = 0; jj < nr; ++jj) {
            panel[l * nr_panel + jj] = static_cast<Acc>(B(pc + l, j0 + jj));
          }
          for (std::size_t jj = nr; jj < nr_panel; ++jj) panel[l * nr_panel + jj] = Acc{};
        }
      }
    }

    simrt::parallel_for(space, simrt::RangePolicy(0, m_blocks), [&](std::size_t bi) {
      const std::size_t ic = bi * mc_blk;
      const std::size_t mc = std::min(mc_blk, m - ic);
      const std::size_t m_panels = (mc + kMR - 1) / kMR;

      // Thread-local packed A block: m_panels panels of kc x kMR.
      std::vector<Acc> Ap(m_panels * kc * kMR);
      bool a_packed = false;
      if constexpr (td::batched_pack_ok_v<VA, Acc>) {
        if (A.stride(1) == 1) {
          // Batched path: convert each A row's k-segment once, then
          // scatter down the MR-interleaved panel layout.
          std::vector<Acc> rowbuf(kc);
          for (std::size_t ip = 0; ip < m_panels; ++ip) {
            Acc* panel = Ap.data() + ip * kc * kMR;
            const std::size_t i0 = ic + ip * kMR;
            const std::size_t mr = std::min(kMR, m - i0);
            for (std::size_t ii = 0; ii < mr; ++ii) {
              convert_n(A.data() + (i0 + ii) * A.stride(0) + pc, rowbuf.data(), kc);
              for (std::size_t l = 0; l < kc; ++l) panel[l * kMR + ii] = rowbuf[l];
            }
            for (std::size_t ii = mr; ii < kMR; ++ii) {
              for (std::size_t l = 0; l < kc; ++l) panel[l * kMR + ii] = Acc{};
            }
          }
          a_packed = true;
        }
      }
      if (!a_packed) {
        for (std::size_t ip = 0; ip < m_panels; ++ip) {
          Acc* panel = Ap.data() + ip * kc * kMR;
          const std::size_t i0 = ic + ip * kMR;
          const std::size_t mr = std::min(kMR, m - i0);
          for (std::size_t l = 0; l < kc; ++l) {
            for (std::size_t ii = 0; ii < mr; ++ii) {
              panel[l * kMR + ii] = static_cast<Acc>(A(i0 + ii, pc + l));
            }
            for (std::size_t ii = mr; ii < kMR; ++ii) panel[l * kMR + ii] = Acc{};
          }
        }
      }

      for (std::size_t jp = 0; jp < n_panels; ++jp) {
        const Acc* bp = Bp.data() + jp * kKC * nr_panel;
        const std::size_t j0 = jp * nr_panel;
        const std::size_t nr = std::min(nr_panel, n - j0);
        for (std::size_t ip = 0; ip < m_panels; ++ip) {
          const Acc* ap = Ap.data() + ip * kc * kMR;
          const std::size_t i0 = ic + ip * kMR;
          const std::size_t mr = std::min(kMR, m - i0);

          // Branch-free MR x NR micro-kernel over the packed panels.
          Acc acc[kMR * kNRMax] = {};
          mk.fn(ap, bp, kc, acc);

          // Edge-aware writeback: only the valid mr x nr corner lands in C.
          for (std::size_t ii = 0; ii < mr; ++ii) {
            for (std::size_t jj = 0; jj < nr; ++jj) {
              C(i0 + ii, j0 + jj) = static_cast<TC>(
                  static_cast<Acc>(C(i0 + ii, j0 + jj)) + acc[ii * nr_panel + jj]);
            }
          }
        }
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Scratch-based serial variant + batched entry point (the serving layer's
// "one tiled-microkernel launch per size bucket").
//
// gemm_tiled above allocates its packing panels per call — fine for the
// one-shot paper protocol, fatal for a request engine that must stream
// millions of small GEMMs with zero steady-state allocation.  The serial
// variant takes caller scratch (a pooled arena slice) instead, runs the
// MC blocks in their natural order on one thread, and reuses the exact
// packing loops and micro-kernel of gemm_tiled, so its C is bit-identical
// to gemm_tiled over a SerialSpace (the determinism contract above makes
// that equivalence total, not incidental).
// ---------------------------------------------------------------------------

namespace tiled_detail {

/// Align `p` up inside a byte span; panels hold Acc so alignment is cheap
/// slack, not a correctness requirement for the SIMD loads (the
/// micro-kernels use unaligned loads, same as the vector-backed path).
inline std::byte* scratch_align(std::byte* p, std::size_t alignment) noexcept {
  const auto v = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t rem = v & (alignment - 1);
  return rem == 0 ? p : p + (alignment - rem);
}

}  // namespace tiled_detail

/// Scratch bytes gemm_tiled_serial_scratch needs for an m x n x k GEMM
/// accumulating in Acc (an upper bound valid for every micro-kernel tier).
template <class Acc>
[[nodiscard]] constexpr std::size_t gemm_tiled_scratch_bytes(std::size_t m, std::size_t n,
                                                             std::size_t k,
                                                             const TileConfig& cfg = {}) {
  using namespace tiled;
  (void)k;  // panels are bounded by the KC blocking, not total depth
  const std::size_t bp = (n + kNRMax) * kKC;                       // packed B
  const std::size_t ap = (std::min(m, cfg.mc) + kMR) * kKC;        // packed A
  const std::size_t rowbuf = std::max(n, kKC);                     // half convert staging
  return (bp + ap + rowbuf) * sizeof(Acc) + 3 * 64;                // + alignment slack
}

/// Single-thread gemm_tiled over caller-provided scratch: C += A * B with
/// zero allocation.  Bit-identical to gemm_tiled(SerialSpace, ...).
template <class Acc, class VA, class VB, class VC>
void gemm_tiled_serial_scratch(const VA& A, const VB& B, VC& C, std::span<std::byte> scratch,
                               const TileConfig& cfg = {}) {
  using TC = typename VC::value_type;
  using namespace tiled;
  namespace td = tiled_detail;
  const std::size_t m = A.extent(0);
  const std::size_t k = A.extent(1);
  const std::size_t n = B.extent(1);
  PB_EXPECTS(B.extent(0) == k);
  PB_EXPECTS(C.extent(0) == m && C.extent(1) == n);
  PB_EXPECTS(cfg.mc > 0);
  if (m == 0 || n == 0 || k == 0) return;
  PB_EXPECTS(scratch.size() >= gemm_tiled_scratch_bytes<Acc>(m, n, k, cfg));

  const td::MicroKernel<Acc> mk = td::pick_microkernel<Acc>();
  const std::size_t mc_blk = cfg.mc;
  const std::size_t nr_panel = mk.nr;
  const std::size_t n_panels = (n + nr_panel - 1) / nr_panel;
  const std::size_t m_blocks = (m + mc_blk - 1) / mc_blk;

  // Carve the three packing areas out of the scratch span.
  std::byte* cursor = td::scratch_align(scratch.data(), 64);
  Acc* const Bp = reinterpret_cast<Acc*>(cursor);
  cursor = td::scratch_align(cursor + n_panels * kKC * nr_panel * sizeof(Acc), 64);
  Acc* const Ap = reinterpret_cast<Acc*>(cursor);
  cursor = td::scratch_align(
      cursor + ((std::min(m, mc_blk) + kMR) / kMR) * kKC * kMR * sizeof(Acc), 64);
  Acc* const rowbuf = reinterpret_cast<Acc*>(cursor);

  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);

    bool b_packed = false;
    if constexpr (td::batched_pack_ok_v<VB, Acc>) {
      if (B.stride(1) == 1) {
        for (std::size_t l = 0; l < kc; ++l) {
          convert_n(B.data() + (pc + l) * B.stride(0), rowbuf, n);
          for (std::size_t jp = 0; jp < n_panels; ++jp) {
            Acc* row = Bp + jp * kKC * nr_panel + l * nr_panel;
            const std::size_t j0 = jp * nr_panel;
            const std::size_t nr = std::min(nr_panel, n - j0);
            std::memcpy(row, rowbuf + j0, nr * sizeof(Acc));
            for (std::size_t jj = nr; jj < nr_panel; ++jj) row[jj] = Acc{};
          }
        }
        b_packed = true;
      }
    }
    if (!b_packed) {
      for (std::size_t jp = 0; jp < n_panels; ++jp) {
        Acc* panel = Bp + jp * kKC * nr_panel;
        const std::size_t j0 = jp * nr_panel;
        const std::size_t nr = std::min(nr_panel, n - j0);
        for (std::size_t l = 0; l < kc; ++l) {
          for (std::size_t jj = 0; jj < nr; ++jj) {
            panel[l * nr_panel + jj] = static_cast<Acc>(B(pc + l, j0 + jj));
          }
          for (std::size_t jj = nr; jj < nr_panel; ++jj) panel[l * nr_panel + jj] = Acc{};
        }
      }
    }

    for (std::size_t bi = 0; bi < m_blocks; ++bi) {
      const std::size_t ic = bi * mc_blk;
      const std::size_t mc = std::min(mc_blk, m - ic);
      const std::size_t m_panels = (mc + kMR - 1) / kMR;

      bool a_packed = false;
      if constexpr (td::batched_pack_ok_v<VA, Acc>) {
        if (A.stride(1) == 1) {
          for (std::size_t ip = 0; ip < m_panels; ++ip) {
            Acc* panel = Ap + ip * kc * kMR;
            const std::size_t i0 = ic + ip * kMR;
            const std::size_t mr = std::min(kMR, m - i0);
            for (std::size_t ii = 0; ii < mr; ++ii) {
              convert_n(A.data() + (i0 + ii) * A.stride(0) + pc, rowbuf, kc);
              for (std::size_t l = 0; l < kc; ++l) panel[l * kMR + ii] = rowbuf[l];
            }
            for (std::size_t ii = mr; ii < kMR; ++ii) {
              for (std::size_t l = 0; l < kc; ++l) panel[l * kMR + ii] = Acc{};
            }
          }
          a_packed = true;
        }
      }
      if (!a_packed) {
        for (std::size_t ip = 0; ip < m_panels; ++ip) {
          Acc* panel = Ap + ip * kc * kMR;
          const std::size_t i0 = ic + ip * kMR;
          const std::size_t mr = std::min(kMR, m - i0);
          for (std::size_t l = 0; l < kc; ++l) {
            for (std::size_t ii = 0; ii < mr; ++ii) {
              panel[l * kMR + ii] = static_cast<Acc>(A(i0 + ii, pc + l));
            }
            for (std::size_t ii = mr; ii < kMR; ++ii) panel[l * kMR + ii] = Acc{};
          }
        }
      }

      for (std::size_t jp = 0; jp < n_panels; ++jp) {
        const Acc* bp = Bp + jp * kKC * nr_panel;
        const std::size_t j0 = jp * nr_panel;
        const std::size_t nr = std::min(nr_panel, n - j0);
        for (std::size_t ip = 0; ip < m_panels; ++ip) {
          const Acc* ap = Ap + ip * kc * kMR;
          const std::size_t i0 = ic + ip * kMR;
          const std::size_t mr = std::min(kMR, m - i0);

          Acc acc[kMR * kNRMax] = {};
          mk.fn(ap, bp, kc, acc);

          for (std::size_t ii = 0; ii < mr; ++ii) {
            for (std::size_t jj = 0; jj < nr; ++jj) {
              C(i0 + ii, j0 + jj) = static_cast<TC>(
                  static_cast<Acc>(C(i0 + ii, j0 + jj)) + acc[ii * nr_panel + jj]);
            }
          }
        }
      }
    }
  }
}

/// One square n x n GEMM of a batch: dense row-major raw buffers,
/// C += A * B accumulating in Acc.
template <class T, class Acc>
struct GemmBatchItem {
  const T* a = nullptr;
  const T* b = nullptr;
  Acc* c = nullptr;
  std::size_t n = 0;
};

/// Batched entry point: run every item as one engine launch (one item per
/// block, packing scratch from the pooled per-worker arenas — zero
/// steady-state allocation).  Under portacheck the batch executes as a
/// seed-permuted serial schedule; either way each item's C is
/// bit-identical to gemm_tiled(SerialSpace) on the same operands.
template <class T, class Acc>
void gemm_tiled_batched(gpusim::LaunchEngine& engine,
                        std::span<const GemmBatchItem<T, Acc>> items) {
  std::size_t total_threads = 0;
  for (const auto& item : items) total_threads += item.n * item.n;
  gpusim::run_batch(engine, items.size(), total_threads,
                    [&engine, items](std::size_t worker, std::size_t idx) {
                      const GemmBatchItem<T, Acc>& item = items[idx];
                      if (item.n == 0) return;
                      const std::size_t bytes =
                          gemm_tiled_scratch_bytes<Acc>(item.n, item.n, item.n);
                      auto scratch = gpusim::batch_scratch(engine, worker, bytes);
                      const simrt::RawView2<const T> A(item.a, item.n, item.n);
                      const simrt::RawView2<const T> B(item.b, item.n, item.n);
                      simrt::RawView2<Acc> C(item.c, item.n, item.n);
                      gemm_tiled_serial_scratch<Acc>(A, B, C, scratch);
                    });
}

}  // namespace portabench::gemm
