// Optimized tiled/packed CPU GEMM: the measured performance ceiling.
//
// The paper deliberately studies naive hand-rolled kernels as a lower
// bound (Section I).  This kernel is the other end of that bracket: a
// BLIS-style blocked C += A*B with packed panels and a register-blocked
// micro-kernel, the "optimized C++" frontend the naive Fig. 2 kernels are
// normalized against in the Eq.-2 efficiency machinery (how much of what
// a tuned native implementation extracts does each model's idiom reach?).
//
// Three pieces (tiled_detail), after BLIS's split of the loop nest:
//   pack_b        one KC x n slab of B into NR-wide column panels
//   pack_a        one MC x KC block of A into MR-tall row panels
//   macro_kernel  the MR x NR micro-kernel on every (B panel, A panel)
//                 pair, each tile's valid corner added into C
// and two drivers over them, both looping
//   for pc over k in KC steps:  pack_b (once, shared by every row block)
//     for each MC row block:    pack_a, then macro_kernel
//   gemm_tiled                 row blocks under parallel_for; B panels
//                              allocated per call, A panels per block
//   gemm_tiled_serial_scratch  row blocks in order on the calling thread,
//                              panels carved from caller scratch
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
// Determinism contract: every tier and both drivers produce bit-identical
// C.  Each C(i,j) accumulates a(i,l)*b(l,j) over l strictly ascending
// into one accumulator as two rounded IEEE ops (mul then add — fma() here
// is the two-op form and -ffp-contract=off, which every consumer inherits
// from portabench::common, keeps hardware FMA out), and that per-element
// order is invariant under lane width, unroll factor, panel geometry and
// row blocking; zero-padded lanes feed only discarded accumulators.  The
// sanitized test tier pins scalar vs every available SIMD tier.
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

/// Checks the C += A*B shapes and the row blocking; false when the
/// product is empty.
template <class VA, class VB, class VC>
bool gemm_shapes_ok(const VA& A, const VB& B, const VC& C, const TileConfig& cfg) {
  PB_EXPECTS(B.extent(0) == A.extent(1));
  PB_EXPECTS(C.extent(0) == A.extent(0) && C.extent(1) == B.extent(1));
  PB_EXPECTS(cfg.mc > 0);
  return A.extent(0) != 0 && A.extent(1) != 0 && B.extent(1) != 0;
}

/// Pack rows [pc, pc+kc) of B into ceil(n/nr_panel) column panels, each
/// kc x nr_panel row-major and zero-padded past column n.  `rowbuf` (n
/// elements) stages the batched conversion; the per-element path never
/// touches it.
template <class Acc, class VB>
void pack_b(const VB& B, std::size_t pc, std::size_t kc, std::size_t nr_panel, Acc* Bp,
            Acc* rowbuf) {
  const std::size_t n = B.extent(1);
  const std::size_t n_panels = (n + nr_panel - 1) / nr_panel;
  if constexpr (batched_pack_ok_v<VB, Acc>) {
    if (B.stride(1) == 1) {
      // Convert each source row once (SIMD convert_n), then scatter
      // contiguous segments into the panels.
      for (std::size_t l = 0; l < kc; ++l) {
        convert_n(B.data() + (pc + l) * B.stride(0), rowbuf, n);
        for (std::size_t jp = 0; jp < n_panels; ++jp) {
          Acc* row = Bp + (jp * kc + l) * nr_panel;
          const std::size_t j0 = jp * nr_panel;
          const std::size_t nr = std::min(nr_panel, n - j0);
          std::memcpy(row, rowbuf + j0, nr * sizeof(Acc));
          for (std::size_t jj = nr; jj < nr_panel; ++jj) row[jj] = Acc{};
        }
      }
      return;
    }
  }
  for (std::size_t jp = 0; jp < n_panels; ++jp) {
    Acc* panel = Bp + jp * kc * nr_panel;
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

/// Pack rows [ic, ic+mc) x columns [pc, pc+kc) of A into ceil(mc/kMR)
/// row panels, each kc x kMR with its kMR rows interleaved and
/// zero-padded past row ic+mc.  `rowbuf` (kc elements) stages the
/// batched conversion.
template <class Acc, class VA>
void pack_a(const VA& A, std::size_t ic, std::size_t mc, std::size_t pc, std::size_t kc,
            Acc* Ap, Acc* rowbuf) {
  using tiled::kMR;
  const std::size_t m_panels = (mc + kMR - 1) / kMR;
  if constexpr (batched_pack_ok_v<VA, Acc>) {
    if (A.stride(1) == 1) {
      // Convert each row's k-segment once, then scatter it down the
      // MR-interleaved panel layout.
      for (std::size_t ip = 0; ip < m_panels; ++ip) {
        Acc* panel = Ap + ip * kc * kMR;
        const std::size_t i0 = ic + ip * kMR;
        const std::size_t mr = std::min(kMR, ic + mc - i0);
        for (std::size_t ii = 0; ii < mr; ++ii) {
          convert_n(A.data() + (i0 + ii) * A.stride(0) + pc, rowbuf, kc);
          for (std::size_t l = 0; l < kc; ++l) panel[l * kMR + ii] = rowbuf[l];
        }
        for (std::size_t ii = mr; ii < kMR; ++ii) {
          for (std::size_t l = 0; l < kc; ++l) panel[l * kMR + ii] = Acc{};
        }
      }
      return;
    }
  }
  for (std::size_t ip = 0; ip < m_panels; ++ip) {
    Acc* panel = Ap + ip * kc * kMR;
    const std::size_t i0 = ic + ip * kMR;
    const std::size_t mr = std::min(kMR, ic + mc - i0);
    for (std::size_t l = 0; l < kc; ++l) {
      for (std::size_t ii = 0; ii < mr; ++ii) {
        panel[l * kMR + ii] = static_cast<Acc>(A(i0 + ii, pc + l));
      }
      for (std::size_t ii = mr; ii < kMR; ++ii) panel[l * kMR + ii] = Acc{};
    }
  }
}

/// C[ic:ic+mc, :] += the packed A block times the packed B slab of one KC
/// step: the branch-free micro-kernel on every (B panel, A panel) pair,
/// then an edge-aware writeback that adds only the tile's valid mr x nr
/// corner into C.
template <class Acc, class VC>
void macro_kernel(MicroKernel<Acc> mk, const Acc* Ap, const Acc* Bp, std::size_t ic,
                  std::size_t mc, std::size_t kc, VC& C) {
  using TC = typename VC::value_type;
  using tiled::kMR;
  const std::size_t n = C.extent(1);
  const std::size_t n_panels = (n + mk.nr - 1) / mk.nr;
  const std::size_t m_panels = (mc + kMR - 1) / kMR;
  for (std::size_t jp = 0; jp < n_panels; ++jp) {
    const Acc* bp = Bp + jp * kc * mk.nr;
    const std::size_t j0 = jp * mk.nr;
    const std::size_t nr = std::min(mk.nr, n - j0);
    for (std::size_t ip = 0; ip < m_panels; ++ip) {
      const std::size_t i0 = ic + ip * kMR;
      const std::size_t mr = std::min(kMR, ic + mc - i0);
      Acc acc[kMR * tiled::kNRMax] = {};
      mk.fn(Ap + ip * kc * kMR, bp, kc, acc);
      for (std::size_t ii = 0; ii < mr; ++ii) {
        for (std::size_t jj = 0; jj < nr; ++jj) {
          C(i0 + ii, j0 + jj) =
              static_cast<TC>(static_cast<Acc>(C(i0 + ii, j0 + jj)) + acc[ii * mk.nr + jj]);
        }
      }
    }
  }
}

/// gemm_tiled over an explicit micro-kernel (micro_simd runs it at the
/// scalar tier as its baseline).  B is packed once per KC step and shared
/// read-only by every row block; each row block packs its own A.
template <class Acc, class Space, class VA, class VB, class VC>
void gemm_tiled_with(const Space& space, MicroKernel<Acc> mk, const VA& A, const VB& B, VC& C,
                     const TileConfig& cfg = {}) {
  using namespace tiled;
  if (!gemm_shapes_ok(A, B, C, cfg)) return;
  const std::size_t m = A.extent(0);
  const std::size_t k = A.extent(1);
  const std::size_t n = B.extent(1);
  const std::size_t m_blocks = (m + cfg.mc - 1) / cfg.mc;

  // One allocation per call for the packed B slab and the row buffer its
  // batched conversion stages through.
  const std::size_t bp_size = (n + mk.nr - 1) / mk.nr * mk.nr * std::min(k, kKC);
  std::vector<Acc> Bp(bp_size + (batched_pack_ok_v<VB, Acc> ? n : 0));

  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    pack_b(B, pc, kc, mk.nr, Bp.data(), Bp.data() + bp_size);
    simrt::parallel_for(space, simrt::RangePolicy(0, m_blocks), [&](std::size_t bi) {
      const std::size_t ic = bi * cfg.mc;
      const std::size_t mc = std::min(cfg.mc, m - ic);
      // Block-local packed A and its conversion row buffer.
      const std::size_t ap_size = (mc + kMR - 1) / kMR * kMR * kc;
      std::vector<Acc> Ap(ap_size + (batched_pack_ok_v<VA, Acc> ? kc : 0));
      pack_a(A, ic, mc, pc, kc, Ap.data(), Ap.data() + ap_size);
      macro_kernel(mk, Ap.data(), Bp.data(), ic, mc, kc, C);
    });
  }
}

/// Align `p` up inside a byte span; panels hold Acc so alignment is cheap
/// slack, not a correctness requirement for the SIMD loads (the
/// micro-kernels use unaligned loads, same as the vector-backed path).
inline std::byte* scratch_align(std::byte* p, std::size_t alignment) noexcept {
  const auto v = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t rem = v & (alignment - 1);
  return rem == 0 ? p : p + (alignment - rem);
}

}  // namespace tiled_detail

/// Optimized tiled GEMM: C += A * B, any layout mix, accumulation in Acc.
/// Parallelized over MC row blocks of C (disjoint output rows per
/// iteration, so the kernel is race-free by construction and sanitizes
/// cleanly under portacheck).
template <class Acc, class Space, class VA, class VB, class VC>
void gemm_tiled(const Space& space, const VA& A, const VB& B, VC& C,
                const TileConfig& cfg = {}) {
  tiled_detail::gemm_tiled_with(space, tiled_detail::pick_microkernel<Acc>(), A, B, C, cfg);
}

// ---------------------------------------------------------------------------
// Scratch-based serial GEMM (each served tiled GEMM job and each
// multigpu::gemm_sharded row block runs one on its own pooled scratch).
//
// gemm_tiled above allocates its packing panels per call — fine for the
// one-shot paper protocol, fatal for a request engine that must stream
// millions of small GEMMs with zero steady-state allocation.  The serial
// driver takes caller scratch (a pooled arena slice) instead and runs the
// same pieces over the MC blocks in their natural order on one thread,
// so its C is bit-identical to gemm_tiled over any space.
// ---------------------------------------------------------------------------

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
  using namespace tiled;
  namespace td = tiled_detail;
  if (!td::gemm_shapes_ok(A, B, C, cfg)) return;
  const std::size_t m = A.extent(0);
  const std::size_t k = A.extent(1);
  const std::size_t n = B.extent(1);
  PB_EXPECTS(scratch.size() >= gemm_tiled_scratch_bytes<Acc>(m, n, k, cfg));

  // Carve the packed B slab, the packed A block and the conversion row
  // buffer out of the scratch span.
  const td::MicroKernel<Acc> mk = td::pick_microkernel<Acc>();
  const std::size_t bp_size = (n + mk.nr - 1) / mk.nr * mk.nr * kKC;
  const std::size_t ap_size = (std::min(m, cfg.mc) + kMR - 1) / kMR * kMR * kKC;
  std::byte* cursor = td::scratch_align(scratch.data(), 64);
  Acc* const Bp = reinterpret_cast<Acc*>(cursor);
  cursor = td::scratch_align(cursor + bp_size * sizeof(Acc), 64);
  Acc* const Ap = reinterpret_cast<Acc*>(cursor);
  cursor = td::scratch_align(cursor + ap_size * sizeof(Acc), 64);
  Acc* const rowbuf = reinterpret_cast<Acc*>(cursor);

  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    td::pack_b(B, pc, kc, mk.nr, Bp, rowbuf);
    for (std::size_t ic = 0; ic < m; ic += cfg.mc) {
      const std::size_t mc = std::min(cfg.mc, m - ic);
      td::pack_a(A, ic, mc, pc, kc, Ap, rowbuf);
      td::macro_kernel(mk, Ap, Bp, ic, mc, kc, C);
    }
  }
}

}  // namespace portabench::gemm
