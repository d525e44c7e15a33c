// Input-fill protocol and the serial oracle.
//
// The serving layer's correctness contract is bitwise: every job
// streamed through ServeEngine must produce exactly the checksum of the
// same job run one-at-a-time through the existing frontend kernels.
// Two things make that checkable:
//
//   1. The fill helpers here are the *single* definition of each job
//      kind's input data as a function of (seed, n) — the engine fills
//      arena slices and the oracle fills owning views through the same
//      code, so any divergence is in the kernels, never the inputs.
//   2. run_serial() executes one job with the plain, pre-existing
//      frontend entry points (gemm_*_style, gemm_tiled,
//      spmv_csr_row_parallel, sweep_serial/mdrange/simd) over a
//      SerialSpace — no serving-layer code in the loop.
//
// The GEMM protocol matches models/cpu_runners.cpp: Xoshiro256(seed),
// A filled before B in storage order, and the Numba FP16 quirk (numpy
// cannot generate random Float16, so matrices of ones).  SpMV mirrors
// spmv::banded_csr's exact rng sequence; the x vector comes from a
// split-off stream so it is independent of the band values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gemm/kernels_cpu.hpp"
#include "gemm/kernels_tiled.hpp"
#include "job.hpp"
#include "simrt/parallel.hpp"
#include "spmv/kernels.hpp"
#include "stencil/kernels.hpp"

namespace portabench::serve {

/// Band half-width of every serving-layer SpMV job (the PDE-stencil
/// shape of spmv::banded_csr); nnz per row is at most 2*hb + 1.
inline constexpr std::size_t kSpmvHalfBandwidth = 2;
inline constexpr std::size_t kSpmvMaxNnzPerRow = 2 * kSpmvHalfBandwidth + 1;

/// GEMM inputs for a job: A then B from Xoshiro256(seed) in storage
/// order — the run_cpu_gemm protocol — with the Numba FP16 ones quirk.
template <class T>
void fill_gemm_inputs(Frontend frontend, Precision precision, std::uint64_t seed,
                      std::span<T> a, std::span<T> b) {
  if (frontend == Frontend::kNumba && precision == Precision::kHalfIn) {
    fill_constant(a, T(1.0f));
    fill_constant(b, T(1.0f));
    return;
  }
  Xoshiro256 rng(seed);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
}

/// SpMV inputs for a job: the banded CSR structure and values in exactly
/// spmv::banded_csr(n, kSpmvHalfBandwidth, seed)'s rng order, written
/// into caller storage; x from a split-off stream.  Returns nnz.
template <class T>
std::size_t fill_spmv_inputs(std::uint64_t seed, std::size_t n, std::size_t* row_ptr,
                             std::size_t* col_idx, T* values, std::span<T> x) {
  Xoshiro256 rng(seed);
  std::size_t nnz = 0;
  row_ptr[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= kSpmvHalfBandwidth ? i - kSpmvHalfBandwidth : 0;
    const std::size_t hi = std::min(i + kSpmvHalfBandwidth, n - 1);
    for (std::size_t j = lo; j <= hi; ++j) {
      col_idx[nnz] = j;
      values[nnz] = static_cast<T>(rng.uniform());
      ++nnz;
    }
    row_ptr[i + 1] = nnz;
  }
  Xoshiro256 xrng(SplitMix64(seed).next());
  fill_uniform(x, xrng);
  return nnz;
}

/// Stencil input grid for a job (the output grid starts all-zero in both
/// the served and serial paths, so the untouched boundary matches too).
inline void fill_stencil_input(std::uint64_t seed, std::span<double> in) {
  Xoshiro256 rng(seed);
  fill_uniform(in, rng);
}

/// Deterministic output checksum: i-major double sum over any 2-D view
/// (the gemm::checksum convention, layout-independent iteration order).
template <class V>
[[nodiscard]] double view_checksum(const V& v) {
  double sum = 0.0;
  for (std::size_t i = 0; i < v.extent(0); ++i) {
    for (std::size_t j = 0; j < v.extent(1); ++j) sum += static_cast<double>(v(i, j));
  }
  return sum;
}

template <class T>
[[nodiscard]] double span_checksum(std::span<const T> v) {
  double sum = 0.0;
  for (const T& x : v) sum += static_cast<double>(x);
  return sum;
}

namespace serial_detail {

template <class T, class Acc, class Layout>
double gemm_serial_checksum(const JobDesc& d) {
  const std::size_t n = d.n;
  simrt::View2<T, Layout> A(n, n);
  simrt::View2<T, Layout> B(n, n);
  simrt::View2<Acc, Layout> C(n, n);
  fill_gemm_inputs<T>(d.frontend, d.precision, d.seed, std::span<T>(A.data(), n * n),
                      std::span<T>(B.data(), n * n));
  const simrt::SerialSpace space;
  switch (d.frontend) {
    case Frontend::kOpenMP:
      if constexpr (std::is_same_v<Layout, simrt::LayoutRight>) {
        gemm::gemm_openmp_style<Acc>(space, A, B, C);
      }
      break;
    case Frontend::kKokkos:
      gemm::gemm_kokkos_style<Acc>(space, A, B, C);
      break;
    case Frontend::kJulia:
      if constexpr (std::is_same_v<Layout, simrt::LayoutLeft>) {
        gemm::gemm_julia_style<Acc>(space, A, B, C);
      }
      break;
    case Frontend::kNumba:
      if constexpr (std::is_same_v<Layout, simrt::LayoutRight>) {
        gemm::gemm_numba_style<Acc>(space, A, B, C);
      }
      break;
    case Frontend::kTiled:
      gemm::gemm_tiled<Acc>(space, A, B, C);
      break;
  }
  return view_checksum(C);
}

template <class T>
double spmv_serial_checksum(const JobDesc& d) {
  const std::size_t n = d.n;
  spmv::CsrMatrix<T> A;
  A.rows = n;
  A.cols = n;
  A.row_ptr.resize(n + 1);
  A.col_idx.resize(n * kSpmvMaxNnzPerRow);
  A.values.resize(n * kSpmvMaxNnzPerRow);
  std::vector<T> x(n);
  std::vector<T> y(n);
  const std::size_t nnz = fill_spmv_inputs<T>(d.seed, n, A.row_ptr.data(),
                                              A.col_idx.data(), A.values.data(),
                                              std::span<T>(x));
  A.col_idx.resize(nnz);
  A.values.resize(nnz);
  spmv::spmv_csr_row_parallel<T>(simrt::SerialSpace{}, A, std::span<const T>(x),
                                 std::span<T>(y));
  return span_checksum(std::span<const T>(y));
}

inline double stencil_serial_checksum(const JobDesc& d) {
  const std::size_t n = d.n;
  if (n < 3) return 0.0;  // no interior: out stays all-zero in every frontend
  simrt::View2<double, simrt::LayoutRight> in(n, n);
  simrt::View2<double, simrt::LayoutRight> out(n, n);
  fill_stencil_input(d.seed, std::span<double>(in.data(), n * n));
  const simrt::SerialSpace space;
  switch (d.frontend) {
    case Frontend::kOpenMP:
      stencil::sweep_serial(in, out);
      break;
    case Frontend::kKokkos:
      stencil::sweep_mdrange(space, in, out);
      break;
    default:
      stencil::sweep_simd(space, in, out);
      break;
  }
  return span_checksum(std::span<const double>(out.data(), n * n));
}

}  // namespace serial_detail

/// Run one job serially through the pre-existing frontend kernels and
/// return its result — the oracle the served checksums must match bit
/// for bit, and the baseline the throughput bench measures against.
/// Requires supported(kind, frontend, precision) and n > 0.
[[nodiscard]] inline JobResult run_serial(const JobDesc& d) {
  JobResult r;
  r.id = d.id;
  switch (d.kind) {
    case JobKind::kGemm:
      switch (d.precision) {
        case Precision::kDouble:
          r.checksum = d.frontend == Frontend::kJulia
                           ? serial_detail::gemm_serial_checksum<double, double,
                                                                 simrt::LayoutLeft>(d)
                           : serial_detail::gemm_serial_checksum<double, double,
                                                                 simrt::LayoutRight>(d);
          break;
        case Precision::kSingle:
          r.checksum = d.frontend == Frontend::kJulia
                           ? serial_detail::gemm_serial_checksum<float, float,
                                                                 simrt::LayoutLeft>(d)
                           : serial_detail::gemm_serial_checksum<float, float,
                                                                 simrt::LayoutRight>(d);
          break;
        case Precision::kHalfIn:
          r.checksum = d.frontend == Frontend::kJulia
                           ? serial_detail::gemm_serial_checksum<half, float,
                                                                 simrt::LayoutLeft>(d)
                           : serial_detail::gemm_serial_checksum<half, float,
                                                                 simrt::LayoutRight>(d);
          break;
      }
      break;
    case JobKind::kSpmv:
      r.checksum = d.precision == Precision::kSingle
                       ? serial_detail::spmv_serial_checksum<float>(d)
                       : serial_detail::spmv_serial_checksum<double>(d);
      break;
    case JobKind::kStencil:
      r.checksum = serial_detail::stencil_serial_checksum(d);
      break;
  }
  return r;
}

}  // namespace portabench::serve
