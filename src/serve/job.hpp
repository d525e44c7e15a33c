// Job taxonomy of the serving layer.
//
// A job is one small kernel request — a GEMM, an SpMV, or a stencil
// sweep — at a given problem size, precision, and model frontend (the
// paper's programming-model axis).  The serving layer admits jobs
// through sharded bounded queues and runs each flushed batch as one
// engine launch, a block per job; docs/SERVE.md has the architecture.
//
// Admission is total: every malformed or unsupported request maps to a
// typed AdmitError — the engine never aborts on input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/precision.hpp"

namespace portabench::serve {

enum class JobKind : std::uint8_t { kGemm, kSpmv, kStencil };

/// Programming-model frontend the job's kernel idiom comes from.
/// kTiled is the optimized-C++ path: the tiled-microkernel GEMM and the
/// explicit-SIMD stencil sweep.
enum class Frontend : std::uint8_t { kOpenMP, kKokkos, kJulia, kNumba, kTiled };

/// One request.  `seed` fully determines the job's input data; `id` must
/// be unique per engine run (it selects the shard and keys the result).
struct JobDesc {
  std::uint64_t id = 0;
  JobKind kind = JobKind::kGemm;
  Frontend frontend = Frontend::kTiled;
  Precision precision = Precision::kDouble;
  std::uint32_t n = 0;  ///< problem size (matrix order / grid side)
  std::uint64_t seed = 0;

  friend bool operator==(const JobDesc&, const JobDesc&) = default;
};

/// Typed admission outcomes.  kNone means accepted; everything else is a
/// reject that left the engine untouched.
enum class AdmitError : std::uint8_t {
  kNone,
  kQueueFull,     ///< bounded-queue backpressure: shed this request
  kZeroSize,      ///< n == 0
  kTooLarge,      ///< n exceeds the engine's configured max_n
  kUnsupported,   ///< (kind, frontend, precision) outside the support matrix
  kShutdown,      ///< engine is draining/destructing
};

enum class JobStatus : std::uint8_t { kOk, kFailed };

/// One completed job, delivered through ServeConfig::on_complete.
struct JobResult {
  std::uint64_t id = 0;
  JobStatus status = JobStatus::kOk;
  double checksum = 0.0;  ///< index-order double sum of the job's output
};

/// The support matrix: which (kind, frontend, precision) triples the
/// serving layer executes.  GEMM covers every frontend and precision
/// (the paper's full Fig. 2 axis); SpMV keeps the CSR row-parallel
/// frontends at FP64/FP32 (the Julia CSC path privatizes y per thread —
/// allocation per call, excluded from the zero-alloc serving contract);
/// stencil is the FP64 5-point sweep in its serial, MDRange, and SIMD
/// idioms.
[[nodiscard]] constexpr bool supported(JobKind kind, Frontend frontend,
                                       Precision precision) noexcept {
  // Requests arrive as raw structs; bit patterns outside the enum ranges
  // are unsupported, not undefined (kind is covered by the switch below).
  if (static_cast<std::uint8_t>(frontend) > static_cast<std::uint8_t>(Frontend::kTiled)) {
    return false;
  }
  if (precision != Precision::kDouble && precision != Precision::kSingle &&
      precision != Precision::kHalfIn) {
    return false;
  }
  switch (kind) {
    case JobKind::kGemm:
      return true;
    case JobKind::kSpmv:
      return (frontend == Frontend::kOpenMP || frontend == Frontend::kKokkos ||
              frontend == Frontend::kNumba) &&
             (precision == Precision::kDouble || precision == Precision::kSingle);
    case JobKind::kStencil:
      return (frontend == Frontend::kOpenMP || frontend == Frontend::kKokkos ||
              frontend == Frontend::kTiled) &&
             precision == Precision::kDouble;
  }
  return false;
}

[[nodiscard]] constexpr std::string_view name(JobKind k) noexcept {
  switch (k) {
    case JobKind::kGemm: return "gemm";
    case JobKind::kSpmv: return "spmv";
    case JobKind::kStencil: return "stencil";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view name(Frontend f) noexcept {
  switch (f) {
    case Frontend::kOpenMP: return "openmp";
    case Frontend::kKokkos: return "kokkos";
    case Frontend::kJulia: return "julia";
    case Frontend::kNumba: return "numba";
    case Frontend::kTiled: return "tiled";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view name(AdmitError e) noexcept {
  switch (e) {
    case AdmitError::kNone: return "accepted";
    case AdmitError::kQueueFull: return "queue-full";
    case AdmitError::kZeroSize: return "zero-size";
    case AdmitError::kTooLarge: return "too-large";
    case AdmitError::kUnsupported: return "unsupported";
    case AdmitError::kShutdown: return "shutdown";
  }
  return "?";
}

}  // namespace portabench::serve
