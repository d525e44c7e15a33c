// Deterministic trace generation for the serving layer.
//
// TraceGen turns one seed into an unbounded stream of JobDescs — the
// mixed small-job load the bench and the stress tiers replay.  Every
// field of every job is a pure function of (config, id): the trace
// stream itself uses xoshiro256** seeded from the config, and each
// job's *data* seed is splitmix64(config.seed ^ id), so a job replayed
// in isolation (serve::run_serial) fills exactly the inputs the served
// run filled.  Same config → bit-for-bit the same trace, forever.
#pragma once

#include <array>
#include <cstdint>

#include "common/rng.hpp"
#include "job.hpp"

namespace portabench::serve {

struct TraceConfig {
  std::uint64_t seed = 1;
  std::uint32_t min_n = 8;    ///< inclusive
  std::uint32_t max_n = 64;   ///< inclusive
  // Mix weights (relative); a weight of 0 removes the kind entirely.
  std::uint32_t gemm_weight = 6;
  std::uint32_t spmv_weight = 3;
  std::uint32_t stencil_weight = 1;
  bool tiled_only = false;  ///< GEMM jobs pin Frontend::kTiled (the tiled-microkernel path)
};

class TraceGen {
 public:
  explicit TraceGen(const TraceConfig& config = {})
      : config_(config), rng_(config.seed) {}

  [[nodiscard]] JobDesc next() {
    JobDesc d;
    d.id = next_id_++;
    d.kind = pick_kind();
    d.precision = pick_precision(d.kind);
    d.frontend = pick_frontend(d.kind);
    d.n = pick_n();
    d.seed = SplitMix64(config_.seed ^ d.id).next();
    return d;
  }

  [[nodiscard]] const TraceConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] JobKind pick_kind() {
    const std::uint64_t total =
        config_.gemm_weight + config_.spmv_weight + config_.stencil_weight;
    if (total == 0) return JobKind::kGemm;
    const std::uint64_t roll = rng_() % total;
    if (roll < config_.gemm_weight) return JobKind::kGemm;
    if (roll < config_.gemm_weight + config_.spmv_weight) return JobKind::kSpmv;
    return JobKind::kStencil;
  }

  [[nodiscard]] Precision pick_precision(JobKind kind) {
    switch (kind) {
      case JobKind::kGemm: {
        constexpr std::array<Precision, 3> kAll{Precision::kDouble, Precision::kSingle,
                                                Precision::kHalfIn};
        return kAll[rng_() % kAll.size()];
      }
      case JobKind::kSpmv: {
        constexpr std::array<Precision, 2> kTwo{Precision::kDouble, Precision::kSingle};
        return kTwo[rng_() % kTwo.size()];
      }
      case JobKind::kStencil:
        return Precision::kDouble;
    }
    return Precision::kDouble;
  }

  [[nodiscard]] Frontend pick_frontend(JobKind kind) {
    switch (kind) {
      case JobKind::kGemm: {
        if (config_.tiled_only) return Frontend::kTiled;
        constexpr std::array<Frontend, 5> kAll{Frontend::kOpenMP, Frontend::kKokkos,
                                               Frontend::kJulia, Frontend::kNumba,
                                               Frontend::kTiled};
        return kAll[rng_() % kAll.size()];
      }
      case JobKind::kSpmv: {
        constexpr std::array<Frontend, 3> kRow{Frontend::kOpenMP, Frontend::kKokkos,
                                               Frontend::kNumba};
        return kRow[rng_() % kRow.size()];
      }
      case JobKind::kStencil: {
        constexpr std::array<Frontend, 3> kSweep{Frontend::kOpenMP, Frontend::kKokkos,
                                                 Frontend::kTiled};
        return kSweep[rng_() % kSweep.size()];
      }
    }
    return Frontend::kOpenMP;
  }

  [[nodiscard]] std::uint32_t pick_n() {
    const std::uint32_t span = config_.max_n - config_.min_n + 1;
    return config_.min_n + static_cast<std::uint32_t>(rng_() % span);
  }

  TraceConfig config_;
  Xoshiro256 rng_;
  std::uint64_t next_id_ = 0;
};

}  // namespace portabench::serve
