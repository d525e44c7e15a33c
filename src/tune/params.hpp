// Tuning-parameter registry: the typed descriptors every other tuning
// piece (search, cache, CLI, benches) agrees on.
//
// The paper's A100-vs-MI250X result (unroll-2 vs unroll-4 winning on
// different GPUs, Godoy et al. Section IV) is the motivating fact: the
// best configuration is machine-dependent, so the schedule knobs a run
// reads — the tiled-GEMM row block and SIMD tier, and the serve batch
// size — are described here as searchable spaces and resolved per
// machine by the autotuner (docs/TUNING.md).
//
// Determinism contract: a parameter is *frozen* when varying it would
// change floating-point combination order (e.g. the GEMM KC blocking).
// Frozen parameters are pinned to their default by the search — they are
// listed so the descriptor is honest about the full knob surface, not so
// they can move.  Everything searchable is schedule-only: results stay
// bitwise-identical across every candidate.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace portabench::tune {

/// One tunable parameter: an explicit, ordered candidate list (every
/// space here is small and discrete; ranges/steps are expanded to
/// choices at registry construction so the search is uniform).
struct ParamSpec {
  std::string name;
  std::vector<long> choices;  ///< ascending candidate values
  long def = 0;               ///< default; always a member of choices
  bool frozen = false;        ///< order-affecting: search pins to def
  std::string note;           ///< why the range / why frozen
};

/// A named search space (one workload's knob set).
struct SpaceDesc {
  std::string name;               ///< e.g. "gemm-tile"
  std::string what;               ///< one-line description
  std::vector<ParamSpec> params;
};

/// A concrete assignment of every parameter in a space.
using Config = std::map<std::string, long>;

/// The space's default configuration (every param at its default).
[[nodiscard]] Config default_config(const SpaceDesc& space);

/// Number of searchable combinations (frozen params count as 1).
[[nodiscard]] std::size_t combinations(const SpaceDesc& space);

/// True when `config` assigns every param of `space` one of its choices.
[[nodiscard]] bool config_valid(const SpaceDesc& space, const Config& config);

/// Value of `name` in `config`, or the space default when absent.
[[nodiscard]] long config_value(const SpaceDesc& space, const Config& config,
                                std::string_view name);

/// The tunable spaces, `gemm-tile` and `serve-batch`.  Built once per
/// process; the gemm-tile tier candidates are limited to what the host
/// can actually dispatch, so a cached winner is always runnable locally
/// (cross-machine staleness is handled by the fingerprint, cache.hpp).
[[nodiscard]] const std::vector<SpaceDesc>& registry();

/// Space lookup by name; nullptr when unknown.
[[nodiscard]] const SpaceDesc* find_space(std::string_view name);

}  // namespace portabench::tune
