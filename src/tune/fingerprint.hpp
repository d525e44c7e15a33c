// Machine fingerprint: identifies the host in bench artifacts.
//
// A measured number is only comparable with numbers from the same
// machine class (the paper's whole point: unroll-2 wins on A100,
// unroll-4 on MI250X).  bench/e2e therefore prints a fingerprint of
// (cpu model, core count, dispatched SIMD tier) and records its hash in
// every artifact, so results from different hosts can be told apart.
#pragma once

#include <cstdint>
#include <string>

namespace portabench::tune {

struct MachineFingerprint {
  std::string cpu_model;   ///< /proc/cpuinfo "model name" (or "unknown-cpu")
  std::size_t cores = 0;   ///< hardware_concurrency
  std::string simd_tier;   ///< simd_tier_name(simd_dispatch_tier())
};

/// Fingerprint of the machine this process runs on (cached per process;
/// the SIMD tier honors PORTABENCH_SIMD_TIER clamp-down, so a clamped
/// run is recorded as the machine class it emulates).
[[nodiscard]] const MachineFingerprint& local_fingerprint();

/// Human-readable key: "model|cores|tier".
[[nodiscard]] std::string fingerprint_key(const MachineFingerprint& fp);

/// Stable FNV-1a hash of fingerprint_key (what artifacts record).
[[nodiscard]] std::uint64_t fingerprint_hash(const MachineFingerprint& fp);

/// Parse helper exposed for tests: first "model name : ..." value in
/// cpuinfo-formatted text, or "unknown-cpu" when absent.
[[nodiscard]] std::string cpu_model_from_cpuinfo(const std::string& cpuinfo_text);

}  // namespace portabench::tune
