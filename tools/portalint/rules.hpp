// portalint rule registry.
//
// Four families (see docs/LINT.md):
//   lane-safety   ls-capture-write, ls-nonlane-store, ls-ptr-capture,
//                 fl-shared-write-escape, fl-unproved-bounds
//   concurrency   mo-explicit, mo-balance, raw-thread, fl-unpaired-ordering
//   determinism   det-rand, det-unordered, fl-det-taint
//   hygiene       hy-pragma-once, hy-using-ns, hy-include-cycle
//
// The fl-* rules and mo-balance are implemented by the portaflow passes
// (flow.hpp) over the per-file IR; everything else is token-level.
#pragma once

#include <string>
#include <vector>

#include "model.hpp"

namespace portalint {

struct RuleDesc {
  std::string id;
  std::string family;
  std::string summary;
};

/// Static descriptions of every rule (for --list-rules and docs tests).
[[nodiscard]] const std::vector<RuleDesc>& all_rules();

/// Path-scope predicates shared between the token rules and the flow
/// passes (documented in docs/LINT.md).  Tests are exempt from the
/// concurrency rules; fixture files opt back into everything.
[[nodiscard]] bool scope_in_tests(const FileUnit& u);
/// src/common/rng is the sanctioned home for randomness.
[[nodiscard]] bool scope_rng_exempt(const FileUnit& u);

/// Per-file token rules only (everything except mo-balance and
/// hy-include-cycle).  Cacheable: depends on nothing but the file.
[[nodiscard]] std::vector<Finding> run_file_rules(const FileUnit& u);

/// Whole-tree token rules: hy-include-cycle.  (mo-balance and
/// fl-unpaired-ordering come from the ordering pass in flow_lane.cpp.)
/// Multi-site rules honor suppressions on any participating line
/// themselves, since a single anchor line cannot represent them.
[[nodiscard]] std::vector<Finding> run_global_rules(const Project& project);

}  // namespace portalint
