// Known-good fixture: schedule knobs resolved at runtime, computed, the
// zero "resolve later" sentinel, or an explicitly justified constant.
#include <cstddef>

namespace fixture {

std::size_t tuned_fork_cutoff();

inline void configure() {
  const std::size_t fork_cutoff = tuned_fork_cutoff();  // resolved, not pinned
  std::size_t batch_jobs = 0;                           // 0 = resolve at use
  const std::size_t grain = fork_cutoff / 2 + 1;        // computed
  const double tile_ratio = 0.5;                        // float: not a knob
  // portalint: tn-magic-tile-ok(calibrated default; named once here)
  const std::size_t tile_rows = 32;
  (void)batch_jobs;
  (void)grain;
  (void)tile_ratio;
  (void)tile_rows;
}

}  // namespace fixture
