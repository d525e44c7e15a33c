// Known-bad fixture: schedule knobs frozen into source as integer
// literals — each belongs in a tunables module.
#include <cstddef>

namespace fixture {

constexpr std::size_t kMC = 128;  // portalint-expect: tn-magic-tile

struct Launch {
  std::size_t fork_cutoff = 4096;       // portalint-expect: tn-magic-tile
  std::size_t chunks_per_worker = 8;    // portalint-expect: tn-magic-tile
};

inline void configure() {
  std::size_t tile_rows{64};  // portalint-expect: tn-magic-tile
  Launch l;
  l.fork_cutoff = 1024;  // portalint-expect: tn-magic-tile
  int unroll = 4;        // portalint-expect: tn-magic-tile
  (void)tile_rows;
  (void)l;
  (void)unroll;
}

}  // namespace fixture
