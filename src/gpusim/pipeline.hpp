// Double-buffered H2D / compute / D2H pipeline driver.
//
// The paper's Section II calls out "the overlap of data transfers with
// computations" as one of the capabilities a programming model must
// expose.  This driver is that capability for the simulator: on every
// device of a topology, a panel loop over three streams (copy-in,
// compute, copy-out) with kPipelineSlots rotating staging buffers, wired
// together with Events so that
//
//   h2d[k]     waits  compute_done[k - slots]   (input slot free again)
//   compute[k] waits  in_ready[k]               (its input landed)
//   compute[k] waits  out_done[k - slots]       (its output slot drained)
//   d2h[k]     waits  compute_done[k]           (result ready)
//
// With two slots that is classic double buffering: panel k+1's H2D and
// panel k-1's D2H both overlap panel k's kernel.  The non-overlapped
// reference (`overlap = false`) enqueues the same three stages strictly
// in order on ONE stream per device — the serial H2D -> compute -> D2H
// sequence the overlap bench compares against.  A one-device topology
// is the single-device pipeline.
//
// Determinism: stage callbacks receive (stream, device, panel, slot) and
// are invoked in device-major, panel order on the caller; only *where*
// the enqueued ops execute differs between modes.  Under portacheck
// every Stream degrades to eager, so the whole pipeline collapses to the
// serial in-order walk the sanitizer's permuted schedules require —
// results are bitwise identical by construction because each panel's
// arithmetic never changes, only its overlap with neighbors.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "common/timer.hpp"
#include "stream.hpp"
#include "topology.hpp"

namespace portabench::gpusim {

/// Rotating staging slots per device (2 = double buffer).  Sharded
/// drivers allocate this many panel buffers per device.
inline constexpr std::size_t kPipelineSlots = 2;

struct PipelineStats {
  double wall_s = 0.0;     ///< measured host wall time, enqueue to drain
  double modeled_s = 0.0;  ///< modeled makespan (max over stream clocks)
  std::size_t panels = 0;
};

/// Run a per-device panel loop on every device of the topology
/// concurrently.  Stage callbacks are invoked as stage(Stream&, device,
/// panel, slot) and must enqueue their work on the given stream
/// (copy_async / launch / enqueue); `panels_per_device[d]` panels run on
/// device d.  All devices' queues are filled from the caller in
/// device-major program order (cheap — enqueue never blocks in async
/// mode) and progress concurrently on their own stream workers; the wall
/// clock spans enqueue-to-drain across the whole node.  Under portacheck
/// the streams are eager and the same loop IS the serial schedule,
/// giving the fixed shard combination order the bitwise-replay contract
/// requires.  `overlap = false` runs each device's stages strictly in
/// order on one stream.
template <class H2D, class Compute, class D2H>
PipelineStats run_sharded_pipeline(DeviceTopology& topo,
                                   const std::vector<std::size_t>& panels_per_device,
                                   bool overlap, H2D&& h2d, Compute&& compute, D2H&& d2h) {
  PB_EXPECTS(panels_per_device.size() == topo.devices());
  PipelineStats stats;

  struct DeviceStreams {
    std::unique_ptr<Stream> in, comp, out;
    std::vector<Event> in_ready, compute_done, out_done;
  };
  std::vector<DeviceStreams> ds(topo.devices());
  for (std::size_t d = 0; d < topo.devices(); ++d) {
    DeviceContext& ctx = topo.context(d);
    ds[d].in = std::make_unique<Stream>(ctx, StreamMode::kAsync);
    if (overlap) {
      ds[d].comp = std::make_unique<Stream>(ctx, StreamMode::kAsync);
      ds[d].out = std::make_unique<Stream>(ctx, StreamMode::kAsync);
      ds[d].in_ready.resize(panels_per_device[d]);
      ds[d].compute_done.resize(panels_per_device[d]);
      ds[d].out_done.resize(panels_per_device[d]);
    }
  }

  constexpr std::size_t slots = kPipelineSlots;
  Timer wall;
  for (std::size_t d = 0; d < topo.devices(); ++d) {
    DeviceStreams& s = ds[d];
    const std::size_t panels = panels_per_device[d];
    stats.panels += panels;
    if (!overlap) {
      for (std::size_t k = 0; k < panels; ++k) {
        const std::size_t slot = k % slots;
        h2d(*s.in, d, k, slot);
        compute(*s.in, d, k, slot);
        d2h(*s.in, d, k, slot);
      }
      continue;
    }
    for (std::size_t k = 0; k < panels; ++k) {
      const std::size_t slot = k % slots;
      if (k >= slots) s.in->wait(s.compute_done[k - slots]);
      h2d(*s.in, d, k, slot);
      s.in->record(s.in_ready[k]);

      s.comp->wait(s.in_ready[k]);
      if (k >= slots) s.comp->wait(s.out_done[k - slots]);
      compute(*s.comp, d, k, slot);
      s.comp->record(s.compute_done[k]);

      s.out->wait(s.compute_done[k]);
      d2h(*s.out, d, k, slot);
      s.out->record(s.out_done[k]);
    }
  }
  for (DeviceStreams& s : ds) {
    double modeled = s.in->synchronize();
    if (s.comp) modeled = std::max(modeled, s.comp->synchronize());
    if (s.out) modeled = std::max(modeled, s.out->synchronize());
    stats.modeled_s = std::max(stats.modeled_s, modeled);
  }
  stats.wall_s = wall.seconds();
  return stats;
}

}  // namespace portabench::gpusim
