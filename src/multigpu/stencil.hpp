// Multi-device stencil: deep-halo slabs, one launch and one halo
// exchange per epoch of k sweeps.
//
// The grid's rows are cut into one contiguous slab per device.  A device
// computes when it owns an interior row, and two adjacent computing
// devices exchange halos.  Sweeps run in epochs of k, where k is the
// smallest number of rows any computing device owns, capped at the
// iteration count.  k follows from the inputs, so it is not an option.
//
// Each slab stores its owned rows plus k halo rows per exchanging
// neighbor; toward a neighbor that does not compute it stores the one
// adjacent row, a global boundary row.  In an epoch of s <= k sweeps a
// device enqueues one compute op, counted as one launch.  Sweep j of the
// epoch covers the owned interior rows plus s-1-j rows into each
// exchanged halo, so the band loses one row per side per sweep: every
// row that sweep j reads was written by sweep j-1 or, at j = 0, by the
// last exchange.  Each point is still the per-row SIMD kernel of
// stencil::sweep_simd on the same inputs, so results stay bit-identical
// to stencil_iterated_oracle.
//
// Between epochs each device's transfer stream copies its k edge rows
// into each exchanging neighbor's halo with one peer_copy_async; no
// exchange follows the last epoch.  Events order the devices:
//
//   copy(d -> n) waits compute_done[d], so the rows it sends are final,
//     and compute_done[n], since n's widened sweeps write its halo rows;
//   compute[d] of the next epoch waits every copy into d's halos, and
//     d's own outgoing copies, whose rows its second sweep overwrites.
//
// Choosing k.  An epoch of k sweeps adds k(k-1)/2 redundant row sweeps
// per exchanged side and saves k-1 exchanges, each a launch, a chain of
// event handoffs and a throttled peer copy.  On 32-row slabs of 64
// columns a row sweep takes tens of nanoseconds and an exchange tens of
// microseconds, and each step of k from 1 to 32 lowered the call's
// latency.  A smaller k pays only once the (k-1)/2 rows a sweep adds per
// side, on average, cost more than the per-sweep share of an exchange:
// slabs of long rows on devices with cheap exchanges.  No caller has such
// slabs, so k is not bounded below the slab height.
//
// Boundary semantics match the host oracle: both ping-pong buffers start
// as copies of the initial grid, sweeps write interior points only, so
// global boundary rows/columns keep their initial values through every
// iteration.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "gpusim/batch.hpp"
#include "gpusim/copy.hpp"
#include "gpusim/pipeline.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/topology.hpp"
#include "stencil/kernels.hpp"

namespace portabench::multigpu {

struct StencilShardOptions {
  std::size_t iterations = 1;
};

/// Host oracle: `iterations` Jacobi sweeps over two full-grid buffers
/// initialized from `grid` (rows x cols, row-major); returns the final
/// grid.  Boundary cells keep their initial values.
inline std::vector<double> stencil_iterated_oracle(std::span<const double> grid,
                                                   std::size_t rows, std::size_t cols,
                                                   std::size_t iterations) {
  PB_EXPECTS(grid.size() == rows * cols);
  std::vector<double> ping(grid.begin(), grid.end());
  std::vector<double> pong(grid.begin(), grid.end());
  for (std::size_t t = 0; t < iterations; ++t) {
    const simrt::RawView2<const double> in(ping.data(), rows, cols);
    simrt::RawView2<double> out(pong.data(), rows, cols);
    stencil::sweep_serial(in, out);
    std::swap(ping, pong);
  }
  return ping;
}

/// `iterations` sweeps of the 5-point stencil over `grid` (rows x cols,
/// row-major host storage, updated in place), slab-sharded across every
/// device of `topo` with deep-halo exchange between neighbors.  Returns
/// wall/modeled timings shaped like the pipeline drivers'.
inline gpusim::PipelineStats stencil_sharded(gpusim::DeviceTopology& topo,
                                             std::span<double> grid, std::size_t rows,
                                             std::size_t cols,
                                             const StencilShardOptions& opt = {}) {
  PB_EXPECTS(grid.size() == rows * cols);
  gpusim::PipelineStats stats;
  if (rows < 3 || cols < 3 || opt.iterations == 0) {
    stats.panels = 0;
    return stats;
  }

  const std::size_t devices = topo.devices();
  // Contiguous row slabs, near-even (leading devices take the remainder).
  std::vector<std::size_t> r0(devices + 1, 0);
  for (std::size_t d = 0; d < devices; ++d) {
    r0[d + 1] = r0[d] + rows / devices + (d < rows % devices ? 1 : 0);
  }
  // The computing devices [first, last) are contiguous: a device before
  // them can only hold row 0 alone, and one after them row rows-1 alone
  // or no row.  At least one computes (rows >= 3), and each owns a row,
  // so k, the epoch length and halo depth, is at least 1.
  std::size_t first = devices, last = 0;
  std::size_t k = opt.iterations;
  for (std::size_t d = 0; d < devices; ++d) {
    if (std::max<std::size_t>(r0[d], 1) < std::min(r0[d + 1], rows - 1)) {
      first = std::min(first, d);
      last = d + 1;
      k = std::min(k, r0[d + 1] - r0[d]);
    }
  }

  struct Slab {
    std::size_t lo = 0, hi = 0;        // global rows stored: [lo, hi)
    std::size_t gstart = 0, gend = 0;  // global interior rows owned
    bool up = false, down = false;     // exchanges halos with device d-1 / d+1
    std::size_t cols = 0;
    gpusim::DeviceBuffer<double> buf[2];
    std::unique_ptr<gpusim::Stream> comp, xfer;
    gpusim::LaunchEngine* engine = nullptr;
    gpusim::DeviceContext* ctx = nullptr;

    /// Sweeps t0 .. t0+steps-1 as one launch: sweep j reads buf[(t0+j)%2]
    /// and writes the other buffer over the owned interior rows widened
    /// by steps-1-j rows into each exchanged halo.
    void epoch(std::size_t t0, std::size_t steps,
               stencil::stencil_detail::sweep_row_fn row_fn) {
      const std::size_t sides = (up ? 1 : 0) + (down ? 1 : 0);
      const std::size_t band_rows =
          steps * (gend - gstart) + sides * steps * (steps - 1) / 2;
      ctx->note_launch(gpusim::Dim3{band_rows, 1, 1}, gpusim::Dim3{cols, 1, 1});
      for (std::size_t j = 0; j < steps; ++j) {
        const std::size_t widen = steps - 1 - j;
        const std::size_t top = gstart - (up ? widen : 0);
        const std::size_t nrows = gend + (down ? widen : 0) - top;
        const double* in = buf[(t0 + j) % 2].data() + (top - lo) * cols;
        double* out = buf[(t0 + j + 1) % 2].data() + (top - lo) * cols;
        const std::size_t width = cols;
        gpusim::run_batch(*engine, nrows, nrows * width, [=](std::size_t, std::size_t i) {
          const double* row = in + i * width;
          row_fn(row - width, row, row + width, out + i * width, width);
        });
      }
    }
  };
  // Only computing devices get a slab's buffers and streams: a device
  // that owns no interior row neither sweeps nor exchanges.
  std::vector<Slab> slab(devices);
  for (std::size_t d = first; d < last; ++d) {
    Slab& s = slab[d];
    s.up = d > first;
    s.down = d + 1 < last;
    // k halo rows toward an exchanging neighbor; otherwise the one
    // neighboring row, a global boundary row that never changes.
    s.lo = s.up ? r0[d] - k : (r0[d] == 0 ? 0 : r0[d] - 1);
    s.hi = s.down ? r0[d + 1] + k : (r0[d + 1] == rows ? rows : r0[d + 1] + 1);
    s.gstart = std::max<std::size_t>(r0[d], 1);
    s.gend = std::min(r0[d + 1], rows - 1);
    s.cols = cols;
    gpusim::DeviceContext& ctx = topo.context(d);
    s.buf[0] = gpusim::DeviceBuffer<double>(ctx, (s.hi - s.lo) * cols);
    s.buf[1] = gpusim::DeviceBuffer<double>(ctx, (s.hi - s.lo) * cols);
    s.comp = std::make_unique<gpusim::Stream>(ctx, gpusim::StreamMode::kAsync);
    s.xfer = std::make_unique<gpusim::Stream>(ctx, gpusim::StreamMode::kAsync);
    s.engine = &topo.engine(d);
    s.ctx = &ctx;
  }

  const stencil::stencil_detail::sweep_row_fn row_fn =
      stencil::stencil_detail::pick_sweep_row();

  Timer wall;
  // Upload: both ping-pong slabs start as the initial grid slice, so
  // boundary rows/columns and halos hold real values from iteration 0.
  std::vector<gpusim::Event> uploaded(devices);
  for (std::size_t d = first; d < last; ++d) {
    Slab& s = slab[d];
    const std::span<const double> src(grid.data() + s.lo * cols, (s.hi - s.lo) * cols);
    gpusim::copy_to_device_async(topo, d, *s.comp, s.buf[0], 0, src, topo.numa_domain_of(d));
    gpusim::copy_to_device_async(topo, d, *s.comp, s.buf[1], 0, src, topo.numa_domain_of(d));
    s.comp->record(uploaded[d]);
  }

  // before_epoch[d]: the copies device d's next epoch waits for, into
  // its halos (recorded on the neighbors' transfer streams) and out of
  // its edge rows (on its own).
  std::vector<std::vector<gpusim::Event>> before_epoch(devices);
  std::vector<gpusim::Event> compute_done(devices);
  for (std::size_t t0 = 0; t0 < opt.iterations; t0 += k) {
    const std::size_t steps = std::min(k, opt.iterations - t0);
    for (std::size_t d = first; d < last; ++d) {
      Slab& s = slab[d];
      for (gpusim::Event& ev : before_epoch[d]) s.comp->wait(ev);
      before_epoch[d].clear();
      // Four 8-byte captures: the op stays within ErasedOp's inline storage.
      s.comp->enqueue(0.0, [&s, t0, steps, row_fn] { s.epoch(t0, steps, row_fn); });
      s.comp->record(compute_done[d]);
    }
    if (t0 + steps == opt.iterations) break;  // no exchange after the last epoch

    // Halo exchange on the epoch's output buffer: the sender's k edge
    // rows [row, row + k) become the receiver's halo rows.  Fixed
    // device-major order.
    const std::size_t cur = (t0 + steps) % 2;
    const auto send = [&](std::size_t from, std::size_t to, std::size_t row) {
      Slab& src = slab[from];
      Slab& dst = slab[to];
      src.xfer->wait(compute_done[from]);
      src.xfer->wait(compute_done[to]);
      gpusim::peer_copy_async(topo, from, to, *src.xfer, dst.buf[cur], (row - dst.lo) * cols,
                              src.buf[cur], (row - src.lo) * cols, k * cols);
      gpusim::Event copied;
      src.xfer->record(copied);
      before_epoch[to].push_back(copied);
      before_epoch[from].push_back(copied);
    };
    for (std::size_t d = first; d < last; ++d) {
      if (slab[d].up) send(d, d - 1, r0[d]);
      if (slab[d].down) send(d, d + 1, r0[d + 1] - k);
    }
  }

  // Land each device's owned rows from the final buffer back into the
  // host grid, fixed device-major combination order.
  const std::size_t fin = opt.iterations % 2;
  for (std::size_t d = first; d < last; ++d) {
    Slab& s = slab[d];
    // An exchanging neighbor's upload reads my edge rows from the host
    // grid; after a single epoch no halo copy orders it before this copy.
    if (s.up) s.comp->wait(uploaded[d - 1]);
    if (s.down) s.comp->wait(uploaded[d + 1]);
    gpusim::copy_to_host_async(
        topo, d, *s.comp,
        std::span<double>(grid.data() + s.gstart * cols, (s.gend - s.gstart) * cols),
        s.buf[fin], (s.gstart - s.lo) * cols, topo.numa_domain_of(d));
  }

  double modeled = 0.0;
  for (std::size_t d = first; d < last; ++d) {
    modeled = std::max(modeled, slab[d].comp->synchronize());
    modeled = std::max(modeled, slab[d].xfer->synchronize());
  }
  stats.modeled_s = modeled;
  stats.wall_s = wall.seconds();
  stats.panels = devices * opt.iterations;
  return stats;
}

}  // namespace portabench::multigpu
