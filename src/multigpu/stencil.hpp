// Multi-device stencil: halo-exchanged slabs with cross-device events.
//
// The grid's rows are cut into one contiguous slab per device; each slab
// is stored with one halo row per interior neighbor.  Every Jacobi
// iteration runs the 5-point sweep on the device's owned interior rows
// (the exact per-row SIMD kernel of stencil::sweep_simd, bit-identical
// to sweep_serial), then exchanges boundary rows with the neighbors by
// peer_copy_async over the topology's D2D links.  Ordering is done
// entirely with Events across devices:
//
//   copy(d -> nbr) on d's transfer stream waits compute_done[d][t]
//   compute[d][t+1] on d's compute stream waits every halo_in event of
//   iteration t (recorded on the *neighbors'* transfer streams)
//
// so a device cannot start iteration t+1 until its halos hold the
// neighbors' iteration-t rows, and a neighbor cannot ship a row before
// it computed it.  This is the cross-device event-ordering surface the
// multi-device tests pin.
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
  bool numa_aware_staging = true;
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
/// device of `topo` with halo exchange between neighbors.  Returns
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

  struct Slab {
    std::size_t lo = 0, hi = 0;        // global rows stored: [lo, hi)
    std::size_t gstart = 0, gend = 0;  // global interior rows computed
    gpusim::DeviceBuffer<double> buf[2];
    std::unique_ptr<gpusim::Stream> comp, xfer;
  };
  std::vector<Slab> slab(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    Slab& s = slab[d];
    s.lo = r0[d] == 0 ? 0 : r0[d] - 1;            // halo row above
    s.hi = r0[d + 1] == rows ? rows : r0[d + 1] + 1;  // halo row below
    s.gstart = std::max<std::size_t>(r0[d], 1);
    s.gend = std::min(r0[d + 1], rows - 1);
    gpusim::DeviceContext& ctx = topo.context(d);
    s.buf[0] = gpusim::DeviceBuffer<double>(ctx, (s.hi - s.lo) * cols);
    s.buf[1] = gpusim::DeviceBuffer<double>(ctx, (s.hi - s.lo) * cols);
    s.comp = std::make_unique<gpusim::Stream>(ctx, gpusim::StreamMode::kAsync);
    s.xfer = std::make_unique<gpusim::Stream>(ctx, gpusim::StreamMode::kAsync);
  }

  const auto domain_of = [&](std::size_t d) {
    return opt.numa_aware_staging ? topo.numa_domain_of(d) : std::size_t{0};
  };
  const stencil::stencil_detail::sweep_row_fn row_fn =
      stencil::stencil_detail::pick_sweep_row();

  Timer wall;
  // Upload: both ping-pong slabs start as the initial grid slice, so
  // boundary rows/columns and halos hold real values from iteration 0.
  std::vector<gpusim::Event> uploaded(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    Slab& s = slab[d];
    const std::span<const double> src(grid.data() + s.lo * cols, (s.hi - s.lo) * cols);
    gpusim::copy_to_device_async(topo, d, *s.comp, s.buf[0], 0, src, domain_of(d));
    gpusim::copy_to_device_async(topo, d, *s.comp, s.buf[1], 0, src, domain_of(d));
    s.comp->record(uploaded[d]);
  }
  // A device's first halo copy writes into the *neighbor's* slab; without
  // this edge it can race ahead of the neighbor's own upload, which would
  // then clobber the delivered halo with initial data.  (Iteration t >= 1
  // copies are transitively ordered behind the uploads through the
  // compute_done -> halo_in chain; only iteration 0 needs the edge.)
  for (std::size_t d = 0; d < devices; ++d) {
    if (d > 0) slab[d].xfer->wait(uploaded[d - 1]);
    if (d + 1 < devices) slab[d].xfer->wait(uploaded[d + 1]);
  }

  // halo_in[d]: events guarding the halo rows device d received for the
  // previous iteration (recorded on the neighbors' transfer streams).
  std::vector<std::vector<gpusim::Event>> halo_in(devices);
  std::vector<gpusim::Event> compute_done(devices);

  for (std::size_t t = 0; t < opt.iterations; ++t) {
    const std::size_t cur = t % 2;
    const std::size_t nxt = 1 - cur;
    // Sweep every device's owned interior rows: in = buf[cur],
    // out = buf[nxt].
    for (std::size_t d = 0; d < devices; ++d) {
      Slab& s = slab[d];
      for (gpusim::Event& ev : halo_in[d]) s.comp->wait(ev);
      halo_in[d].clear();
      const std::size_t nrows = s.gend > s.gstart ? s.gend - s.gstart : 0;
      const double* in_base = s.buf[cur].data();
      double* out_base = s.buf[nxt].data();
      const std::size_t lo = s.lo;
      const std::size_t gstart = s.gstart;
      gpusim::LaunchEngine* engine = &topo.engine(d);
      gpusim::DeviceContext* ctx = &topo.context(d);
      s.comp->enqueue(0.0, [=] {
        if (nrows == 0) return;
        ctx->note_launch(gpusim::Dim3{nrows, 1, 1}, gpusim::Dim3{cols, 1, 1});
        gpusim::run_batch(*engine, nrows, nrows * cols,
                          [=](std::size_t, std::size_t i) {
                            const std::size_t li = gstart - lo + i;  // local row
                            row_fn(in_base + (li - 1) * cols, in_base + li * cols,
                                   in_base + (li + 1) * cols, out_base + li * cols, cols);
                          });
      });
      s.comp->record(compute_done[d]);
    }
    // Halo exchange on buf[nxt]: my edge rows become the neighbors' halo
    // rows.  The copy waits for my sweep; the neighbor's next sweep
    // waits for the copy (via halo_in).  Fixed device-major order.
    // Only a neighbor that computes rows gets a halo: it never reads one
    // otherwise, and its return copy is what orders my sweep two
    // iterations on (which overwrites the row this copy reads) behind
    // this copy.
    const auto computes = [&](std::size_t d) { return slab[d].gend > slab[d].gstart; };
    for (std::size_t d = 0; d < devices; ++d) {
      Slab& s = slab[d];
      if (d > 0 && computes(d) && computes(d - 1)) {
        Slab& up = slab[d - 1];
        s.xfer->wait(compute_done[d]);
        // My first computed row gstart is row index (gstart - up.lo) in
        // the upper neighbor's slab (its bottom halo when gstart == up.hi-1).
        gpusim::peer_copy_async(topo, d, d - 1, *s.xfer, up.buf[nxt],
                                (s.gstart - up.lo) * cols, s.buf[nxt],
                                (s.gstart - s.lo) * cols, cols);
        gpusim::Event ev;
        s.xfer->record(ev);
        halo_in[d - 1].push_back(ev);
      }
      if (d + 1 < devices && computes(d) && computes(d + 1)) {
        Slab& dn = slab[d + 1];
        s.xfer->wait(compute_done[d]);
        gpusim::peer_copy_async(topo, d, d + 1, *s.xfer, dn.buf[nxt],
                                (s.gend - 1 - dn.lo) * cols, s.buf[nxt],
                                (s.gend - 1 - s.lo) * cols, cols);
        gpusim::Event ev;
        s.xfer->record(ev);
        halo_in[d + 1].push_back(ev);
      }
    }
  }

  // Land each device's owned rows from the final buffer back into the
  // host grid, fixed device-major combination order.
  const std::size_t fin = opt.iterations % 2;
  for (std::size_t d = 0; d < devices; ++d) {
    Slab& s = slab[d];
    if (s.gend <= s.gstart) continue;
    for (gpusim::Event& ev : halo_in[d]) s.comp->wait(ev);  // final halos irrelevant, but drain order-safe
    s.comp->wait(compute_done[d]);
    gpusim::copy_to_host_async(
        topo, d, *s.comp,
        std::span<double>(grid.data() + s.gstart * cols, (s.gend - s.gstart) * cols),
        s.buf[fin], (s.gstart - s.lo) * cols, domain_of(d));
  }

  double modeled = 0.0;
  for (std::size_t d = 0; d < devices; ++d) {
    modeled = std::max(modeled, slab[d].comp->synchronize());
    modeled = std::max(modeled, slab[d].xfer->synchronize());
  }
  stats.modeled_s = modeled;
  stats.wall_s = wall.seconds();
  stats.panels = devices * opt.iterations;
  return stats;
}

}  // namespace portabench::multigpu
