// Isolated probes of each layer's public entry points, run by every
// traced run.  Their inputs are fixed (no seed), so a probe reads the
// same on every workload: it shows the floor of one layer, not the load
// a workload puts on it.
#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "e2e.hpp"
#include "gemm/kernels_tiled.hpp"
#include "gpusim/batch.hpp"
#include "gpusim/copy.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/tunables.hpp"
#include "multigpu/shard.hpp"
#include "serve/engine.hpp"

namespace portabench::e2e {

namespace {

constexpr std::uint32_t kProbeLane = 1;
constexpr std::size_t kForkReps = 2000;
constexpr std::size_t kHandoffReps = 2000;
constexpr std::size_t kCopyReps = 20;
constexpr std::size_t kKernelReps = 5;
constexpr std::size_t kServeJobs = 4096;
constexpr double kServeRps = 12000.0;

/// Median wall microseconds of `reps` runs of `body`, as one span.
template <class Body>
double median_us(Tracer& tr, const char* name, std::size_t reps, Body&& body) {
  std::vector<double> us;
  us.reserve(reps);
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < reps; ++k) {
    const std::int64_t b = now_ns();
    body();
    us.push_back(static_cast<double>(now_ns() - b) * 1e-3);
  }
  tr.span(name, "probe", t0, now_ns(), reps, kProbeLane);
  return percentile_of(us, 50.0);
}

/// launch.fork_us: one empty LaunchEngine::run_blocks just above the fork
/// cutoff on the shared engine the serve batches launch through.
void probe_fork(Tracer& tr, Values& v) {
  gpusim::LaunchEngine& engine = gpusim::LaunchEngine::shared();
  const std::size_t blocks = engine.workers();
  const std::size_t threads = std::max<std::size_t>(1, gpusim::launch_tunables().fork_cutoff);
  const auto fork = [&] { engine.run_blocks(blocks, threads, [](std::size_t, std::size_t) {}); };
  fork();  // spawn the pool outside the timing
  v["launch.fork_us"] = median_us(tr, "run_blocks", kForkReps, fork);
}

/// stream.handoff_us: record an event on one async stream, wait for it
/// on another, and synchronize the second.
void probe_handoff(Tracer& tr, Values& v) {
  gpusim::DeviceContext ctx(gpusim::GpuSpec::mi250x_gcd());
  gpusim::Stream a(ctx, gpusim::StreamMode::kAsync);
  gpusim::Stream b(ctx, gpusim::StreamMode::kAsync);
  v["stream.handoff_us"] = median_us(tr, "record-wait-sync", kHandoffReps, [&] {
    gpusim::Event ev;
    a.record(ev);
    b.wait(ev);
    (void)b.synchronize();
  });
}

/// copy.*_ms: one FP64 768x768 matrix per direction over the device
/// workloads' throttled links (H2D/D2H NUMA-local, D2D same package).
void probe_copies(Tracer& tr, Values& v) {
  gpusim::DeviceTopology topo(device_topology());
  std::vector<double> host(kDeviceGemmN * kDeviceGemmN, 1.0);
  gpusim::DeviceBuffer<double> d0(topo.context(0), host.size());
  gpusim::DeviceBuffer<double> d1(topo.context(1), host.size());
  gpusim::Stream s(topo.context(0), gpusim::StreamMode::kAsync);
  const std::size_t domain = topo.numa_domain_of(0);
  v["copy.h2d_ms"] = 1e-3 * median_us(tr, "copy_to_device", kCopyReps, [&] {
    gpusim::copy_to_device_async(topo, 0, s, d0, 0, std::span<const double>(host), domain);
    (void)s.synchronize();
  });
  v["copy.d2h_ms"] = 1e-3 * median_us(tr, "copy_to_host", kCopyReps, [&] {
    gpusim::copy_to_host_async(topo, 0, s, std::span<double>(host), d0, 0, domain);
    (void)s.synchronize();
  });
  v["copy.d2d_ms"] = 1e-3 * median_us(tr, "peer_copy", kCopyReps, [&] {
    gpusim::peer_copy_async(topo, 0, 1, s, d1, 0, d0, 0, host.size());
    (void)s.synchronize();
  });
}

/// kernel.gemm_*: the compute of one device-gemm call alone — every
/// panel's tiled microkernel through gpusim::run_batch on its device's
/// engine, both devices at once, no copies.
void probe_gemm_kernel(Tracer& tr, Values& v) {
  constexpr std::size_t n = kDeviceGemmN;
  gpusim::DeviceTopology topo(device_topology());
  std::vector<double> a(n * n), b(n * n), c(n * n);
  Xoshiro256 rng(1);
  fill_uniform(std::span<double>(a), rng);
  fill_uniform(std::span<double>(b), rng);
  const gemm::TileConfig tile{};
  const multigpu::ShardPlan plan = multigpu::ShardPlan::rows(n, 2 * tile.mc, topo.devices());
  std::vector<std::unique_ptr<gpusim::Stream>> streams;
  for (std::size_t d = 0; d < topo.devices(); ++d) {
    streams.push_back(
        std::make_unique<gpusim::Stream>(topo.context(d), gpusim::StreamMode::kAsync));
  }
  const auto compute = [&] {
    for (std::size_t d = 0; d < topo.devices(); ++d) {
      for (std::size_t k = 0; k < plan.panels_of(d); ++k) {
        const multigpu::Panel panel = plan.panel(d, k);
        gpusim::LaunchEngine* engine = &topo.engine(d);
        streams[d]->enqueue(0.0, [&a, &b, &c, engine, panel, tile] {
          const std::size_t rows = panel.rows();
          const std::size_t blocks = (rows + tile.mc - 1) / tile.mc;
          gpusim::run_batch(*engine, blocks, rows * n, [&, engine](std::size_t w, std::size_t blk) {
            const std::size_t r0 = panel.begin + blk * tile.mc;
            const std::size_t r1 = std::min(panel.end, r0 + tile.mc);
            const simrt::RawView2<const double> A(a.data() + r0 * n, r1 - r0, n);
            const simrt::RawView2<const double> B(b.data(), n, n);
            simrt::RawView2<double> C(c.data() + r0 * n, r1 - r0, n);
            auto scratch = gpusim::batch_scratch(
                *engine, w, gemm::gemm_tiled_scratch_bytes<double>(r1 - r0, n, n, tile));
            gemm::gemm_tiled_serial_scratch<double>(A, B, C, scratch, tile);
          });
        });
      }
    }
    for (auto& s : streams) (void)s->synchronize();
  };
  compute();  // warm-up: pools and scratch arenas
  const double ms = 1e-3 * median_us(tr, "gemm_compute", kKernelReps, compute);
  v["kernel.gemm_ms"] = ms;
  v["kernel.gemm_gflops"] = gemm_flops(n, n, n) / (ms * 1e-3) * 1e-9;
}

/// serve.admit_us_* and serve.drain_ms: a fixed burst of tiled GEMMs at
/// 12000 req/s, evenly spaced, through a fresh default engine.
void probe_serve(Tracer& tr, Values& v) {
  serve::ServeEngine engine{serve::ServeConfig{}};
  serve::TraceGen gen(serve_trace(true, 1));
  std::vector<double> admit_us;
  admit_us.reserve(kServeJobs);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kServeJobs; ++i) {
    sleep_until_ns(t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / kServeRps));
    const serve::JobDesc d = gen.next();
    const std::int64_t b = now_ns();
    (void)engine.try_submit(d);
    admit_us.push_back(static_cast<double>(now_ns() - b) * 1e-3);
  }
  const std::int64_t d0 = now_ns();
  engine.drain();
  const std::int64_t d1 = now_ns();
  tr.span("serve-burst", "probe", t0, d0, kServeJobs, kProbeLane);
  tr.span("drain", "probe", d0, d1, 0, kProbeLane);
  v["serve.admit_us_p50"] = percentile_of(admit_us, 50.0);
  v["serve.admit_us_p99"] = percentile_of(admit_us, 99.0);
  v["serve.drain_ms"] = static_cast<double>(d1 - d0) * 1e-6;
}

}  // namespace

Values run_probes(Tracer& tracer) {
  Values v;
  probe_fork(tracer, v);
  probe_handoff(tracer, v);
  probe_copies(tracer, v);
  probe_gemm_kernel(tracer, v);
  probe_serve(tracer, v);
  return v;
}

}  // namespace portabench::e2e
