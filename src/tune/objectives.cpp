#include "objectives.hpp"

#include <memory>
#include <thread>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gemm/kernels_tiled.hpp"
#include "serve/engine.hpp"
#include "simrt/mdarray.hpp"
#include "simrt/parallel.hpp"

namespace portabench::tune {

namespace {

std::size_t knob(const Config& cfg, const char* knob_name, std::size_t fallback) {
  const auto it = cfg.find(knob_name);
  if (it == cfg.end() || it->second < 1) return fallback;
  return static_cast<std::size_t>(it->second);
}

gemm::TileConfig tile_from_config(const Config& cfg) {
  gemm::TileConfig tc;
  tc.mc = knob(cfg, "mc", tc.mc);
  tc.kc = knob(cfg, "kc", tc.kc);
  const auto tier = cfg.find("tier");
  if (tier != cfg.end() && tier->second >= -1 && tier->second <= 3) {
    tc.tier = static_cast<int>(tier->second);
  }
  return tc;
}

template <class T, class Acc>
Objective make_gemm_objective(std::size_t n) {
  struct State {
    explicit State(std::size_t size)
        : space(std::max<std::size_t>(2, std::thread::hardware_concurrency())),
          a(size * size),
          b(size * size),
          c(size * size),
          n(size) {}
    simrt::ThreadsSpace space;
    std::vector<T> a, b;
    std::vector<Acc> c;
    std::size_t n;
  };
  auto st = std::make_shared<State>(n);
  Xoshiro256 rng(42);
  for (std::size_t i = 0; i < n * n; ++i) {
    st->a[i] = static_cast<T>(rng.uniform() - 0.5);
    st->b[i] = static_cast<T>(rng.uniform() - 0.5);
  }
  return [st](const Config& cfg) -> double {
    const gemm::TileConfig tc = tile_from_config(cfg);
    std::fill(st->c.begin(), st->c.end(), Acc{});
    const simrt::RawView2<const T> A(st->a.data(), st->n, st->n);
    const simrt::RawView2<const T> B(st->b.data(), st->n, st->n);
    simrt::RawView2<Acc> C(st->c.data(), st->n, st->n);
    Timer timer;
    gemm::gemm_tiled<Acc>(st->space, A, B, C, tc);
    return timer.seconds() * 1e3;
  };
}

}  // namespace

Objective gemm_tile_objective(Precision p, std::size_t n) {
  switch (p) {
    case Precision::kDouble: return make_gemm_objective<double, double>(n);
    case Precision::kSingle: return make_gemm_objective<float, float>(n);
    case Precision::kHalfIn: return make_gemm_objective<half, float>(n);
  }
  return make_gemm_objective<double, double>(n);
}

Objective serve_batch_objective(std::size_t jobs, std::uint32_t n) {
  return [jobs, n](const Config& cfg) -> double {
    serve::ServeConfig sc;
    sc.batch_jobs = knob(cfg, "batch_jobs", 32);
    sc.queue_capacity = jobs + 1;
    serve::ServeEngine engine(sc);
    Timer timer;
    for (std::size_t i = 0; i < jobs; ++i) {
      serve::JobDesc d;
      d.id = i;
      d.kind = serve::JobKind::kGemm;
      d.frontend = serve::Frontend::kTiled;
      d.precision = Precision::kDouble;
      d.n = n;
      d.seed = i * 2654435761u + 17;
      (void)engine.try_submit(d);
    }
    engine.drain();
    return timer.seconds() * 1e3;
  };
}

}  // namespace portabench::tune
