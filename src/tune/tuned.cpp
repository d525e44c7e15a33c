#include "tuned.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "fingerprint.hpp"
#include "gpusim/tunables.hpp"
#include "simrt/tunables.hpp"

namespace portabench::tune {

namespace {

/// Clamp a cached long into a sane std::size_t knob value.
std::size_t as_size_knob(long v, std::size_t fallback, std::size_t lo = 1) {
  if (v < static_cast<long>(lo)) return fallback;
  return static_cast<std::size_t>(v);
}

bool env_set(const char* name) { return std::getenv(name) != nullptr; }

}  // namespace

Tuned& Tuned::instance() {
  static Tuned* t = new Tuned();  // leaked: lookups may outlive main()
  return *t;
}

Tuned::~Tuned() { free_slots(); }

void Tuned::free_slots() noexcept {
  for (auto& slot : tile_slots_) {
    delete slot.exchange(nullptr, std::memory_order_acq_rel);
  }
}

void Tuned::ensure_loaded() {
  std::lock_guard<TuneMutex> lock(mutex_);
  if (loaded_) return;
  loaded_ = true;
  fingerprint_ = fingerprint_hash(local_fingerprint());
  const char* disable = std::getenv("PORTABENCH_TUNE_DISABLE");
  disabled_ = disable != nullptr && disable[0] == '1';
  std::string path = explicit_path_;
  if (path.empty()) {
    const char* env = std::getenv("PORTABENCH_TUNE_CACHE");
    if (env != nullptr) path = env;
  }
  if (disabled_ || path.empty()) {
    cache_.clear();
    load_result_ = CacheLoadResult{};  // kMissing, no warning needed
    return;
  }
  load_result_ = cache_.load(path);
  if (load_result_.status != CacheLoadStatus::kOk &&
      load_result_.status != CacheLoadStatus::kMissing) {
    // Typed warning, never an abort: a bad cache degrades to defaults.
    std::fprintf(stderr, "[portabench::tune] %s\n", load_result_.warning.c_str());
  }
}

const gemm::TileConfig& Tuned::gemm_tile(Precision p, std::uint32_t size_class) noexcept {
  const std::size_t pi = std::min<std::size_t>(static_cast<std::size_t>(p),
                                               kNumPrecisions - 1);
  const std::size_t sc = std::min<std::size_t>(size_class, kSizeClasses - 1);
  std::atomic<const gemm::TileConfig*>& slot = tile_slots_[pi * kSizeClasses + sc];

  if (const gemm::TileConfig* hit = slot.load(std::memory_order_acquire)) {
    return *hit;  // warm path: one load, no allocation
  }

  ensure_loaded();
  gemm::TileConfig cfg;
  {
    std::lock_guard<TuneMutex> lock(mutex_);
    if (!disabled_) {
      const CacheEntry* e =
          cache_.find("gemm-tile", name(p), size_class, fingerprint_);
      if (e != nullptr) {
        const auto mc = e->config.find("mc");
        if (mc != e->config.end()) cfg.mc = as_size_knob(mc->second, cfg.mc);
        // kc is frozen in the registry; still clamp-read it so a hand-
        // edited cache cannot smuggle in a zero.
        const auto kc = e->config.find("kc");
        if (kc != e->config.end()) cfg.kc = as_size_knob(kc->second, cfg.kc);
        const auto tier = e->config.find("tier");
        if (tier != e->config.end() && tier->second >= -1 && tier->second <= 3) {
          cfg.tier = static_cast<int>(tier->second);
        }
      }
    }
  }

  const auto* fresh = new gemm::TileConfig(cfg);
  const gemm::TileConfig* expected = nullptr;
  if (!slot.compare_exchange_strong(expected, fresh, std::memory_order_release,
                                    std::memory_order_acquire)) {
    delete fresh;  // another first-use racer won; adopt its slot
    return *expected;
  }
  slot_fills_.fetch_add(1, std::memory_order_relaxed);
  return *fresh;
}

std::size_t Tuned::serve_batch_jobs(std::size_t fallback) noexcept {
  ensure_loaded();
  std::lock_guard<TuneMutex> lock(mutex_);
  if (disabled_) return fallback;
  const CacheEntry* e = cache_.find("serve-batch", "-", 0, fingerprint_);
  if (e == nullptr) return fallback;
  const auto it = e->config.find("batch_jobs");
  if (it == e->config.end()) return fallback;
  return as_size_knob(it->second, fallback);
}

primitives::SortConfig Tuned::radix_sort_config(primitives::SortConfig fallback) noexcept {
  ensure_loaded();
  std::lock_guard<TuneMutex> lock(mutex_);
  if (disabled_) return fallback;
  const CacheEntry* e = cache_.find("primitives-radix", "-", 0, fingerprint_);
  if (e == nullptr) return fallback;
  primitives::SortConfig cfg = fallback;
  const auto bits = e->config.find("radix_bits");
  if (bits != e->config.end() && bits->second >= 1 && bits->second <= 8) {
    cfg.radix_bits = static_cast<unsigned>(bits->second);
  }
  const auto chunk = e->config.find("chunk");
  if (chunk != e->config.end()) cfg.chunk = as_size_knob(chunk->second, cfg.chunk);
  const auto lanes = e->config.find("lanes");
  if (lanes != e->config.end()) cfg.lanes = as_size_knob(lanes->second, cfg.lanes);
  return cfg;
}

primitives::ScanConfig Tuned::scan_config(primitives::ScanConfig fallback) noexcept {
  ensure_loaded();
  std::lock_guard<TuneMutex> lock(mutex_);
  if (disabled_) return fallback;
  const CacheEntry* e = cache_.find("primitives-scan", "-", 0, fingerprint_);
  if (e == nullptr) return fallback;
  primitives::ScanConfig cfg = fallback;
  const auto chunk = e->config.find("chunk");
  if (chunk != e->config.end()) cfg.chunk = as_size_knob(chunk->second, cfg.chunk);
  const auto lanes = e->config.find("lanes");
  if (lanes != e->config.end()) cfg.lanes = as_size_knob(lanes->second, cfg.lanes);
  return cfg;
}

primitives::ReduceConfig Tuned::reduce_config(primitives::ReduceConfig fallback) noexcept {
  ensure_loaded();
  std::lock_guard<TuneMutex> lock(mutex_);
  if (disabled_) return fallback;
  const CacheEntry* e = cache_.find("primitives-scan", "-", 0, fingerprint_);
  if (e == nullptr) return fallback;
  primitives::ReduceConfig cfg = fallback;
  const auto lanes = e->config.find("lanes");
  if (lanes != e->config.end()) cfg.lanes = as_size_knob(lanes->second, cfg.lanes);
  const auto grain = e->config.find("items_per_lane");
  if (grain != e->config.end()) {
    cfg.items_per_lane = as_size_knob(grain->second, cfg.items_per_lane);
  }
  return cfg;
}

void Tuned::apply_process_tunables() noexcept {
  ensure_loaded();
  std::lock_guard<TuneMutex> lock(mutex_);
  if (disabled_) return;
  if (const CacheEntry* e = cache_.find("dispatch", "-", 0, fingerprint_)) {
    simrt::DispatchTunables t = simrt::dispatch_tunables();
    const auto get = [&](const char* knob, const char* env, std::size_t current) {
      if (env_set(env)) return current;  // explicit env wins over cache
      const auto it = e->config.find(knob);
      return it == e->config.end() ? current
                                   : as_size_knob(it->second, current, 0);
    };
    t.fork_cutoff = get("fork_cutoff", "PORTABENCH_TUNE_FORK_CUTOFF", t.fork_cutoff);
    t.chunks_per_thread = get("chunks_per_thread", "PORTABENCH_TUNE_CHUNK",
                              t.chunks_per_thread);
    t.min_grain = get("min_grain", "PORTABENCH_TUNE_MIN_GRAIN", t.min_grain);
    simrt::set_dispatch_tunables(t);
  }
  if (const CacheEntry* e = cache_.find("launch", "-", 0, fingerprint_)) {
    gpusim::LaunchTunables t = gpusim::launch_tunables();
    const auto get = [&](const char* knob, const char* env, std::size_t current) {
      if (env_set(env)) return current;
      const auto it = e->config.find(knob);
      return it == e->config.end() ? current
                                   : as_size_knob(it->second, current, 0);
    };
    t.fork_cutoff = get("fork_cutoff", "PORTABENCH_TUNE_LAUNCH_CUTOFF", t.fork_cutoff);
    t.chunks_per_worker = get("chunks_per_worker", "PORTABENCH_TUNE_LAUNCH_CHUNKS",
                              t.chunks_per_worker);
    gpusim::set_launch_tunables(t);
  }
}

CacheLoadStatus Tuned::load_status() {
  ensure_loaded();
  std::lock_guard<TuneMutex> lock(mutex_);
  return load_result_.status;
}

std::string Tuned::load_warning() {
  ensure_loaded();
  std::lock_guard<TuneMutex> lock(mutex_);
  return load_result_.warning;
}

void Tuned::reset_for_testing(const std::string& cache_path) {
  {
    std::lock_guard<TuneMutex> lock(mutex_);
    loaded_ = false;
    disabled_ = false;
    explicit_path_ = cache_path;
    cache_.clear();
    load_result_ = CacheLoadResult{};
  }
  free_slots();
  slot_fills_.store(0, std::memory_order_relaxed);
}

}  // namespace portabench::tune
