#include "tuned.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "fingerprint.hpp"
#include "params.hpp"

namespace portabench::tune {

namespace {

/// `e`'s config when it is a point of the registry space `space`, else
/// nullptr: an entry the registry forbids resolves like a miss.
const Config* valid_config(const CacheEntry* e, std::string_view space) {
  if (e == nullptr) return nullptr;
  const SpaceDesc* desc = find_space(space);
  return desc != nullptr && config_valid(*desc, e->config) ? &e->config : nullptr;
}

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
    const Config* c =
        disabled_ ? nullptr
                  : valid_config(cache_.find("gemm-tile", name(p), size_class, fingerprint_),
                                 "gemm-tile");
    if (c != nullptr) {
      // kc is frozen, so a valid entry carries the default; only mc and
      // tier can move.
      cfg.mc = static_cast<std::size_t>(c->at("mc"));
      cfg.tier = static_cast<int>(c->at("tier"));
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
  const Config* c = valid_config(cache_.find("serve-batch", "-", 0, fingerprint_), "serve-batch");
  return c == nullptr ? fallback : static_cast<std::size_t>(c->at("batch_jobs"));
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
