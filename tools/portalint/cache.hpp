// portaflow incremental analysis cache.
//
// Keyed by (root-relative path, FNV-1a content hash).  A warm entry lets
// the engine skip the expensive per-file work — lexing, the token rules,
// and IR lowering — while still reading the file once (the hash needs
// the bytes, and excerpts/suppression filtering need the lines).  The
// whole-tree passes (mo-balance, hy-include-cycle, the fl-* flow rules)
// always run fresh over the cached IRs, so cross-file findings are never
// staler than the tree.
//
// The on-disk format is line-based text with a version stamp; any parse
// problem or version mismatch silently discards the cache (a cold run is
// always correct).  kCacheVersion must be bumped whenever rule output,
// IR shape, or this format changes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ir.hpp"
#include "model.hpp"

namespace portalint {

inline constexpr std::string_view kCacheVersion = "portalint-cache v3";  // v3: four order flags

/// A finding minus its FileUnit binding (re-bound on load).
struct CachedFinding {
  std::string rule;
  std::string family;
  std::string message;
  int line = 0;
  std::string excerpt;
};

/// Everything per-file analysis produces for one content hash.
struct CacheEntry {
  std::uint64_t hash = 0;
  std::vector<CachedFinding> findings;  // run_file_rules output
  FileIR ir;
  std::map<int, std::vector<Suppression>> suppressions;
  std::vector<std::pair<int, std::string>> quoted_includes;
};

[[nodiscard]] std::uint64_t fnv1a(std::string_view s);

class AnalysisCache {
 public:
  /// Load from disk.  Returns false (leaving the cache empty) when the
  /// file is missing, unreadable, version-mismatched, or corrupt.
  bool load(const std::filesystem::path& file);

  /// Persist every entry.  Best-effort: failures are silent (the next
  /// run is merely cold).
  void save(const std::filesystem::path& file) const;

  /// Entry for `rel` if present with a matching content hash.
  [[nodiscard]] const CacheEntry* lookup(const std::string& rel, std::uint64_t hash) const;

  void put(const std::string& rel, CacheEntry entry);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// True when put() added or replaced anything since load() — a fully
  /// warm run leaves the cache clean and can skip rewriting it.
  [[nodiscard]] bool dirty() const { return dirty_; }

 private:
  std::map<std::string, CacheEntry> entries_;
  bool dirty_ = false;
};

}  // namespace portalint
