// portalint engine: file discovery, suppression parsing, baseline
// matching, and report rendering.  The CLI (main.cpp) and the test suite
// both drive the analyzer through run_portalint().
#pragma once

#include <filesystem>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model.hpp"

namespace portalint {

struct Options {
  std::vector<std::filesystem::path> inputs;
  /// Repo root: output paths and baseline paths are relative to it.
  /// Empty: derived from the baseline location or the first input.
  std::filesystem::path root;
  /// Baseline file; empty + use_baseline: searched upward from the first
  /// input as "portalint.baseline".
  std::filesystem::path baseline_path;
  bool use_baseline = true;
  /// Scan directories named "fixtures" during recursive discovery.
  /// Inputs that themselves point inside a fixtures tree are always
  /// scanned (tests pass fixture files explicitly).
  bool include_fixtures = false;
  /// Incremental analysis cache file.  Empty: no caching.  Missing or
  /// corrupt caches are ignored (cold run), and the file is rewritten
  /// after every scan.
  std::filesystem::path cache_path;
};

struct Result {
  /// Owns the scanned FileUnits; Finding::unit points into it, so the
  /// project must outlive every finding the result carries.
  std::shared_ptr<const Project> project;
  std::vector<Finding> active;      // unsuppressed, unbaselined
  std::vector<Finding> suppressed;  // silenced by an inline -ok() comment
  std::vector<Finding> baselined;   // silenced by a baseline entry
  std::vector<BaselineEntry> stale;  // baseline entries matching nothing
  std::size_t files_scanned = 0;
  std::size_t cache_hits = 0;  // files served from the analysis cache
  std::filesystem::path root;
  std::vector<std::string> errors;  // unreadable inputs etc.

  [[nodiscard]] bool clean() const { return active.empty() && stale.empty() && errors.empty(); }
};

/// Load and lex one file into a FileUnit (suppressions, includes, flags).
/// Returns std::nullopt if the file cannot be read.
[[nodiscard]] std::optional<FileUnit> load_file(const std::filesystem::path& path,
                                                const std::filesystem::path& root);

/// Parse a baseline file.  Unparseable lines are reported via `errors`.
[[nodiscard]] std::vector<BaselineEntry> parse_baseline(const std::string& text,
                                                        std::vector<std::string>& errors);

/// Run the full pipeline: discover -> lex -> rules -> suppress -> baseline.
[[nodiscard]] Result run_portalint(const Options& opts);

/// Render the result as human-readable text (one finding per paragraph).
void print_text(const Result& r, std::ostream& os);

/// Render the result as a single JSON document.
void print_json(const Result& r, std::ostream& os);

/// Escape a string for embedding in a JSON string literal (shared with
/// the SARIF renderer).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Exit status for a result: 0 clean, 1 findings or stale baseline.
[[nodiscard]] int exit_code(const Result& r);

}  // namespace portalint
