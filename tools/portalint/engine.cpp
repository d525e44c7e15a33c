#include "engine.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "cache.hpp"
#include "flow.hpp"
#include "rules.hpp"

namespace portalint {

namespace fs = std::filesystem;

// --- model helpers ----------------------------------------------------------

std::string normalize_excerpt(std::string_view s) {
  std::string out;
  bool in_ws = true;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_ws) out += ' ';
      in_ws = true;
    } else {
      out += c;
      in_ws = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

bool FileUnit::has_component(std::string_view comp) const {
  std::size_t start = 0;
  while (start <= rel.size()) {
    const std::size_t slash = rel.find('/', start);
    const std::string_view part =
        std::string_view(rel).substr(start, slash == std::string::npos ? rel.size() - start
                                                                       : slash - start);
    if (part == comp) return true;
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return false;
}

std::string FileUnit::line_text(int line) const {
  if (line < 1 || static_cast<std::size_t>(line) > lines.size()) return {};
  return lines[static_cast<std::size_t>(line) - 1];
}

std::string finding_path_key(const Finding& f) {
  std::string key = f.unit->rel;
  std::set<std::string> extra;
  for (const RelatedSite& s : f.related) {
    if (s.unit != nullptr && s.unit->rel != f.unit->rel) extra.insert(s.unit->rel);
  }
  for (const std::string& rel : extra) {
    key += "+";
    key += rel;
  }
  return key;
}

const Suppression* FileUnit::find_suppression(int line, std::string_view rule) const {
  for (int probe : {line, line - 1}) {
    auto it = suppressions.find(probe);
    if (it == suppressions.end()) continue;
    for (const Suppression& s : it->second) {
      if (rule == s.rule_prefix) return &s;
      if (rule.size() > s.rule_prefix.size() && rule.substr(0, s.rule_prefix.size()) == s.rule_prefix &&
          rule[s.rule_prefix.size()] == '-') {
        return &s;
      }
    }
  }
  return nullptr;
}

// --- file loading -----------------------------------------------------------

namespace {

/// Parse "portalint: <rule>-ok(reason) [<rule>-ok(reason) ...]" comments.
std::vector<Suppression> parse_suppressions(const std::string& text) {
  std::vector<Suppression> out;
  const std::size_t tag = text.find("portalint:");
  if (tag == std::string::npos) return out;
  std::size_t pos = tag + 10;
  for (;;) {
    const std::size_t ok = text.find("-ok(", pos);
    if (ok == std::string::npos) break;
    std::size_t start = ok;
    while (start > pos) {
      const char c = text[start - 1];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '-') {
        --start;
      } else {
        break;
      }
    }
    const std::size_t close = text.find(')', ok + 4);
    if (start == ok || close == std::string::npos) break;
    out.push_back({text.substr(start, ok - start), text.substr(ok + 4, close - ok - 4)});
    pos = close + 1;
  }
  return out;
}

bool header_extension(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".hpp" || e == ".h" || e == ".hxx" || e == ".hh";
}

bool scannable_extension(const fs::path& p) {
  const std::string e = p.extension().string();
  return header_extension(p) || e == ".cpp" || e == ".cc" || e == ".cxx" || e == ".ipp";
}

bool path_has_component(const fs::path& p, std::string_view comp) {
  for (const auto& part : p) {
    if (part.string() == comp) return true;
  }
  return false;
}

/// Path/rel/lines only — everything that does not require lexing.
FileUnit make_unit_base(const fs::path& path, const fs::path& root, const std::string& source) {
  FileUnit u;
  u.path = fs::absolute(path).lexically_normal();
  fs::path rel = u.path.lexically_relative(fs::absolute(root).lexically_normal());
  u.rel = (rel.empty() || rel.native().starts_with("..")) ? u.path.generic_string()
                                                          : rel.generic_string();
  u.is_header = header_extension(path);
  u.is_fixture = path_has_component(u.path, "fixtures");

  std::string line;
  std::istringstream ls(source);
  while (std::getline(ls, line)) u.lines.push_back(line);
  return u;
}

/// Lex and derive the token-dependent fields (directives, suppressions).
/// A cache hit skips this and restores the derived fields from the entry.
void lex_unit(FileUnit& u, const std::string& source) {
  u.lex = lex(source);
  for (const Directive& d : u.lex.directives) {
    if (d.text == "pragma once") u.has_pragma_once = true;
    if (d.text.rfind("include", 0) == 0) {
      const std::size_t q1 = d.text.find('"');
      const std::size_t q2 = q1 == std::string::npos ? q1 : d.text.find('"', q1 + 1);
      if (q2 != std::string::npos) {
        u.quoted_includes.emplace_back(d.line, d.text.substr(q1 + 1, q2 - q1 - 1));
      }
    }
  }
  for (const Comment& c : u.lex.comments) {
    auto sups = parse_suppressions(c.text);
    if (!sups.empty()) {
      auto& slot = u.suppressions[c.end_line];
      slot.insert(slot.end(), sups.begin(), sups.end());
    }
  }
}

}  // namespace

std::optional<FileUnit> load_file(const fs::path& path, const fs::path& root) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string source = buf.str();
  FileUnit u = make_unit_base(path, root, source);
  lex_unit(u, source);
  return u;
}

// --- baseline ---------------------------------------------------------------

std::vector<BaselineEntry> parse_baseline(const std::string& text,
                                          std::vector<std::string>& errors) {
  std::vector<BaselineEntry> out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed = normalize_excerpt(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    // rule :: path :: excerpt :: justification
    std::vector<std::string> fields;
    std::size_t pos = 0;
    for (int i = 0; i < 3; ++i) {
      const std::size_t sep = trimmed.find(" :: ", pos);
      if (sep == std::string::npos) break;
      fields.push_back(trimmed.substr(pos, sep - pos));
      pos = sep + 4;
    }
    if (fields.size() != 3) {
      errors.push_back("portalint.baseline:" + std::to_string(lineno) +
                       ": malformed entry (want 'rule :: path :: excerpt :: why')");
      continue;
    }
    BaselineEntry e;
    e.rule = fields[0];
    e.rel = fields[1];
    e.excerpt = fields[2];
    e.justification = trimmed.substr(pos);
    e.source_line = lineno;
    if (e.justification.empty()) {
      errors.push_back("portalint.baseline:" + std::to_string(lineno) +
                       ": entry for " + e.rule + " lacks a justification");
      continue;
    }
    out.push_back(std::move(e));
  }
  return out;
}

// --- pipeline ---------------------------------------------------------------

namespace {

void discover(const fs::path& input, bool include_fixtures, std::vector<fs::path>& files,
              std::vector<std::string>& errors) {
  std::error_code ec;
  if (fs::is_regular_file(input, ec)) {
    files.push_back(input);
    return;
  }
  if (!fs::is_directory(input, ec)) {
    errors.push_back("cannot read input: " + input.string());
    return;
  }
  // An input that already points into a fixtures tree is explicit intent.
  const bool inside_fixtures = path_has_component(fs::absolute(input), "fixtures");
  auto it = fs::recursive_directory_iterator(
      input, fs::directory_options::skip_permission_denied, ec);
  if (ec) {
    errors.push_back("cannot walk input: " + input.string());
    return;
  }
  for (; it != fs::recursive_directory_iterator(); ++it) {
    const fs::path& p = it->path();
    const std::string name = p.filename().string();
    if (it->is_directory()) {
      if (name.starts_with(".") || name == "build" ||
          (name == "fixtures" && !include_fixtures && !inside_fixtures)) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (!it->is_regular_file() || !scannable_extension(p)) continue;
    // Recursion pruning hides fixtures *directories*, but a symlink file
    // inside a scanned directory can still point into one — resolve it
    // and apply the same skip.
    if (!include_fixtures && !inside_fixtures && fs::is_symlink(it->symlink_status())) {
      const fs::path target = fs::weakly_canonical(p, ec);
      if (!ec && path_has_component(target, "fixtures")) continue;
    }
    files.push_back(p);
  }
}

fs::path find_baseline_upward(const fs::path& start) {
  std::error_code ec;
  fs::path dir = fs::absolute(start, ec);
  if (!fs::is_directory(dir, ec)) dir = dir.parent_path();
  for (int depth = 0; depth < 64 && !dir.empty(); ++depth) {
    const fs::path cand = dir / "portalint.baseline";
    if (fs::is_regular_file(cand, ec)) return cand;
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  return {};
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void print_finding_json(const Finding& f, std::ostream& os) {
  os << "{\"rule\":\"" << json_escape(f.rule) << "\",\"family\":\"" << json_escape(f.family)
     << "\",\"file\":\"" << json_escape(f.unit->rel) << "\",\"line\":" << f.line
     << ",\"message\":\"" << json_escape(f.message) << "\",\"excerpt\":\""
     << json_escape(f.excerpt) << "\"";
  if (!f.related.empty()) {
    os << ",\"path_key\":\"" << json_escape(finding_path_key(f)) << "\",\"related\":[";
    for (std::size_t i = 0; i < f.related.size(); ++i) {
      if (i) os << ",";
      os << "{\"file\":\"" << json_escape(f.related[i].unit->rel)
         << "\",\"line\":" << f.related[i].line << ",\"note\":\""
         << json_escape(f.related[i].note) << "\"}";
    }
    os << "]";
  }
  os << "}";
}

}  // namespace

Result run_portalint(const Options& opts) {
  Result r;

  // Baseline + root resolution.
  fs::path baseline_path = opts.baseline_path;
  if (opts.use_baseline && baseline_path.empty() && !opts.inputs.empty()) {
    baseline_path = find_baseline_upward(opts.inputs.front());
  }
  r.root = !opts.root.empty()
               ? fs::absolute(opts.root)
               : (!baseline_path.empty()
                      ? fs::absolute(baseline_path).parent_path()
                      : (!opts.inputs.empty() ? fs::absolute(opts.inputs.front()).parent_path()
                                              : fs::current_path()));

  std::vector<fs::path> files;
  for (const fs::path& input : opts.inputs) {
    discover(input, opts.include_fixtures, files, r.errors);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  AnalysisCache cache;
  const bool use_cache = !opts.cache_path.empty();
  if (use_cache) cache.load(opts.cache_path);  // failure leaves it empty: cold run

  // Phase 1: load every unit first so FileUnit pointers are stable before
  // any Finding or flow pass captures them.
  auto project_owner = std::make_shared<Project>();
  Project& project = *project_owner;
  r.project = project_owner;
  project.root = r.root;
  std::vector<std::uint64_t> hashes;
  std::vector<const CacheEntry*> hits;
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      r.errors.push_back("cannot read file: " + f.string());
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string source = buf.str();
    const std::uint64_t hash = fnv1a(source);

    FileUnit u = make_unit_base(f, r.root, source);
    const CacheEntry* hit = use_cache ? cache.lookup(u.rel, hash) : nullptr;
    if (hit != nullptr) {
      // Warm: skip the lexer; restore the token-derived fields the
      // global passes still need.
      u.suppressions = hit->suppressions;
      u.quoted_includes = hit->quoted_includes;
    } else {
      lex_unit(u, source);
    }
    project.files.push_back(std::move(u));
    hashes.push_back(hash);
    hits.push_back(hit);
  }
  r.files_scanned = project.files.size();

  std::vector<BaselineEntry> baseline;
  if (opts.use_baseline && !baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      baseline = parse_baseline(buf.str(), r.errors);
    } else {
      r.errors.push_back("cannot read baseline: " + baseline_path.string());
    }
  }

  // Phase 2: per-file rules + IR, served from the cache when warm.
  std::vector<Finding> findings;
  std::vector<FileIR> irs;
  irs.reserve(project.files.size());
  for (std::size_t i = 0; i < project.files.size(); ++i) {
    FileUnit& u = project.files[i];
    if (hits[i] != nullptr) {
      ++r.cache_hits;
      for (const CachedFinding& cf : hits[i]->findings) {
        findings.push_back({cf.rule, cf.family, cf.message, &u, cf.line, cf.excerpt, {}});
      }
      irs.push_back(hits[i]->ir);
      continue;
    }
    std::vector<Finding> ff = run_file_rules(u);
    FileIR ir = build_ir(u);
    if (use_cache) {
      CacheEntry e;
      e.hash = hashes[i];
      for (const Finding& f : ff) {
        e.findings.push_back({f.rule, f.family, f.message, f.line, f.excerpt});
      }
      e.ir = ir;
      e.suppressions = u.suppressions;
      e.quoted_includes = u.quoted_includes;
      cache.put(u.rel, std::move(e));
    }
    findings.insert(findings.end(), ff.begin(), ff.end());
    irs.push_back(std::move(ir));
  }

  // Whole-tree passes always run fresh over the (possibly cached) IRs.
  {
    std::vector<Finding> global = run_global_rules(project);
    findings.insert(findings.end(), global.begin(), global.end());
    std::vector<Finding> flow = run_flow(project, irs);
    findings.insert(findings.end(), flow.begin(), flow.end());
  }
  std::stable_sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.unit->rel != b.unit->rel) return a.unit->rel < b.unit->rel;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });

  std::vector<bool> baseline_hit(baseline.size(), false);
  for (Finding& f : findings) {
    if (const Suppression* s = f.unit->find_suppression(f.line, f.rule)) {
      f.message += " [suppressed: " + s->reason + "]";
      r.suppressed.push_back(f);
      continue;
    }
    const std::string path_key = finding_path_key(f);
    bool matched = false;
    for (std::size_t b = 0; b < baseline.size(); ++b) {
      if (baseline[b].rule == f.rule && baseline[b].rel == path_key &&
          baseline[b].excerpt == f.excerpt) {
        baseline_hit[b] = true;
        matched = true;
      }
    }
    if (matched) {
      r.baselined.push_back(f);
    } else {
      r.active.push_back(f);
    }
  }
  for (std::size_t b = 0; b < baseline.size(); ++b) {
    if (!baseline_hit[b]) r.stale.push_back(baseline[b]);
  }

  if (use_cache && cache.dirty()) cache.save(opts.cache_path);
  return r;
}

// --- reports ----------------------------------------------------------------

void print_text(const Result& r, std::ostream& os) {
  for (const std::string& e : r.errors) os << "portalint: error: " << e << "\n";
  for (const Finding& f : r.active) {
    os << f.unit->rel << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
    if (!f.excerpt.empty()) os << "    " << f.excerpt << "\n";
  }
  for (const BaselineEntry& e : r.stale) {
    os << "portalint.baseline:" << e.source_line << ": stale entry: [" << e.rule << "] "
       << e.rel << " no longer triggers — remove it (" << e.excerpt << ")\n";
  }
  os << "portalint: " << r.files_scanned << " files, " << r.active.size() << " finding"
     << (r.active.size() == 1 ? "" : "s") << " (" << r.suppressed.size() << " suppressed, "
     << r.baselined.size() << " baselined, " << r.stale.size() << " stale baseline entr"
     << (r.stale.size() == 1 ? "y" : "ies") << ")\n";
}

void print_json(const Result& r, std::ostream& os) {
  os << "{\"version\":1,\"root\":\"" << json_escape(r.root.generic_string()) << "\",";
  os << "\"findings\":[";
  for (std::size_t i = 0; i < r.active.size(); ++i) {
    if (i) os << ",";
    print_finding_json(r.active[i], os);
  }
  os << "],\"suppressed\":[";
  for (std::size_t i = 0; i < r.suppressed.size(); ++i) {
    if (i) os << ",";
    print_finding_json(r.suppressed[i], os);
  }
  os << "],\"baselined\":[";
  for (std::size_t i = 0; i < r.baselined.size(); ++i) {
    if (i) os << ",";
    print_finding_json(r.baselined[i], os);
  }
  os << "],\"stale_baseline\":[";
  for (std::size_t i = 0; i < r.stale.size(); ++i) {
    if (i) os << ",";
    os << "{\"rule\":\"" << json_escape(r.stale[i].rule) << "\",\"file\":\""
       << json_escape(r.stale[i].rel) << "\",\"excerpt\":\""
       << json_escape(r.stale[i].excerpt) << "\"}";
  }
  os << "],\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(r.errors[i]) << "\"";
  }
  os << "],\"summary\":{\"files\":" << r.files_scanned << ",\"findings\":" << r.active.size()
     << ",\"suppressed\":" << r.suppressed.size() << ",\"baselined\":" << r.baselined.size()
     << ",\"stale\":" << r.stale.size() << "}}\n";
}

int exit_code(const Result& r) { return r.clean() ? 0 : 1; }

}  // namespace portalint
