#include "cache.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace portalint {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

/// Strings are written as '~' + percent-escaped content, so an empty
/// string is the single character '~' and fields never contain spaces.
std::string esc(std::string_view s) {
  std::string out = "~";
  for (const char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case ' ': out += "%20"; break;
      case '\t': out += "%09"; break;
      case '\n': out += "%0A"; break;
      case '\r': out += "%0D"; break;
      default: out += c;
    }
  }
  return out;
}

bool unesc(std::string_view field, std::string& out) {
  if (field.empty() || field[0] != '~') return false;
  out.clear();
  for (std::size_t i = 1; i < field.size(); ++i) {
    if (field[i] != '%') {
      out += field[i];
      continue;
    }
    if (i + 2 >= field.size()) return false;
    const auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    const int hi = hex(field[i + 1]);
    const int lo = hex(field[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return true;
}

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t sp = line.find(' ', start);
    if (sp == std::string::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, sp - start));
    start = sp + 1;
  }
  return out;
}

bool to_int(const std::string& s, int& v) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long parsed = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  v = static_cast<int>(parsed);
  return true;
}

void write_str_list(std::ostream& os, const char* tag,
                    const std::vector<std::string>& items) {
  if (items.empty()) return;
  os << tag;
  for (const std::string& s : items) os << ' ' << esc(s);
  os << '\n';
}

void write_str_set(std::ostream& os, const char* tag, const std::set<std::string>& items) {
  write_str_list(os, tag, std::vector<std::string>(items.begin(), items.end()));
}

void write_access(std::ostream& os, const AccessIR& a) {
  os << "ac " << (a.is_store ? 1 : 0) << (a.via_paren ? 1 : 0) << (a.is_deref ? 1 : 0)
     << ' ' << a.line << ' ' << esc(a.base) << ' ' << esc(a.excerpt) << '\n';
  for (const auto& group : a.indices) write_str_list(os, "ai", group);
  write_str_list(os, "ar", a.rhs_idents);
  for (const GuardIR& g : a.guards) {
    os << "ag " << esc(g.var);
    for (const std::string& tok : g.bound) os << ' ' << esc(tok);
    os << '\n';
  }
}

void write_call(std::ostream& os, const CallIR& c) {
  os << "cl " << c.line << ' ' << esc(c.callee) << ' ' << esc(c.excerpt) << '\n';
  for (const auto& group : c.args) write_str_list(os, "ca", group);
}

bool read_str_list(const std::vector<std::string>& f, std::size_t from,
                   std::vector<std::string>& out) {
  for (std::size_t i = from; i < f.size(); ++i) {
    std::string s;
    if (!unesc(f[i], s)) return false;
    out.push_back(std::move(s));
  }
  return true;
}

bool read_str_set(const std::vector<std::string>& f, std::size_t from,
                  std::set<std::string>& out) {
  std::vector<std::string> items;
  if (!read_str_list(f, from, items)) return false;
  out.insert(items.begin(), items.end());
  return true;
}

}  // namespace

const CacheEntry* AnalysisCache::lookup(const std::string& rel, std::uint64_t hash) const {
  const auto it = entries_.find(rel);
  if (it == entries_.end() || it->second.hash != hash) return nullptr;
  return &it->second;
}

void AnalysisCache::put(const std::string& rel, CacheEntry entry) {
  entries_[rel] = std::move(entry);
  dirty_ = true;
}

void AnalysisCache::save(const std::filesystem::path& file) const {
  std::ofstream os(file, std::ios::binary);
  if (!os) return;
  os << kCacheVersion << '\n';
  for (const auto& [rel, e] : entries_) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(e.hash));
    os << "file " << esc(rel) << ' ' << hex << '\n';
    for (const CachedFinding& f : e.findings) {
      os << "F " << f.line << ' ' << esc(f.rule) << ' ' << esc(f.family) << ' '
         << esc(f.message) << ' ' << esc(f.excerpt) << '\n';
    }
    for (const auto& [line, sups] : e.suppressions) {
      for (const Suppression& s : sups) {
        os << "S " << line << ' ' << esc(s.rule_prefix) << ' ' << esc(s.reason) << '\n';
      }
    }
    for (const auto& [line, inc] : e.quoted_includes) {
      os << "I " << line << ' ' << esc(inc) << '\n';
    }
    write_str_set(os, "A", e.ir.atomics);

    for (const FunctionIR& fn : e.ir.functions) {
      os << "fn " << fn.line << ' ' << esc(fn.name) << '\n';
      for (const ParamIR& p : fn.params) {
        os << "fp " << esc(p.name) << ' ' << (p.writable ? 1 : 0) << (p.is_atomic ? 1 : 0)
           << '\n';
      }
      write_str_set(os, "flo", fn.locals);
      write_str_set(os, "ft", fn.taint_sources);
      write_str_set(os, "fret", fn.return_idents);
      for (const AccessIR& a : fn.accesses) write_access(os, a);
      for (const CallIR& c : fn.calls) write_call(os, c);
      for (const ExtentIR& ex : fn.extents) {
        os << "ex " << ex.line << ' ' << esc(ex.name) << '\n';
        for (const auto& dim : ex.dims) write_str_list(os, "ed", dim);
      }
      os << "endfn\n";
    }

    for (const LaunchIR& l : e.ir.launches) {
      os << "ln " << l.line << ' ' << static_cast<int>(l.cap_default) << ' '
         << (l.serialized ? 1 : 0) << ' ' << esc(l.call) << ' '
         << esc(l.enclosing_function) << '\n';
      write_str_list(os, "lrc", l.ref_caps);
      write_str_list(os, "lvc", l.val_caps);
      write_str_list(os, "lp", l.params);
      write_str_set(os, "llo", l.locals);
      write_str_set(os, "lln", l.lane_names);
      for (const auto& [lane, bound] : l.lane_bounds) {
        os << "lb " << esc(lane);
        for (const std::string& tok : bound) os << ' ' << esc(tok);
        os << '\n';
      }
      for (const AccessIR& a : l.accesses) write_access(os, a);
      for (const CallIR& c : l.calls) write_call(os, c);
      os << "endln\n";
    }

    for (const OrderIR& o : e.ir.orders) {
      os << "o " << o.line << ' ' << (o.acq ? 1 : 0) << (o.rel ? 1 : 0)
         << (o.has_explicit_order ? 1 : 0) << (o.operator_form ? 1 : 0) << ' '
         << o.param_index << ' ' << esc(o.var) << ' ' << esc(o.op) << ' '
         << esc(o.enclosing) << ' ' << esc(o.excerpt) << '\n';
    }
    os << "endfile\n";
  }
}

bool AnalysisCache::load(const std::filesystem::path& file) {
  entries_.clear();
  std::ifstream is(file, std::ios::binary);
  if (!is) return false;
  std::string line;
  if (!std::getline(is, line) || line != kCacheVersion) return false;

  std::map<std::string, CacheEntry> loaded;
  CacheEntry* entry = nullptr;
  FunctionIR* fn = nullptr;
  LaunchIR* launch = nullptr;
  // The access/call the ai/ar/ag/ca continuation lines attach to.
  AccessIR* access = nullptr;
  CallIR* call = nullptr;

  auto fail = [&] {
    entries_.clear();
    return false;
  };

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto f = split(line);
    const std::string& tag = f[0];

    if (tag == "file") {
      if (f.size() != 3) return fail();
      std::string rel;
      if (!unesc(f[1], rel)) return fail();
      CacheEntry e;
      e.hash = std::strtoull(f[2].c_str(), nullptr, 16);
      e.ir.rel = rel;
      entry = &loaded.emplace(rel, std::move(e)).first->second;
      fn = nullptr;
      launch = nullptr;
      access = nullptr;
      call = nullptr;
      continue;
    }
    if (entry == nullptr) return fail();

    auto body_accesses = [&]() -> std::vector<AccessIR>* {
      if (launch != nullptr) return &launch->accesses;
      if (fn != nullptr) return &fn->accesses;
      return nullptr;
    };
    auto body_calls = [&]() -> std::vector<CallIR>* {
      if (launch != nullptr) return &launch->calls;
      if (fn != nullptr) return &fn->calls;
      return nullptr;
    };

    if (tag == "F") {
      if (f.size() != 6) return fail();
      CachedFinding cf;
      if (!to_int(f[1], cf.line) || !unesc(f[2], cf.rule) || !unesc(f[3], cf.family) ||
          !unesc(f[4], cf.message) || !unesc(f[5], cf.excerpt)) {
        return fail();
      }
      entry->findings.push_back(std::move(cf));
    } else if (tag == "S") {
      if (f.size() != 4) return fail();
      int ln = 0;
      Suppression s;
      if (!to_int(f[1], ln) || !unesc(f[2], s.rule_prefix) || !unesc(f[3], s.reason)) {
        return fail();
      }
      entry->suppressions[ln].push_back(std::move(s));
    } else if (tag == "I") {
      if (f.size() != 3) return fail();
      int ln = 0;
      std::string inc;
      if (!to_int(f[1], ln) || !unesc(f[2], inc)) return fail();
      entry->quoted_includes.emplace_back(ln, std::move(inc));
    } else if (tag == "A") {
      if (!read_str_set(f, 1, entry->ir.atomics)) return fail();
    } else if (tag == "fn") {
      if (f.size() != 3) return fail();
      FunctionIR nf;
      if (!to_int(f[1], nf.line) || !unesc(f[2], nf.name)) return fail();
      entry->ir.functions.push_back(std::move(nf));
      fn = &entry->ir.functions.back();
      access = nullptr;
      call = nullptr;
    } else if (tag == "fp") {
      if (fn == nullptr || f.size() != 3 || f[2].size() != 2) return fail();
      ParamIR p;
      if (!unesc(f[1], p.name)) return fail();
      p.writable = f[2][0] == '1';
      p.is_atomic = f[2][1] == '1';
      fn->params.push_back(std::move(p));
    } else if (tag == "flo") {
      if (fn == nullptr || !read_str_set(f, 1, fn->locals)) return fail();
    } else if (tag == "ft") {
      if (fn == nullptr || !read_str_set(f, 1, fn->taint_sources)) return fail();
    } else if (tag == "fret") {
      if (fn == nullptr || !read_str_set(f, 1, fn->return_idents)) return fail();
    } else if (tag == "ex") {
      if (fn == nullptr || f.size() != 3) return fail();
      ExtentIR ex;
      if (!to_int(f[1], ex.line) || !unesc(f[2], ex.name)) return fail();
      fn->extents.push_back(std::move(ex));
    } else if (tag == "ed") {
      if (fn == nullptr || fn->extents.empty()) return fail();
      std::vector<std::string> dim;
      if (!read_str_list(f, 1, dim)) return fail();
      fn->extents.back().dims.push_back(std::move(dim));
    } else if (tag == "endfn") {
      fn = nullptr;
      access = nullptr;
      call = nullptr;
    } else if (tag == "ln") {
      if (f.size() != 6) return fail();
      LaunchIR nl;
      int cap = 0;
      int serialized = 0;
      if (!to_int(f[1], nl.line) || !to_int(f[2], cap) || !to_int(f[3], serialized) ||
          !unesc(f[4], nl.call) || !unesc(f[5], nl.enclosing_function)) {
        return fail();
      }
      nl.cap_default = static_cast<char>(cap);
      nl.serialized = serialized != 0;
      entry->ir.launches.push_back(std::move(nl));
      launch = &entry->ir.launches.back();
      access = nullptr;
      call = nullptr;
    } else if (tag == "lrc") {
      if (launch == nullptr || !read_str_list(f, 1, launch->ref_caps)) return fail();
    } else if (tag == "lvc") {
      if (launch == nullptr || !read_str_list(f, 1, launch->val_caps)) return fail();
    } else if (tag == "lp") {
      if (launch == nullptr || !read_str_list(f, 1, launch->params)) return fail();
    } else if (tag == "llo") {
      if (launch == nullptr || !read_str_set(f, 1, launch->locals)) return fail();
    } else if (tag == "lln") {
      if (launch == nullptr || !read_str_set(f, 1, launch->lane_names)) return fail();
    } else if (tag == "lb") {
      if (launch == nullptr || f.size() < 2) return fail();
      std::string lane;
      std::vector<std::string> bound;
      if (!unesc(f[1], lane) || !read_str_list(f, 2, bound)) return fail();
      launch->lane_bounds.emplace_back(std::move(lane), std::move(bound));
    } else if (tag == "endln") {
      launch = nullptr;
      access = nullptr;
      call = nullptr;
    } else if (tag == "ac") {
      auto* dest = body_accesses();
      if (dest == nullptr || f.size() != 5 || f[1].size() != 3) return fail();
      AccessIR a;
      a.is_store = f[1][0] == '1';
      a.via_paren = f[1][1] == '1';
      a.is_deref = f[1][2] == '1';
      // f layout: ac <flags> <line> <base> <excerpt>
      if (!to_int(f[2], a.line) || !unesc(f[3], a.base) || !unesc(f[4], a.excerpt)) {
        return fail();
      }
      dest->push_back(std::move(a));
      access = &dest->back();
      call = nullptr;
    } else if (tag == "ai") {
      if (access == nullptr) return fail();
      std::vector<std::string> group;
      if (!read_str_list(f, 1, group)) return fail();
      access->indices.push_back(std::move(group));
    } else if (tag == "ar") {
      if (access == nullptr || !read_str_list(f, 1, access->rhs_idents)) return fail();
    } else if (tag == "ag") {
      if (access == nullptr || f.size() < 2) return fail();
      GuardIR g;
      if (!unesc(f[1], g.var) || !read_str_list(f, 2, g.bound)) return fail();
      access->guards.push_back(std::move(g));
    } else if (tag == "cl") {
      auto* dest = body_calls();
      if (dest == nullptr || f.size() != 4) return fail();
      CallIR c;
      if (!to_int(f[1], c.line) || !unesc(f[2], c.callee) || !unesc(f[3], c.excerpt)) {
        return fail();
      }
      dest->push_back(std::move(c));
      call = &dest->back();
      access = nullptr;
    } else if (tag == "ca") {
      if (call == nullptr) return fail();
      std::vector<std::string> group;
      if (!read_str_list(f, 1, group)) return fail();
      call->args.push_back(std::move(group));
    } else if (tag == "o") {
      if (f.size() != 8) return fail();
      OrderIR o;
      if (!to_int(f[1], o.line) || f[2].size() != 4 || !to_int(f[3], o.param_index) ||
          !unesc(f[4], o.var) || !unesc(f[5], o.op) || !unesc(f[6], o.enclosing) ||
          !unesc(f[7], o.excerpt)) {
        return fail();
      }
      o.acq = f[2][0] == '1';
      o.rel = f[2][1] == '1';
      o.has_explicit_order = f[2][2] == '1';
      o.operator_form = f[2][3] == '1';
      o.is_param = o.param_index >= 0;
      entry->ir.orders.push_back(std::move(o));
    } else if (tag == "endfile") {
      entry = nullptr;
      fn = nullptr;
      launch = nullptr;
      access = nullptr;
      call = nullptr;
    } else {
      return fail();
    }
  }
  entries_ = std::move(loaded);
  return true;
}

}  // namespace portalint
