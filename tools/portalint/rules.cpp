#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>

#include "analysis.hpp"

namespace portalint {

namespace {

bool is_punct(const Token& tok, std::string_view text) {
  return tok.kind == Tok::kPunct && tok.text == text;
}

bool is_ident(const Token& tok) { return tok.kind == Tok::kIdent; }

const std::set<std::string>& assign_ops() {
  static const std::set<std::string> kOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=", "++", "--",
  };
  return kOps;
}

const std::set<std::string>& atomic_member_ops() {
  static const std::set<std::string> kOps = {
      "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
      "fetch_or", "fetch_xor", "compare_exchange_weak", "compare_exchange_strong",
      "test_and_set",
  };
  return kOps;
}

// --- path scopes -----------------------------------------------------------
//
// Tests are exempt from the concurrency-ordering and raw-primitive rules:
// test code legitimately uses seq_cst defaults for assertions and spawns
// raw threads to stress the runtimes.  Fixture files opt back into every
// rule regardless of location.  docs/LINT.md documents the scoping.

bool in_tests(const FileUnit& u) { return u.has_component("tests") && !u.is_fixture; }

bool in_runtime_dirs(const FileUnit& u) {
  return !u.is_fixture && (u.has_component("simrt") || u.has_component("gpusim"));
}

bool rng_exempt(const FileUnit& u) {
  return !u.is_fixture && u.rel.find("common/rng") != std::string::npos;
}

// tn-magic-tile exemptions: the tunables modules (simrt, gpusim,
// primitives) name the fixed schedule constants, and tests freely pin
// schedules to make scenarios reproducible.
bool tn_exempt(const FileUnit& u) {
  if (u.is_fixture) return false;
  return u.rel.find("tunables") != std::string::npos || in_tests(u);
}

Finding make(const FileUnit& u, int line, std::string rule, std::string family,
             std::string message) {
  Finding f;
  f.rule = std::move(rule);
  f.family = std::move(family);
  f.message = std::move(message);
  f.unit = &u;
  f.line = line;
  f.excerpt = normalize_excerpt(u.line_text(line));
  return f;
}

// --- lane-safety -----------------------------------------------------------

void rule_lane_safety(const FileUnit& u, std::vector<Finding>& out) {
  const auto& t = u.lex.tokens;
  const auto lambdas = find_dispatch_lambdas(t);
  if (lambdas.empty()) return;
  const auto atomics = atomic_var_names(t);
  const auto pointers = pointer_var_names(t);

  for (const LambdaInfo& l : lambdas) {
    std::set<std::string> locals = body_local_names(t, l.body_begin, l.body_end);
    locals.insert(l.params.begin(), l.params.end());
    std::set<std::string> ptr_reported;

    for (std::size_t j = l.body_begin + 1; j + 1 < l.body_end; ++j) {
      if (!is_ident(t[j])) {
        // Prefix increment/decrement of a captured scalar.
        if ((is_punct(t[j], "++") || is_punct(t[j], "--")) && is_ident(t[j + 1])) {
          const std::string& name = t[j + 1].text;
          if (!locals.count(name) && !atomics.count(name) && captures_by_ref(l, name) &&
              !(j > 0 && (is_punct(t[j - 1], ".") || is_punct(t[j - 1], "->")))) {
            out.push_back(make(u, t[j].line, "ls-capture-write", "lane-safety",
                               "parallel lambda (" + l.call + ") mutates by-reference " +
                                   "capture '" + name + "' non-atomically: every lane " +
                                   "races on it"));
          }
        }
        continue;
      }
      const std::string& name = t[j].text;
      const Token& prev = t[j - 1];
      const Token& next = t[j + 1];
      if (is_punct(prev, ".") || is_punct(prev, "->") || is_punct(prev, "::")) continue;
      const bool decl_site = is_ident(prev) || is_punct(prev, ">") || is_punct(prev, "*") ||
                             is_punct(prev, "&") || is_punct(prev, "&&");

      // ls-capture-write: plain write to a by-ref-captured non-local.
      if (next.kind == Tok::kPunct && assign_ops().count(next.text)) {
        if (decl_site || locals.count(name) || atomics.count(name)) continue;
        if (!captures_by_ref(l, name)) continue;
        out.push_back(make(u, t[j].line, "ls-capture-write", "lane-safety",
                           "parallel lambda (" + l.call + ") mutates by-reference " +
                               "capture '" + name + "' non-atomically: every lane races " +
                               "on it"));
        continue;
      }

      // ls-nonlane-store: indexed store where no index depends on a lane.
      if (is_punct(next, "(") || is_punct(next, "[")) {
        if (decl_site || locals.count(name)) continue;
        if (!captures_by_ref(l, name) && !captures_by_value(l, name)) continue;
        std::size_t k = j + 1;
        std::size_t groups = 0;
        std::set<std::string> index_idents;
        while (k < l.body_end) {
          if (is_punct(t[k], "(") || is_punct(t[k], "[")) {
            const std::size_t m = match_forward(t, k);
            if (m == kNpos || m >= l.body_end) break;
            for (std::size_t q = k + 1; q < m; ++q) {
              if (is_ident(t[q])) index_idents.insert(t[q].text);
            }
            ++groups;
            k = m + 1;
          } else if ((is_punct(t[k], ".") || is_punct(t[k], "->")) && k + 1 < l.body_end &&
                     is_ident(t[k + 1])) {
            k += 2;
          } else {
            break;
          }
        }
        if (groups >= 1 && k < l.body_end && t[k].kind == Tok::kPunct &&
            assign_ops().count(t[k].text)) {
          bool lane_indexed = false;
          for (const std::string& id : index_idents) {
            if (locals.count(id)) {
              lane_indexed = true;
              break;
            }
          }
          if (!lane_indexed) {
            out.push_back(make(u, t[j].line, "ls-nonlane-store", "lane-safety",
                               "store to captured '" + name + "' is indexed by no lane " +
                                   "or iteration variable: lanes collide on one element"));
          }
        }
        // fall through: the same identifier may also be a pointer capture
      }

      // ls-ptr-capture: by-value raw pointer inside a device kernel.
      if ((l.call == "launch" || l.call == "launch_blocks") && pointers.count(name) &&
          !locals.count(name) && captures_by_value(l, name) && !ptr_reported.count(name)) {
        ptr_reported.insert(name);
        out.push_back(make(u, t[j].line, "ls-ptr-capture", "lane-safety",
                           "device kernel captures raw pointer '" + name + "' by value; " +
                               "use a device view/buffer so the access is portable and " +
                               "checkable"));
      }
    }
  }
}

// --- concurrency: explicit memory orders -----------------------------------

void rule_mo_explicit(const FileUnit& u, std::vector<Finding>& out) {
  const auto& t = u.lex.tokens;
  const auto atomics = atomic_var_names(t);

  for (std::size_t j = 1; j + 1 < t.size(); ++j) {
    // Named member operations: x.load(...), slot.go.store(...), ...
    if (is_ident(t[j]) && atomic_member_ops().count(t[j].text) &&
        (is_punct(t[j - 1], ".") || is_punct(t[j - 1], "->")) && is_punct(t[j + 1], "(")) {
      const std::size_t close = match_forward(t, j + 1);
      if (close == kNpos) continue;
      // Variable the operation applies to: identifier before the '.'.
      std::string var;
      if (j >= 2 && is_ident(t[j - 2])) var = t[j - 2].text;

      std::vector<std::string> orders;
      for (std::size_t q = j + 2; q < close; ++q) {
        if (!is_ident(t[q])) continue;
        const std::string& s = t[q].text;
        if (s.rfind("memory_order_", 0) == 0) {
          orders.push_back(s.substr(13));
        } else if (s == "memory_order" && q + 2 < close && is_punct(t[q + 1], "::") &&
                   is_ident(t[q + 2])) {
          orders.push_back(t[q + 2].text);
        }
      }
      // "load"/"store" are also the member names of non-atomic value
      // types (simrt::simd, views).  Count them as atomic only with
      // evidence: an explicit memory_order argument, or a receiver
      // declared std::atomic in this TU.  The other member ops
      // (fetch_add, exchange, ...) are unambiguous.
      if ((t[j].text == "load" || t[j].text == "store") && orders.empty() &&
          !atomics.count(var)) {
        continue;
      }
      if (orders.empty()) {
        out.push_back(make(u, t[j].line, "mo-explicit", "concurrency",
                           "atomic " + t[j].text + "() without an explicit memory_order " +
                               "(implicit seq_cst): state the ordering the algorithm needs"));
      }
      continue;
    }

    // Operator forms on locally-declared atomics: ++x, x++, x += 1, x = v.
    if (is_ident(t[j]) && atomics.count(t[j].text)) {
      const Token& prev = t[j - 1];
      const Token& next = t[j + 1];
      const bool decl_site = is_ident(prev) || is_punct(prev, ">");
      const bool member = is_punct(prev, ".") || is_punct(prev, "->") || is_punct(prev, "::");
      const bool op_next = next.kind == Tok::kPunct && assign_ops().count(next.text);
      const bool op_prev = is_punct(prev, "++") || is_punct(prev, "--");
      if (!decl_site && !member && (op_next || op_prev)) {
        const std::string op = op_prev ? prev.text : next.text;
        out.push_back(make(u, t[j].line, "mo-explicit", "concurrency",
                           "operator " + op + " on atomic '" + t[j].text + "' is an " +
                               "implicit seq_cst RMW; use an explicit fetch_/store with " +
                               "a named memory_order"));
      }
    }
  }
}

// --- concurrency: raw primitives -------------------------------------------

void rule_raw_thread(const FileUnit& u, std::vector<Finding>& out) {
  static const std::set<std::string> kRawTypes = {
      "thread", "jthread", "mutex", "recursive_mutex", "timed_mutex",
      "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
  };
  const auto& t = u.lex.tokens;
  for (std::size_t j = 0; j < t.size(); ++j) {
    if (!is_ident(t[j])) continue;
    if (t[j].text == "volatile") {
      out.push_back(make(u, t[j].line, "raw-thread", "concurrency",
                         "volatile is not a synchronization primitive; use std::atomic " +
                             std::string("or route the work through simrt")));
      continue;
    }
    if (kRawTypes.count(t[j].text) && j >= 2 && is_punct(t[j - 1], "::") &&
        is_ident(t[j - 2]) && t[j - 2].text == "std" &&
        !(j + 1 < t.size() && is_punct(t[j + 1], "::"))) {
      out.push_back(make(u, t[j].line, "raw-thread", "concurrency",
                         "raw std::" + t[j].text + " outside src/simrt and src/gpusim: " +
                             "concurrency belongs to the runtime layers"));
    }
  }
}

// --- determinism ------------------------------------------------------------

void rule_det_rand(const FileUnit& u, std::vector<Finding>& out) {
  const auto& t = u.lex.tokens;
  for (std::size_t j = 0; j < t.size(); ++j) {
    if (!is_ident(t[j])) continue;
    const bool member = j > 0 && (is_punct(t[j - 1], ".") || is_punct(t[j - 1], "->"));
    if ((t[j].text == "rand" || t[j].text == "srand") && !member && j + 1 < t.size() &&
        is_punct(t[j + 1], "(")) {
      out.push_back(make(u, t[j].line, "det-rand", "determinism",
                         t[j].text + "() is unseeded global state; use " +
                             "portabench::common rng streams so runs are reproducible"));
    } else if (t[j].text == "random_device" && !member) {
      out.push_back(make(u, t[j].line, "det-rand", "determinism",
                         "std::random_device draws nondeterministic entropy; seed a " +
                             std::string("portabench::common rng stream instead")));
    }
  }
}

void rule_det_unordered(const FileUnit& u, std::vector<Finding>& out) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
  };
  const auto& t = u.lex.tokens;
  std::set<std::string> names;
  for (std::size_t j = 0; j + 1 < t.size(); ++j) {
    if (!is_ident(t[j]) || !kUnordered.count(t[j].text)) continue;
    std::size_t k = j + 1;
    if (is_punct(t[k], "<")) {
      const std::size_t m = match_forward(t, k);
      if (m == kNpos) continue;
      k = m + 1;
    }
    if (k < t.size() && is_ident(t[k])) names.insert(t[k].text);
  }
  if (names.empty()) return;
  for (std::size_t j = 0; j + 1 < t.size(); ++j) {
    if (!is_ident(t[j]) || t[j].text != "for" || !is_punct(t[j + 1], "(")) continue;
    const std::size_t close = match_forward(t, j + 1);
    if (close == kNpos) continue;
    int depth = 0;
    for (std::size_t k = j + 1; k < close; ++k) {
      if (is_punct(t[k], "(")) ++depth;
      if (is_punct(t[k], ")")) --depth;
      if (depth == 1 && is_punct(t[k], ":")) {
        for (std::size_t q = k + 1; q < close; ++q) {
          if (is_ident(t[q])) {
            if (names.count(t[q].text)) {
              out.push_back(make(u, t[q].line, "det-unordered", "determinism",
                                 "iteration over unordered container '" + t[q].text +
                                     "': the order is unspecified, so anything reduced " +
                                     "or emitted from it is nondeterministic — sort first"));
            }
            break;
          }
        }
        break;
      }
    }
  }
}

// --- hygiene ----------------------------------------------------------------

// simd-raw-vector-ext: explicit SIMD belongs behind simrt::simd.  Raw
// GCC generic vectors and x86 intrinsics outside src/simrt/simd_backends
// fork the determinism contract (lane order, fp-contract, tier identity)
// the abstraction pins; one sanctioned home keeps it auditable.
// __builtin_ia32_pause is a spin-wait hint, not a SIMD operation.
void rule_simd_raw_vector_ext(const FileUnit& u, std::vector<Finding>& out) {
  const auto& t = u.lex.tokens;
  for (std::size_t j = 0; j < t.size(); ++j) {
    if (!is_ident(t[j])) continue;
    const std::string& s = t[j].text;
    if (s == "__builtin_ia32_pause") continue;
    const bool call_like = j + 1 < t.size() && is_punct(t[j + 1], "(");
    std::string what;
    if (s == "vector_size" && call_like) {
      what = "__attribute__((vector_size)) generic vector";
    } else if ((s == "__builtin_shuffle" || s == "__builtin_convertvector") && call_like) {
      what = s + " on a generic vector";
    } else if (s.rfind("__m128", 0) == 0 || s.rfind("__m256", 0) == 0 ||
               s.rfind("__m512", 0) == 0) {
      what = "x86 vector type " + s;
    } else if ((s.rfind("_mm_", 0) == 0 || s.rfind("_mm256_", 0) == 0 ||
                s.rfind("_mm512_", 0) == 0 || s.rfind("__builtin_ia32_", 0) == 0) &&
               call_like) {
      what = "x86 intrinsic " + s;
    } else {
      continue;
    }
    out.push_back(make(u, t[j].line, "simd-raw-vector-ext", "hygiene",
                       what + " outside src/simrt/simd_backends: write the kernel " +
                           "against simrt::simd so lane order, fp-contract, and tier " +
                           "dispatch stay under the portable contract"));
  }
}

void rule_pragma_once(const FileUnit& u, std::vector<Finding>& out) {
  if (!u.is_header || u.has_pragma_once) return;
  out.push_back(make(u, 1, "hy-pragma-once", "hygiene",
                     "header lacks #pragma once (this repository's include-guard style)"));
}

void rule_using_ns(const FileUnit& u, std::vector<Finding>& out) {
  if (!u.is_header) return;
  const auto& t = u.lex.tokens;
  std::vector<char> stack;  // 'F' function-like, 'N' namespace, 'O' other
  static const std::set<std::string> kSkippable = {"const", "noexcept", "mutable",
                                                   "override", "final"};
  for (std::size_t j = 0; j < t.size(); ++j) {
    if (is_punct(t[j], "{")) {
      char kind = 'O';
      std::size_t k = j;
      while (k > 0) {
        const Token& p = t[k - 1];
        if (is_ident(p) && kSkippable.count(p.text)) {
          --k;
          continue;
        }
        if (is_punct(p, "&") || is_punct(p, "&&")) {
          --k;
          continue;
        }
        if (is_punct(p, ")") || is_punct(p, "]") ||
            (is_ident(p) && (p.text == "else" || p.text == "do" || p.text == "try"))) {
          kind = 'F';
        } else if (is_ident(p) &&
                   (p.text == "namespace" ||
                    (k >= 2 && is_ident(t[k - 2]) && t[k - 2].text == "namespace"))) {
          kind = 'N';
        }
        break;
      }
      stack.push_back(kind);
      continue;
    }
    if (is_punct(t[j], "}")) {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    if (is_ident(t[j]) && t[j].text == "using" && j + 1 < t.size() &&
        is_ident(t[j + 1]) && t[j + 1].text == "namespace") {
      const bool in_function =
          std::find(stack.begin(), stack.end(), 'F') != stack.end();
      if (!in_function) {
        out.push_back(make(u, t[j].line, "hy-using-ns", "hygiene",
                           "using namespace at file/namespace scope in a header leaks " +
                               std::string("into every includer")));
      }
    }
  }
}

void rule_include_cycle(const Project& p, std::vector<Finding>& out) {
  namespace fs = std::filesystem;
  // Resolve quoted includes to scanned units.
  std::map<std::string, std::size_t> by_path;
  for (std::size_t i = 0; i < p.files.size(); ++i) {
    std::error_code ec;
    fs::path canon = fs::weakly_canonical(p.files[i].path, ec);
    by_path[(ec ? p.files[i].path : canon).lexically_normal().string()] = i;
  }
  std::vector<fs::path> roots;
  for (const FileUnit& u : p.files) roots.push_back(u.path.parent_path());
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  if (fs::exists(p.root / "src")) roots.push_back(p.root / "src");
  roots.push_back(p.root);

  struct Edge {
    std::size_t to;
    int line;
  };
  std::vector<std::vector<Edge>> adj(p.files.size());
  for (std::size_t i = 0; i < p.files.size(); ++i) {
    for (const auto& [line, inc] : p.files[i].quoted_includes) {
      std::vector<fs::path> cands;
      cands.push_back(p.files[i].path.parent_path() / inc);
      for (const fs::path& r : roots) cands.push_back(r / inc);
      for (const fs::path& c : cands) {
        std::error_code ec;
        fs::path canon = fs::weakly_canonical(c, ec);
        auto it = by_path.find((ec ? c : canon).lexically_normal().string());
        if (it != by_path.end()) {
          adj[i].push_back({it->second, line});
          break;
        }
      }
    }
  }

  // Iterative DFS with a gray-path stack; cycles deduped by member set.
  enum : char { kWhite, kGray, kBlack };
  std::vector<char> color(p.files.size(), kWhite);
  std::vector<std::size_t> path_stack;
  std::set<std::string> seen_cycles;

  std::function<void(std::size_t)> dfs = [&](std::size_t v) {
    color[v] = kGray;
    path_stack.push_back(v);
    for (const Edge& e : adj[v]) {
      if (color[e.to] == kGray) {
        auto it = std::find(path_stack.begin(), path_stack.end(), e.to);
        std::vector<std::size_t> cycle(it, path_stack.end());
        std::vector<std::string> rels;
        for (std::size_t m : cycle) rels.push_back(p.files[m].rel);
        std::vector<std::string> key = rels;
        std::sort(key.begin(), key.end());
        std::string keystr;
        for (const auto& r : key) keystr += r + "|";
        if (!seen_cycles.insert(keystr).second) continue;
        // Anchor on the lexicographically first member's include edge.
        std::size_t anchor_pos = 0;
        for (std::size_t q = 1; q < cycle.size(); ++q) {
          if (p.files[cycle[q]].rel < p.files[cycle[anchor_pos]].rel) anchor_pos = q;
        }
        const std::size_t anchor = cycle[anchor_pos];
        const std::size_t next_member = cycle[(anchor_pos + 1) % cycle.size()];
        int line = 1;
        for (const Edge& ae : adj[anchor]) {
          if (ae.to == next_member) {
            line = ae.line;
            break;
          }
        }
        std::string chain;
        for (std::size_t q = 0; q < cycle.size(); ++q) {
          chain += p.files[cycle[(anchor_pos + q) % cycle.size()]].rel + " -> ";
        }
        chain += p.files[anchor].rel;
        bool suppressed = false;
        for (std::size_t m : cycle) {
          for (const Edge& me : adj[m]) {
            if (p.files[m].find_suppression(me.line, "hy-include-cycle") != nullptr) {
              suppressed = true;
            }
          }
        }
        if (!suppressed) {
          out.push_back(make(p.files[anchor], line, "hy-include-cycle", "hygiene",
                             "include cycle: " + chain));
        }
      } else if (color[e.to] == kWhite) {
        dfs(e.to);
      }
    }
    path_stack.pop_back();
    color[v] = kBlack;
  };
  for (std::size_t i = 0; i < p.files.size(); ++i) {
    if (color[i] == kWhite) dfs(i);
  }
}

}  // namespace

// --- tn-magic-tile ---------------------------------------------------------
//
// A schedule knob (tile/chunk/grain/cutoff/unroll/batch/block size)
// assigned a bare nonzero integer literal is a scheduling decision
// hidden at its use site.  Those belong in a tunables module (named
// once); everything else should read them from there.  Zero is exempt —
// it is the conventional "resolve at runtime" sentinel.

bool tn_knob_ident(const std::string& name) {
  // The tiled-GEMM blocking constants, exact (kMR alone would also match
  // e.g. kMRU-style names via substrings, so these are not fragments).
  static const std::set<std::string> kExact = {"kMR", "kNR", "kNRMax",
                                               "kKC", "kMC", "kNC"};
  if (kExact.count(name)) return true;
  std::string low;
  low.reserve(name.size());
  for (const char c : name) {
    low += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  static const char* const kFragments[] = {"tile",   "chunk",      "grain",
                                           "cutoff", "unroll",     "batch_jobs",
                                           "block_size"};
  for (const char* frag : kFragments) {
    if (low.find(frag) != std::string::npos) return true;
  }
  return false;
}

void rule_tn_magic_tile(const FileUnit& u, std::vector<Finding>& out) {
  const auto& t = u.lex.tokens;
  for (std::size_t j = 0; j + 2 < t.size(); ++j) {
    if (!is_ident(t[j]) || !tn_knob_ident(t[j].text)) continue;
    if (!(is_punct(t[j + 1], "=") || is_punct(t[j + 1], "{"))) continue;
    const Token& num = t[j + 2];
    if (num.kind != Tok::kNumber) continue;
    // Integer literals only: floats are measurements, not schedule knobs.
    if (num.text.find('.') != std::string::npos ||
        num.text.find('e') != std::string::npos ||
        num.text.find('E') != std::string::npos) {
      continue;
    }
    const long long value = std::strtoll(num.text.c_str(), nullptr, 0);
    if (value == 0) continue;  // 0 = "resolve at runtime" sentinel
    out.push_back(make(u, t[j].line, "tn-magic-tile", "hygiene",
                       "schedule knob '" + t[j].text + "' pinned to literal " +
                           num.text + "; name it once in a tunables module"));
  }
}

bool scope_in_tests(const FileUnit& u) { return in_tests(u); }

bool scope_rng_exempt(const FileUnit& u) { return rng_exempt(u); }

const std::vector<RuleDesc>& all_rules() {
  static const std::vector<RuleDesc> kRules = {
      {"ls-capture-write", "lane-safety",
       "parallel/launch lambda mutates a by-reference-captured local non-atomically"},
      {"ls-nonlane-store", "lane-safety",
       "indexed store in a parallel lambda where no index depends on the lane"},
      {"ls-ptr-capture", "lane-safety",
       "device kernel ([=] launch lambda) captures a raw pointer by value"},
      {"mo-explicit", "concurrency",
       "atomic operation without an explicit memory_order (src/ and bench/ only)"},
      {"mo-balance", "concurrency",
       "per-variable acquire/release pairing imbalance across the scanned tree"},
      {"raw-thread", "concurrency",
       "raw std::thread/std::mutex/volatile outside src/simrt and src/gpusim"},
      {"det-rand", "determinism",
       "rand()/srand()/std::random_device outside src/common/rng"},
      {"det-unordered", "determinism",
       "range-for over an unordered container (order feeds results)"},
      {"simd-raw-vector-ext", "hygiene",
       "raw __attribute__((vector_size)) vectors or x86 intrinsics outside "
       "src/simrt/simd_backends"},
      {"tn-magic-tile", "hygiene",
       "schedule knob (tile/chunk/grain/cutoff/unroll/batch/block size) "
       "hard-coded to an integer literal outside the tunables modules"},
      {"hy-pragma-once", "hygiene", "header missing #pragma once"},
      {"hy-using-ns", "hygiene",
       "using namespace at file/namespace scope in a header"},
      {"hy-include-cycle", "hygiene", "include cycle among scanned files"},
      {"fl-shared-write-escape", "lane-safety",
       "kernel/dispatch lambda passes a by-ref-captured shared variable to a "
       "helper that writes it non-atomically (interprocedural)"},
      {"fl-unpaired-ordering", "concurrency",
       "per-variable acquire/release summary on the call graph is one-sided "
       "(sites resolved through std::atomic& helper parameters)"},
      {"fl-unproved-bounds", "lane-safety",
       "index expression in a launch body is not provably within the view's "
       "extent for every lane (symbolic affine analysis)"},
      {"fl-det-taint", "determinism",
       "kernel/dispatch lambda calls a helper that transitively reaches a "
       "nondeterministic source (rand, clock, unordered iteration)"},
  };
  return kRules;
}

std::vector<Finding> run_file_rules(const FileUnit& u) {
  std::vector<Finding> out;
  rule_lane_safety(u, out);
  if (!in_tests(u)) {
    rule_mo_explicit(u, out);
    if (!in_runtime_dirs(u)) rule_raw_thread(u, out);
  }
  if (!rng_exempt(u)) rule_det_rand(u, out);
  if (!tn_exempt(u)) rule_tn_magic_tile(u, out);
  if (!u.has_component("simd_backends")) rule_simd_raw_vector_ext(u, out);
  rule_det_unordered(u, out);
  rule_pragma_once(u, out);
  rule_using_ns(u, out);
  return out;
}

std::vector<Finding> run_global_rules(const Project& project) {
  std::vector<Finding> out;
  rule_include_cycle(project, out);
  return out;
}

}  // namespace portalint
