#include "ir.hpp"

#include <algorithm>
#include <array>

#include "analysis.hpp"

namespace portalint {

namespace {

bool is_punct(const Token& tok, std::string_view text) {
  return tok.kind == Tok::kPunct && tok.text == text;
}

bool is_ident(const Token& tok) { return tok.kind == Tok::kIdent; }

const std::set<std::string>& assign_ops() {
  static const std::set<std::string> kOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=",
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

/// Identifiers that look like calls but are not function definitions or
/// helper calls worth linking.
const std::set<std::string>& non_callees() {
  static const std::set<std::string> kSkip = {
      "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
      "decltype", "static_assert", "new", "delete", "operator", "throw",
      "assert", "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
      "defined", "alignas", "noexcept", "typeid",
  };
  return kSkip;
}

std::string excerpt_at(const FileUnit& u, int line) {
  return normalize_excerpt(u.line_text(line));
}

/// Split the token range (open+1, close) by top-level commas into
/// flattened token-text groups.
std::vector<std::vector<std::string>> split_args(const std::vector<Token>& t,
                                                 std::size_t open, std::size_t close) {
  std::vector<std::vector<std::string>> out;
  std::size_t start = open + 1;
  int depth = 0;
  for (std::size_t q = open + 1; q <= close; ++q) {
    const bool at_end = q == close;
    if (!at_end) {
      if (is_punct(t[q], "(") || is_punct(t[q], "[") || is_punct(t[q], "{") ) ++depth;
      if (is_punct(t[q], ")") || is_punct(t[q], "]") || is_punct(t[q], "}") ) --depth;
    }
    if (at_end || (depth == 0 && is_punct(t[q], ","))) {
      std::vector<std::string> arg;
      for (std::size_t r = start; r < q; ++r) arg.push_back(t[r].text);
      if (!arg.empty()) out.push_back(std::move(arg));
      start = q + 1;
    }
  }
  return out;
}

// --- guard tracking ---------------------------------------------------------

/// A guard constraint active over a token range.
struct ActiveGuard {
  GuardIR guard;
  std::size_t until;  // token index the constraint stops dominating at
};

/// Parse `if (...)` conditions into `var < bound` facts.  Handles
/// conjunctions of `ID < EXPR` / `ID <= EXPR`; any top-level `||`
/// invalidates the whole condition.  Returns constraints for the guarded
/// region (the `{...}` block or single statement after the `)`).
std::vector<GuardIR> guards_from_condition(const std::vector<Token>& t,
                                           std::size_t open, std::size_t close) {
  std::vector<GuardIR> out;
  int depth = 0;
  std::size_t start = open + 1;
  std::vector<std::pair<std::size_t, std::size_t>> conjuncts;
  for (std::size_t q = open + 1; q <= close; ++q) {
    const bool at_end = q == close;
    if (!at_end) {
      if (is_punct(t[q], "(")) ++depth;
      if (is_punct(t[q], ")")) --depth;
      if (depth == 0 && is_punct(t[q], "||")) return {};  // unsound under ||
    }
    if (at_end || (depth == 0 && is_punct(t[q], "&&"))) {
      if (q > start) conjuncts.emplace_back(start, q);
      start = q + 1;
    }
  }
  for (const auto& [b, e] : conjuncts) {
    // ID < EXPR  |  ID <= EXPR
    if (e - b < 3 || !is_ident(t[b])) continue;
    if (!(is_punct(t[b + 1], "<") || is_punct(t[b + 1], "<="))) continue;
    GuardIR g;
    g.var = t[b].text;
    for (std::size_t r = b + 2; r < e; ++r) g.bound.push_back(t[r].text);
    if (is_punct(t[b + 1], "<=")) {
      g.bound.insert(g.bound.begin(), "(");
      g.bound.push_back(")");
      g.bound.push_back("+");
      g.bound.push_back("1");
    }
    if (!g.bound.empty()) out.push_back(std::move(g));
  }
  return out;
}

/// Parse early-exit guards: `if (ID >= EXPR) return;` (with or without
/// braces) yields `ID < EXPR` for the rest of the enclosing range.
std::vector<GuardIR> guards_from_early_exit(const std::vector<Token>& t,
                                            std::size_t open, std::size_t close) {
  // Condition must be exactly `ID >= EXPR`.
  if (close < open + 4 || !is_ident(t[open + 1]) || !is_punct(t[open + 2], ">=")) return {};
  // Statement after ')' must be return/continue (optionally braced).
  std::size_t s = close + 1;
  if (s < t.size() && is_punct(t[s], "{")) ++s;
  if (s >= t.size() || !is_ident(t[s]) ||
      (t[s].text != "return" && t[s].text != "continue")) {
    return {};
  }
  GuardIR g;
  g.var = t[open + 1].text;
  for (std::size_t r = open + 3; r < close; ++r) g.bound.push_back(t[r].text);
  if (g.bound.empty()) return {};
  return {g};
}

// --- body facts -------------------------------------------------------------

/// Collection target for one body walk (function or launch lambda).
struct BodyFacts {
  std::vector<AccessIR> accesses;
  std::vector<CallIR> calls;
  std::vector<ExtentIR> extents;
  std::set<std::string> taint_sources;
  std::set<std::string> return_idents;
};

/// Recognized extent-bearing container declarations.
/// `vector<T> name(E)`, `array<T, N> name`, `View2<..> name(E0, E1)`,
/// `RawView2<..> name(ptr, E0, E1)`, `DeviceBuffer<T> name(E)`.
void collect_extent(const std::vector<Token>& t, std::size_t j, std::size_t end,
                    BodyFacts& out) {
  const std::string& type = t[j].text;
  const bool is_vector = type == "vector";
  const bool is_array = type == "array";
  const bool is_view2 = type == "View2" || type == "RawView2";
  const bool is_devbuf = type == "DeviceBuffer";
  if (!is_vector && !is_array && !is_view2 && !is_devbuf) return;
  std::size_t k = j + 1;
  std::vector<std::vector<std::string>> targs;
  if (k < end && is_punct(t[k], "<")) {
    const std::size_t m = match_forward(t, k);
    if (m == kNpos || m >= end) return;
    targs = split_args(t, k, m);
    k = m + 1;
  }
  if (k >= end || !is_ident(t[k])) return;
  ExtentIR e;
  e.name = t[k].text;
  e.line = t[k].line;
  if (is_array) {
    // extent is the second template argument
    if (targs.size() != 2) return;
    e.dims.push_back(targs[1]);
    out.extents.push_back(std::move(e));
    return;
  }
  ++k;
  if (k >= end || !(is_punct(t[k], "(") || is_punct(t[k], "{"))) return;
  const std::size_t m = match_forward(t, k);
  if (m == kNpos || m > end) return;
  auto args = split_args(t, k, m);
  if (is_vector || is_devbuf) {
    // vector<T> v(n) or vector<T> v(n, fill): the first arg is the size.
    if (args.empty()) return;
    e.dims.push_back(args[0]);
  } else {  // View2 / RawView2
    if (t[j].text == "RawView2") {
      if (args.size() != 3) return;  // (ptr, n0, n1)
      e.dims.push_back(args[1]);
      e.dims.push_back(args[2]);
    } else {
      if (args.size() != 2) return;  // (n0, n1)
      e.dims.push_back(args[0]);
      e.dims.push_back(args[1]);
    }
  }
  out.extents.push_back(std::move(e));
}

/// Walk one body range and collect accesses (with dominating guards),
/// calls, extents, taint sources and return identifiers.
void collect_body(const FileUnit& u, std::size_t begin, std::size_t end,
                  const std::set<std::string>& unordered_names, BodyFacts& out) {
  const auto& t = u.lex.tokens;
  std::vector<ActiveGuard> guards;

  auto active_guards = [&](std::size_t at) {
    std::vector<GuardIR> gs;
    for (const ActiveGuard& a : guards) {
      if (at < a.until) gs.push_back(a.guard);
    }
    return gs;
  };

  for (std::size_t j = begin + 1; j < end; ++j) {
    // Guard recognition: if (...) ...
    if (is_ident(t[j]) && t[j].text == "if" && j + 1 < end && is_punct(t[j + 1], "(")) {
      const std::size_t close = match_forward(t, j + 1);
      if (close == kNpos || close >= end) continue;
      for (GuardIR& g : guards_from_early_exit(t, j + 1, close)) {
        guards.push_back({std::move(g), end});
      }
      auto conds = guards_from_condition(t, j + 1, close);
      if (!conds.empty() && close + 1 < end) {
        if (is_punct(t[close + 1], "{")) {
          const std::size_t bend = match_forward(t, close + 1);
          if (bend != kNpos && bend <= end) {
            for (GuardIR& g : conds) guards.push_back({std::move(g), bend});
          }
        } else {
          // Braceless form: the guard dominates the single statement up
          // to its terminating top-level ';'.
          std::size_t stop = close + 1;
          int d = 0;
          while (stop < end) {
            if (is_punct(t[stop], "(") || is_punct(t[stop], "[") || is_punct(t[stop], "{")) ++d;
            if (is_punct(t[stop], ")") || is_punct(t[stop], "]") || is_punct(t[stop], "}")) --d;
            if (d == 0 && is_punct(t[stop], ";")) break;
            ++stop;
          }
          for (GuardIR& g : conds) guards.push_back({std::move(g), stop});
        }
      }
      continue;
    }

    // return <expr>;
    if (is_ident(t[j]) && t[j].text == "return") {
      for (std::size_t q = j + 1; q < end && !is_punct(t[q], ";"); ++q) {
        if (is_ident(t[q])) out.return_idents.insert(t[q].text);
      }
      continue;
    }

    // Taint sources.
    if (is_ident(t[j])) {
      const bool member = j > 0 && (is_punct(t[j - 1], ".") || is_punct(t[j - 1], "->"));
      const bool scoped = j > 0 && is_punct(t[j - 1], "::");
      const bool call_like = j + 1 < end && is_punct(t[j + 1], "(");
      if ((t[j].text == "rand" || t[j].text == "srand") && !member && call_like) {
        out.taint_sources.insert("rand");
      } else if (t[j].text == "random_device" && !member) {
        out.taint_sources.insert("random_device");
      } else if (t[j].text == "now" && scoped && call_like) {
        out.taint_sources.insert("clock-now");
      } else if (t[j].text == "time" && !member && !scoped && call_like) {
        out.taint_sources.insert("time");
      } else if (t[j].text == "for" && call_like) {
        // Range-for over an unordered container: `for (auto& kv : m)`.
        const std::size_t close = match_forward(t, j + 1);
        if (close != kNpos && close < end) {
          int depth = 0;
          for (std::size_t q = j + 2; q < close; ++q) {
            if (is_punct(t[q], "(")) ++depth;
            if (is_punct(t[q], ")")) --depth;
            if (depth == 0 && is_punct(t[q], ":")) {
              for (std::size_t r = q + 1; r < close; ++r) {
                if (is_ident(t[r]) && unordered_names.count(t[r].text)) {
                  out.taint_sources.insert("unordered-iter");
                }
              }
              break;
            }
          }
        }
      }
    }

    // Extent declarations.
    if (is_ident(t[j])) collect_extent(t, j, end, out);

    // Deref store: *p = v;
    if (is_punct(t[j], "*") && j + 2 < end && is_ident(t[j + 1]) &&
        t[j + 2].kind == Tok::kPunct && assign_ops().count(t[j + 2].text)) {
      const Token& before = j > begin + 1 ? t[j - 1] : t[begin];
      const bool mult = is_ident(before) || is_punct(before, ")") || is_punct(before, "]") ||
                        before.kind == Tok::kNumber;
      if (!mult) {
        AccessIR a;
        a.base = t[j + 1].text;
        a.is_store = true;
        a.is_deref = true;
        a.line = t[j + 1].line;
        a.excerpt = excerpt_at(u, a.line);
        a.guards = active_guards(j);
        for (std::size_t q = j + 3; q < end && !is_punct(t[q], ";"); ++q) {
          if (is_ident(t[q])) a.rhs_idents.push_back(t[q].text);
        }
        out.accesses.push_back(std::move(a));
        continue;
      }
    }

    // Prefix increment/decrement: ++x / --x.
    if ((is_punct(t[j], "++") || is_punct(t[j], "--")) && j + 1 < end && is_ident(t[j + 1]) &&
        !(j + 2 < end && (is_punct(t[j + 2], ".") || is_punct(t[j + 2], "->")))) {
      AccessIR a;
      a.base = t[j + 1].text;
      a.is_store = true;
      a.line = t[j].line;
      a.excerpt = excerpt_at(u, a.line);
      a.guards = active_guards(j);
      out.accesses.push_back(std::move(a));
      continue;
    }

    if (!is_ident(t[j]) || non_callees().count(t[j].text)) continue;
    const Token& prev = t[j - 1];
    if (is_punct(prev, ".") || is_punct(prev, "->")) continue;  // member access
    const std::string& name = t[j].text;

    // Postfix ++/-- and direct/compound assignment: name = v, name += v.
    if (j + 1 < end && t[j + 1].kind == Tok::kPunct &&
        (assign_ops().count(t[j + 1].text) || t[j + 1].text == "++" || t[j + 1].text == "--")) {
      // Skip declaration sites (`int x = 0`): preceded by a type-ish token.
      const bool decl_site = is_ident(prev) || is_punct(prev, ">") || is_punct(prev, "*") ||
                             is_punct(prev, "&") || is_punct(prev, "&&");
      if (!decl_site && !is_punct(t[j + 1], "==")) {
        AccessIR a;
        a.base = name;
        a.is_store = true;
        a.line = t[j].line;
        a.excerpt = excerpt_at(u, a.line);
        a.guards = active_guards(j);
        if (assign_ops().count(t[j + 1].text)) {
          for (std::size_t q = j + 2; q < end && !is_punct(t[q], ";"); ++q) {
            if (is_ident(t[q])) a.rhs_idents.push_back(t[q].text);
          }
        }
        out.accesses.push_back(std::move(a));
      }
      continue;
    }

    // Indexed access chains and calls: name(...)... / name[...]...
    if (j + 1 < end && (is_punct(t[j + 1], "(") || is_punct(t[j + 1], "["))) {
      // `std::vector<Acc> buf(kc)` / `int buf[4]`: a constructor or
      // array declarator (type-ish token before the name), not an
      // access.  The declaration is still picked up as an extent fact.
      if ((is_ident(prev) && non_callees().count(prev.text) == 0) || is_punct(prev, ">")) {
        continue;
      }
      const bool paren_first = is_punct(t[j + 1], "(");
      std::size_t k = j + 1;
      std::vector<std::vector<std::vector<std::string>>> groups;  // per group: args
      std::size_t first_close = kNpos;
      while (k < end && (is_punct(t[k], "(") || is_punct(t[k], "["))) {
        const std::size_t m = match_forward(t, k);
        if (m == kNpos || m > end) break;
        groups.push_back(split_args(t, k, m));
        if (first_close == kNpos) first_close = m;
        k = m + 1;
      }
      if (groups.empty()) continue;
      const bool stored = k < end && t[k].kind == Tok::kPunct && assign_ops().count(t[k].text);

      // A single paren group not written through is call-shaped: record
      // a CallIR (the call graph ignores names that resolve to nothing).
      if (paren_first && groups.size() == 1 && !stored) {
        CallIR c;
        c.callee = name;
        c.args = groups[0];
        c.line = t[j].line;
        c.excerpt = excerpt_at(u, c.line);
        out.calls.push_back(std::move(c));
      }

      // Any indexed group is also an access the bounds pass can check.
      AccessIR a;
      a.base = name;
      a.via_paren = paren_first;
      a.is_store = stored;
      a.line = t[j].line;
      a.excerpt = excerpt_at(u, a.line);
      a.guards = active_guards(j);
      for (auto& g : groups) {
        for (auto& idx : g) a.indices.push_back(idx);
      }
      if (stored) {
        for (std::size_t q = k + 1; q < end && !is_punct(t[q], ";"); ++q) {
          if (is_ident(t[q])) a.rhs_idents.push_back(t[q].text);
        }
      }
      out.accesses.push_back(std::move(a));
      j = k > j ? k - 1 : j;
    }
  }
}

// --- function discovery -----------------------------------------------------

struct FuncSpan {
  FunctionIR ir;
  std::size_t body_begin;
  std::size_t body_end;
};

/// Parse the parameter list in (open, close) into ParamIR entries.
std::vector<ParamIR> parse_params(const std::vector<Token>& t, std::size_t open,
                                  std::size_t close) {
  std::vector<ParamIR> out;
  for (const auto& item : split_args(t, open, close)) {
    if (item.empty()) continue;
    ParamIR p;
    bool has_const = false;
    bool has_ref = false;
    std::size_t eq = item.size();
    for (std::size_t q = 0; q < item.size(); ++q) {
      if (item[q] == "=") {
        eq = q;
        break;
      }
      if (item[q] == "const") has_const = true;
      if (item[q] == "&" || item[q] == "*" || item[q] == "&&") has_ref = true;
      if (item[q] == "atomic") p.is_atomic = true;
    }
    // Name: last identifier before any default argument.
    for (std::size_t q = eq; q > 0; --q) {
      const std::string& s = item[q - 1];
      if (!s.empty() && (std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
        p.name = s;
        break;
      }
    }
    if (p.name.empty() || p.name == "void") continue;
    p.writable = has_ref && !has_const;
    out.push_back(std::move(p));
  }
  return out;
}

/// Discover function definitions: `NAME(params) [specifiers] { body }`
/// where NAME is preceded by a type-ish token.  Constructor member-init
/// lists are tolerated; misparses simply drop the function from the IR.
std::vector<FuncSpan> find_functions(const FileUnit& u,
                                     const std::set<std::string>& unordered_names) {
  const auto& t = u.lex.tokens;
  std::vector<FuncSpan> out;
  for (std::size_t j = 1; j + 1 < t.size(); ++j) {
    if (!is_ident(t[j]) || non_callees().count(t[j].text)) continue;
    if (!is_punct(t[j + 1], "(")) continue;
    const Token& prev = t[j - 1];
    const bool type_before = is_ident(prev) || is_punct(prev, ">") || is_punct(prev, "*") ||
                             is_punct(prev, "&") || is_punct(prev, "&&") ||
                             is_punct(prev, "::") || is_punct(prev, "~");
    if (!type_before) continue;
    if (is_ident(prev) && non_callees().count(prev.text)) continue;
    const std::size_t close = match_forward(t, j + 1);
    if (close == kNpos) continue;

    // Skip specifiers / trailing return / constructor init list to the
    // body '{'.  Inside an init list, `a_{0}` / `a_(0)` braces and
    // parens are initializers, not the body: a '{' preceded by an
    // identifier while in_init is skipped over.
    std::size_t k = close + 1;
    bool in_init = false;
    bool ok = true;
    while (k < t.size()) {
      if (is_punct(t[k], "{")) {
        if (in_init && is_ident(t[k - 1])) {
          const std::size_t m = match_forward(t, k);
          if (m == kNpos) {
            ok = false;
            break;
          }
          k = m + 1;
          continue;
        }
        break;  // the body
      }
      if (is_punct(t[k], "(")) {
        const std::size_t m = match_forward(t, k);
        if (m == kNpos) {
          ok = false;
          break;
        }
        k = m + 1;
        continue;
      }
      if (is_punct(t[k], ":")) in_init = true;
      if (is_punct(t[k], ";") || is_punct(t[k], ")") || is_punct(t[k], "=") ||
          (is_punct(t[k], ",") && !in_init)) {
        ok = false;
        break;
      }
      ++k;
    }
    if (!ok || k >= t.size() || !is_punct(t[k], "{")) continue;
    const std::size_t bend = match_forward(t, k);
    if (bend == kNpos) continue;

    FuncSpan fs;
    fs.ir.name = t[j].text;
    fs.ir.line = t[j].line;
    fs.ir.params = parse_params(t, j + 1, close);
    fs.body_begin = k;
    fs.body_end = bend;
    fs.ir.locals = body_local_names(t, k, bend);
    for (const ParamIR& p : fs.ir.params) fs.ir.locals.insert(p.name);
    BodyFacts facts;
    collect_body(u, k, bend, unordered_names, facts);
    fs.ir.accesses = std::move(facts.accesses);
    fs.ir.calls = std::move(facts.calls);
    fs.ir.extents = std::move(facts.extents);
    fs.ir.taint_sources = std::move(facts.taint_sources);
    fs.ir.return_idents = std::move(facts.return_idents);
    out.push_back(std::move(fs));
    j = bend;
  }
  return out;
}

// --- ordering sites ---------------------------------------------------------

/// File-wide atomic-ordering scan — the exact site set the token-level
/// mo rules used before portaflow, plus enclosing-function attribution.
void collect_orders(const FileUnit& u, const std::vector<FuncSpan>& funcs,
                    FileIR& out) {
  const auto& t = u.lex.tokens;
  const auto atomics = atomic_var_names(t);

  auto enclosing = [&](std::size_t tok_index) -> const FuncSpan* {
    for (const FuncSpan& f : funcs) {
      if (tok_index > f.body_begin && tok_index < f.body_end) return &f;
    }
    return nullptr;
  };

  auto attribute = [&](OrderIR& o, std::size_t tok_index) {
    if (const FuncSpan* f = enclosing(tok_index)) {
      o.enclosing = f->ir.name;
      const int pi = f->ir.param_index(o.var);
      if (pi >= 0) {
        o.is_param = true;
        o.param_index = pi;
      }
    }
  };

  for (std::size_t j = 1; j + 1 < t.size(); ++j) {
    if (is_ident(t[j]) && atomic_member_ops().count(t[j].text) &&
        (is_punct(t[j - 1], ".") || is_punct(t[j - 1], "->")) && is_punct(t[j + 1], "(")) {
      const std::size_t close = match_forward(t, j + 1);
      if (close == kNpos) continue;
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
      // load/store need atomic evidence (see rules.cpp commentary): an
      // explicit memory_order, a receiver declared std::atomic in this
      // TU, or a receiver that is a std::atomic& parameter.
      bool param_atomic = false;
      if (const FuncSpan* f = enclosing(j)) {
        const int pi = f->ir.param_index(var);
        if (pi >= 0) param_atomic = f->ir.params[static_cast<std::size_t>(pi)].is_atomic;
      }
      const bool token_evidence =
          !(t[j].text == "load" || t[j].text == "store") || !orders.empty() ||
          atomics.count(var) > 0;
      if (!token_evidence && !param_atomic) continue;
      OrderIR o;
      o.var = var;
      o.op = t[j].text;
      o.has_explicit_order = !orders.empty();
      o.line = t[j].line;
      o.excerpt = excerpt_at(u, o.line);
      const bool is_load = o.op == "load";
      const bool is_store = o.op == "store";
      if (orders.empty()) {  // implicit seq_cst
        o.acq = !is_store;
        o.rel = !is_load;
      }
      for (const std::string& ord : orders) {
        const bool strong = ord == "seq_cst" || ord == "acq_rel";
        if (!is_store && (ord == "acquire" || ord == "consume" || strong)) o.acq = true;
        if (!is_load && (ord == "release" || strong)) o.rel = true;
      }
      attribute(o, j);
      out.orders.push_back(std::move(o));
      continue;
    }

    // Operator forms on locally-declared atomics: ++x, x++, x += 1, x = v.
    if (is_ident(t[j]) && atomics.count(t[j].text)) {
      const Token& prev = t[j - 1];
      const Token& next = t[j + 1];
      const bool decl_site = is_ident(prev) || is_punct(prev, ">");
      const bool member = is_punct(prev, ".") || is_punct(prev, "->") || is_punct(prev, "::");
      static const std::set<std::string> kAtomicAssign = {
          "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=", "++", "--",
      };
      const bool op_next = next.kind == Tok::kPunct && kAtomicAssign.count(next.text);
      const bool op_prev = is_punct(prev, "++") || is_punct(prev, "--");
      if (!decl_site && !member && (op_next || op_prev)) {
        OrderIR o;
        o.var = t[j].text;
        o.op = op_prev ? prev.text : next.text;
        o.operator_form = true;
        o.acq = true;
        o.rel = true;
        o.line = t[j].line;
        o.excerpt = excerpt_at(u, o.line);
        attribute(o, j);
        out.orders.push_back(std::move(o));
      }
    }
  }
}

// --- launch lowering --------------------------------------------------------

/// Grid-index helper members whose results are lane-varying.
const std::set<std::string>& lane_helpers() {
  static const std::set<std::string> kHelpers = {
      "numba_grid2", "global_x", "global_y", "global_z", "lane_in_block",
      "global_id",
  };
  return kHelpers;
}

/// Multiply two dim expressions into one token vector: (a) * (b).
std::vector<std::string> dim_product(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  std::vector<std::string> out;
  out.push_back("(");
  out.insert(out.end(), a.begin(), a.end());
  out.push_back(")");
  out.push_back("*");
  out.push_back("(");
  out.insert(out.end(), b.begin(), b.end());
  out.push_back(")");
  return out;
}

void lower_launch(const FileUnit& u, const DispatchSite& site,
                  std::vector<FuncSpan>& funcs,
                  const std::set<std::string>& unordered_names, FileIR& out) {
  const auto& t = u.lex.tokens;
  const LambdaInfo& l = site.lambda;
  LaunchIR lr;
  lr.call = l.call;
  lr.line = l.line;
  lr.serialized = site.serialized;
  lr.cap_default = l.cap_default;
  lr.ref_caps = l.ref_caps;
  lr.val_caps = l.val_caps;
  lr.params = l.params;
  lr.locals = body_local_names(t, l.body_begin, l.body_end);
  for (const std::string& p : l.params) lr.locals.insert(p);

  for (const FuncSpan& f : funcs) {
    if (l.body_begin > f.body_begin && l.body_end < f.body_end) {
      lr.enclosing_function = f.ir.name;
      break;
    }
  }

  // Lane names and bounds.
  // parallel_for(space, RangePolicy{b, e}, [..](i) {..}): param i < e.
  // launch(ctx, {gx,..}, {bx,..}, [..](tc) {..}): grid/block products.
  std::vector<std::vector<std::string>> grid_dims;
  std::vector<std::vector<std::string>> block_dims;
  if (l.call == "parallel_for" || l.call == "parallel_reduce" || l.call == "parallel_scan") {
    for (const std::string& p : l.params) lr.lane_names.insert(p);
    // Find the RangePolicy argument: RangePolicy {|( B , E )|}.
    for (const auto& arg : site.leading_args) {
      for (std::size_t q = 0; q + 1 < arg.size(); ++q) {
        if (arg[q] == "RangePolicy" && (arg[q + 1] == "{" || arg[q + 1] == "(")) {
          // Split the interior on the top-level comma.
          int depth = 0;
          std::size_t comma = 0;
          for (std::size_t r = q + 2; r + 1 < arg.size(); ++r) {
            if (arg[r] == "(" || arg[r] == "{" || arg[r] == "[") ++depth;
            if (arg[r] == ")" || arg[r] == "}" || arg[r] == "]") --depth;
            if (depth == 0 && arg[r] == ",") {
              comma = r;
              break;
            }
          }
          if (comma != 0 && q + 2 < comma && arg[q + 2] == "0" && comma - (q + 2) == 1 &&
              !l.params.empty()) {
            // Begin is literal 0: the sole lane param is < end.
            std::vector<std::string> end_expr(arg.begin() + static_cast<long>(comma) + 1,
                                              arg.end() - 1);
            if (!end_expr.empty()) lr.lane_bounds.emplace_back(l.params[0], end_expr);
          }
        }
      }
    }
  } else if (l.call == "launch" || l.call == "launch_blocks") {
    // Leading args: (engine/ctx, grid, block[, shared]).  Dims given as
    // brace lists of 1-3 expressions; bare identifiers are opaque.
    std::vector<std::vector<std::vector<std::string>>> dim_args;
    for (const auto& arg : site.leading_args) {
      if (arg.size() >= 2 && arg.front() == "{" && arg.back() == "}") {
        std::vector<std::vector<std::string>> dims;
        std::vector<std::string> cur;
        int depth = 0;
        for (std::size_t q = 1; q + 1 < arg.size(); ++q) {
          if (arg[q] == "(" || arg[q] == "{" || arg[q] == "[") ++depth;
          if (arg[q] == ")" || arg[q] == "}" || arg[q] == "]") --depth;
          if (depth == 0 && arg[q] == ",") {
            dims.push_back(cur);
            cur.clear();
          } else {
            cur.push_back(arg[q]);
          }
        }
        if (!cur.empty()) dims.push_back(cur);
        dim_args.push_back(std::move(dims));
      }
    }
    if (dim_args.size() >= 2) {
      grid_dims = dim_args[0];
      block_dims = dim_args[1];
    }
  }

  // Structured bindings from grid helpers: auto [i, j] = tc.numba_grid2();
  // and scalar forms: const auto i = tc.global_x();
  for (std::size_t j = l.body_begin + 1; j + 1 < l.body_end; ++j) {
    if (!is_ident(t[j]) || !lane_helpers().count(t[j].text)) continue;
    if (!(is_punct(t[j - 1], ".") || is_punct(t[j - 1], "->"))) continue;
    // Walk back over `= receiver.` to the declared name(s).
    std::size_t q = j - 2;           // receiver ident
    if (q == 0 || !is_ident(t[q])) continue;
    if (q < 2 || !is_punct(t[q - 1], "=")) continue;
    const std::size_t lhs = q - 2;  // last token of the LHS
    const std::string& helper = t[j].text;
    auto dim_bound = [&](std::size_t axis) -> std::vector<std::string> {
      if (axis < grid_dims.size() && axis < block_dims.size()) {
        return dim_product(grid_dims[axis], block_dims[axis]);
      }
      return {};
    };
    if (is_punct(t[lhs], "]")) {
      // auto [i, j] = tc.numba_grid2(): i <- axis x, j <- axis y.
      std::size_t open = lhs;
      int depth = 0;
      while (open > l.body_begin) {
        if (is_punct(t[open], "]")) ++depth;
        if (is_punct(t[open], "[") && --depth == 0) break;
        --open;
      }
      std::vector<std::string> names;
      for (std::size_t r = open + 1; r < lhs; ++r) {
        if (is_ident(t[r])) names.push_back(t[r].text);
      }
      if (helper == "numba_grid2" && names.size() == 2) {
        lr.lane_names.insert(names[0]);
        lr.lane_names.insert(names[1]);
        auto bx = dim_bound(0);
        auto by = dim_bound(1);
        if (!bx.empty()) lr.lane_bounds.emplace_back(names[0], bx);
        if (!by.empty()) lr.lane_bounds.emplace_back(names[1], by);
      }
    } else if (is_ident(t[lhs])) {
      lr.lane_names.insert(t[lhs].text);
      std::size_t axis = 3;
      if (helper == "global_x") axis = 0;
      if (helper == "global_y") axis = 1;
      if (helper == "global_z") axis = 2;
      if (axis < 3) {
        auto b = dim_bound(axis);
        if (!b.empty()) lr.lane_bounds.emplace_back(t[lhs].text, b);
      }
    }
  }

  BodyFacts facts;
  collect_body(u, l.body_begin, l.body_end, unordered_names, facts);
  lr.accesses = std::move(facts.accesses);
  lr.calls = std::move(facts.calls);
  for (ExtentIR& e : facts.extents) {
    // Extents declared inside the body belong to the enclosing function
    // scope for lookup purposes; attach them to the launch's function.
    for (FuncSpan& f : funcs) {
      if (f.ir.name == lr.enclosing_function) {
        f.ir.extents.push_back(e);
        break;
      }
    }
  }
  out.launches.push_back(std::move(lr));
}

/// Names declared as unordered containers anywhere in the file (for the
/// unordered-iter taint source).
std::set<std::string> unordered_container_names(const std::vector<Token>& t) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
  };
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
  return names;
}

}  // namespace

bool LaunchIR::captures_by_ref(const std::string& name) const {
  if (std::find(ref_caps.begin(), ref_caps.end(), name) != ref_caps.end()) return true;
  if (cap_default == '&' &&
      std::find(val_caps.begin(), val_caps.end(), name) == val_caps.end()) {
    return true;
  }
  return false;
}

bool LaunchIR::captures_by_value(const std::string& name) const {
  if (std::find(val_caps.begin(), val_caps.end(), name) != val_caps.end()) return true;
  if (cap_default == '=' &&
      std::find(ref_caps.begin(), ref_caps.end(), name) == ref_caps.end()) {
    return true;
  }
  return false;
}

FileIR build_ir(const FileUnit& u) {
  FileIR out;
  out.rel = u.rel;
  const auto& t = u.lex.tokens;
  out.atomics = atomic_var_names(t);
  const auto unordered_names = unordered_container_names(t);

  std::vector<FuncSpan> funcs = find_functions(u, unordered_names);
  for (const DispatchSite& site : find_dispatch_sites(t)) {
    lower_launch(u, site, funcs, unordered_names, out);
  }
  // Queue/stream ops lower through the same path but land in the
  // serialized launch class (see LaunchIR::serialized).
  for (const DispatchSite& site : find_queue_sites(t)) {
    lower_launch(u, site, funcs, unordered_names, out);
  }
  collect_orders(u, funcs, out);
  for (FuncSpan& f : funcs) out.functions.push_back(std::move(f.ir));
  return out;
}

}  // namespace portalint
