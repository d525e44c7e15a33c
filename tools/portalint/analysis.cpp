#include "analysis.hpp"

#include <algorithm>
#include <array>

namespace portalint {

namespace {

bool is_punct(const Token& tok, std::string_view text) {
  return tok.kind == Tok::kPunct && tok.text == text;
}

bool is_ident(const Token& tok) { return tok.kind == Tok::kIdent; }

/// Calls whose lambda arguments execute as parallel lanes / SIMT threads.
const std::set<std::string>& dispatch_calls() {
  static const std::set<std::string> kCalls = {
      "parallel_for", "parallel_reduce", "parallel_scan", "launch",
      "launch_blocks", "run", "run_auto", "run_inline", "work_steal_run",
      "checked_range_run",
  };
  return kCalls;
}

/// Calls whose lambda arguments execute *serialized*, in stream order,
/// on a single queue worker: gpusim stream ops and the pipeline stage
/// callbacks.  These bind host callbacks, not parallel lanes, so the
/// lane-safety rules treat them as a separate launch class.
const std::set<std::string>& queue_calls() {
  static const std::set<std::string> kCalls = {
      "enqueue",       "copy_async",          "copy_to_device_async",
      "copy_to_host_async", "peer_copy_async", "run_sharded_pipeline",
  };
  return kCalls;
}

char opener_close(const std::string& open) {
  if (open == "(") return ')';
  if (open == "[") return ']';
  if (open == "{") return '}';
  return '>';
}

/// Parse the lambda whose '[' introducer is at index `j`; returns kNpos
/// in body_begin on parse failure.
LambdaInfo parse_lambda(const std::vector<Token>& t, std::size_t j) {
  LambdaInfo l;
  l.line = t[j].line;
  const std::size_t cap_end = match_forward(t, j);
  if (cap_end == kNpos) return l;

  // Capture list: items separated by top-level commas.
  std::size_t item = j + 1;
  while (item < cap_end) {
    std::size_t stop = item;
    int depth = 0;
    while (stop < cap_end &&
           !(depth == 0 && is_punct(t[stop], ","))) {
      if (is_punct(t[stop], "(") || is_punct(t[stop], "[") || is_punct(t[stop], "{")) ++depth;
      if (is_punct(t[stop], ")") || is_punct(t[stop], "]") || is_punct(t[stop], "}")) --depth;
      ++stop;
    }
    if (stop > item) {
      if (stop == item + 1 && is_punct(t[item], "&")) {
        l.cap_default = '&';
      } else if (stop == item + 1 && is_punct(t[item], "=")) {
        l.cap_default = '=';
      } else if (is_punct(t[item], "&") && item + 1 < stop && is_ident(t[item + 1])) {
        l.ref_caps.push_back(t[item + 1].text);
      } else if (is_ident(t[item]) && t[item].text == "this") {
        l.ref_caps.push_back("this");
      } else if (is_punct(t[item], "*") && item + 1 < stop && t[item + 1].text == "this") {
        l.val_caps.push_back("this");
      } else if (is_ident(t[item])) {
        l.val_caps.push_back(t[item].text);  // value or init capture
      }
    }
    item = stop + 1;
  }

  // Optional parameter list.
  std::size_t k = cap_end + 1;
  if (k < t.size() && is_punct(t[k], "(")) {
    const std::size_t pend = match_forward(t, k);
    if (pend == kNpos) return l;
    std::size_t p = k + 1;
    while (p < pend) {
      std::size_t stop = p;
      int depth = 0;
      std::size_t eq = kNpos;
      while (stop < pend && !(depth == 0 && is_punct(t[stop], ","))) {
        if (is_punct(t[stop], "(") || is_punct(t[stop], "[") || is_punct(t[stop], "{") ||
            is_punct(t[stop], "<")) {
          ++depth;
        }
        if (is_punct(t[stop], ")") || is_punct(t[stop], "]") || is_punct(t[stop], "}") ||
            is_punct(t[stop], ">")) {
          --depth;
        }
        if (depth == 0 && eq == kNpos && is_punct(t[stop], "=")) eq = stop;
        ++stop;
      }
      // Parameter name: last identifier before the default-arg '=' (if any).
      const std::size_t name_end = eq == kNpos ? stop : eq;
      for (std::size_t q = name_end; q > p; --q) {
        if (is_ident(t[q - 1])) {
          l.params.push_back(t[q - 1].text);
          break;
        }
      }
      p = stop + 1;
    }
    k = pend + 1;
  }

  // Skip specifiers (mutable, noexcept(...), -> ret) up to the body '{'.
  while (k < t.size() && !is_punct(t[k], "{")) {
    if (is_punct(t[k], "(")) {
      const std::size_t m = match_forward(t, k);
      if (m == kNpos) return l;
      k = m + 1;
    } else if (is_punct(t[k], ";") || is_punct(t[k], ")") || is_punct(t[k], ",")) {
      return l;  // not a lambda with a body here (e.g. array subscript)
    } else {
      ++k;
    }
  }
  if (k >= t.size()) return l;
  const std::size_t bend = match_forward(t, k);
  if (bend == kNpos) return l;
  l.body_begin = k;
  l.body_end = bend;
  return l;
}

}  // namespace

std::size_t match_forward(const std::vector<Token>& t, std::size_t open) {
  if (open >= t.size() || t[open].kind != Tok::kPunct) return kNpos;
  const std::string& o = t[open].text;
  const char close = opener_close(o);
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tok::kPunct) continue;
    if (t[i].text == o) {
      ++depth;
    } else if (t[i].text.size() == 1 && t[i].text[0] == close) {
      if (--depth == 0) return i;
    }
  }
  return kNpos;
}

std::vector<LambdaInfo> find_dispatch_lambdas(const std::vector<Token>& t) {
  std::vector<LambdaInfo> out;
  for (DispatchSite& s : find_dispatch_sites(t)) out.push_back(std::move(s.lambda));
  return out;
}

namespace {

/// Shared scan body for the two launch classes: direct-lambda arguments
/// of calls in `calls`, tagged with `serialized`.
std::vector<DispatchSite> find_sites(const std::vector<Token>& t,
                                     const std::set<std::string>& calls,
                                     bool serialized) {
  std::vector<DispatchSite> out;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i]) || !calls.count(t[i].text)) continue;
    if (!is_punct(t[i + 1], "(")) continue;
    const std::size_t close = match_forward(t, i + 1);
    if (close == kNpos) continue;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!is_punct(t[j], "[")) continue;
      if (!(is_punct(t[j - 1], "(") || is_punct(t[j - 1], ","))) continue;
      LambdaInfo l = parse_lambda(t, j);
      if (l.body_begin == kNpos) continue;
      l.call = t[i].text;
      DispatchSite site;
      site.lambda = std::move(l);
      site.serialized = serialized;
      // Split the tokens between the call's '(' and the lambda's '['
      // into top-level argument groups.
      std::size_t arg_start = i + 2;
      int depth = 0;
      for (std::size_t q = i + 2; q < j; ++q) {
        if (is_punct(t[q], "(") || is_punct(t[q], "[") || is_punct(t[q], "{")) ++depth;
        if (is_punct(t[q], ")") || is_punct(t[q], "]") || is_punct(t[q], "}")) --depth;
        if (depth == 0 && is_punct(t[q], ",")) {
          std::vector<std::string> arg;
          for (std::size_t r = arg_start; r < q; ++r) arg.push_back(t[r].text);
          if (!arg.empty()) site.leading_args.push_back(std::move(arg));
          arg_start = q + 1;
        }
      }
      out.push_back(std::move(site));
      j = out.back().lambda.body_end;  // keep scanning for further lambda args
    }
  }
  return out;
}

}  // namespace

std::vector<DispatchSite> find_dispatch_sites(const std::vector<Token>& t) {
  return find_sites(t, dispatch_calls(), /*serialized=*/false);
}

std::vector<DispatchSite> find_queue_sites(const std::vector<Token>& t) {
  return find_sites(t, queue_calls(), /*serialized=*/true);
}

std::set<std::string> body_local_names(const std::vector<Token>& t,
                                       std::size_t begin, std::size_t end) {
  static const std::array<std::string_view, 6> kAfter = {"=", "{", ";", ",", ")", ":"};
  static const std::array<std::string_view, 5> kBeforePunct = {">", "*", "&", "&&", "]"};
  std::set<std::string> names;
  // Structured bindings: `auto [i, j] = ...` (with optional cv/ref between
  // `auto` and `[`) declare every identifier inside the bracket list.
  for (std::size_t j = begin + 1; j + 1 < end; ++j) {
    if (!is_punct(t[j], "[")) continue;
    std::size_t p = j;
    while (p > begin + 1 && (is_punct(t[p - 1], "&") || is_punct(t[p - 1], "&&"))) --p;
    if (p == begin + 1 || !is_ident(t[p - 1]) || t[p - 1].text != "auto") continue;
    const std::size_t close = match_forward(t, j);
    if (close == kNpos || close >= end) continue;
    for (std::size_t q = j + 1; q < close; ++q) {
      if (is_ident(t[q])) names.insert(t[q].text);
    }
  }
  for (std::size_t j = begin + 1; j + 1 < end; ++j) {
    if (!is_ident(t[j]) || j == begin + 1) continue;
    const Token& prev = t[j - 1];
    const Token& next = t[j + 1];
    const bool type_before =
        is_ident(prev) ||
        (prev.kind == Tok::kPunct &&
         std::find(kBeforePunct.begin(), kBeforePunct.end(), prev.text) !=
             kBeforePunct.end());
    if (!type_before) continue;
    const bool decl_after =
        next.kind == Tok::kPunct &&
        std::find(kAfter.begin(), kAfter.end(), next.text) != kAfter.end();
    if (decl_after) names.insert(t[j].text);
  }
  return names;
}

std::set<std::string> atomic_var_names(const std::vector<Token>& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    const std::string& s = t[i].text;
    if (s != "atomic" && s != "atomic_flag" && s != "atomic_bool" && s != "atomic_int" &&
        s != "atomic_uint" && s != "atomic_size_t") {
      continue;
    }
    std::size_t j = i + 1;
    if (j < t.size() && is_punct(t[j], "<")) {
      const std::size_t m = match_forward(t, j);
      if (m == kNpos) continue;
      j = m + 1;
    }
    if (j < t.size() && is_ident(t[j])) names.insert(t[j].text);
  }
  return names;
}

std::set<std::string> pointer_var_names(const std::vector<Token>& t) {
  std::set<std::string> names;
  for (std::size_t i = 1; i + 2 < t.size(); ++i) {
    if (!is_punct(t[i], "*")) continue;
    const Token& before = t[i - 1];
    const bool type_before =
        is_ident(before) || is_punct(before, ">") || is_punct(before, "*");
    if (!type_before) continue;
    if (!is_ident(t[i + 1])) continue;
    const Token& after = t[i + 2];
    if (after.kind == Tok::kPunct &&
        (after.text == "=" || after.text == ";" || after.text == "," || after.text == ")")) {
      names.insert(t[i + 1].text);
    }
  }
  return names;
}

bool captures_by_ref(const LambdaInfo& l, const std::string& name) {
  if (std::find(l.ref_caps.begin(), l.ref_caps.end(), name) != l.ref_caps.end()) return true;
  if (l.cap_default == '&' &&
      std::find(l.val_caps.begin(), l.val_caps.end(), name) == l.val_caps.end()) {
    return true;
  }
  return false;
}

bool captures_by_value(const LambdaInfo& l, const std::string& name) {
  if (std::find(l.val_caps.begin(), l.val_caps.end(), name) != l.val_caps.end()) return true;
  if (l.cap_default == '=' &&
      std::find(l.ref_caps.begin(), l.ref_caps.end(), name) == l.ref_caps.end()) {
    return true;
  }
  return false;
}

}  // namespace portalint
