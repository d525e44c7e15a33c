// Token-stream analyses shared by the rule implementations: balanced
// bracket matching, dispatch-lambda extraction, and heuristic collection
// of declared names (locals, atomics, raw pointers).
//
// The heuristics are deliberately asymmetric: when classification is
// ambiguous they err toward treating a name as locally-owned / benign,
// so rules stay quiet rather than noisy.  Known-bad patterns are pinned
// by the fixture corpus in tests/portalint/fixtures/.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace portalint {

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Index of the token matching the opener at `open` ('(', '[', '{' or
/// '<'), or kNpos if unbalanced.
[[nodiscard]] std::size_t match_forward(const std::vector<Token>& t, std::size_t open);

/// A lambda passed as a direct argument to a parallel-dispatch or kernel
/// launch call (parallel_for, parallel_reduce, launch, pool.run, ...).
struct LambdaInfo {
  std::string call;  // the dispatch call's identifier
  int line = 0;      // line of the '[' capture introducer
  char cap_default = 0;  // '&', '=' or 0
  std::vector<std::string> ref_caps;
  std::vector<std::string> val_caps;
  std::vector<std::string> params;
  std::size_t body_begin = kNpos;  // token index of '{'
  std::size_t body_end = kNpos;    // token index of matching '}'
};

/// All lambdas appearing as direct arguments of calls in the dispatch
/// call-name set.  Named lambdas bound to variables first are not traced.
[[nodiscard]] std::vector<LambdaInfo> find_dispatch_lambdas(const std::vector<Token>& t);

/// A dispatch call site together with the arguments preceding its lambda
/// (execution space, RangePolicy, grid/block dims, ...), which the
/// portaflow bounds pass reads launch extents from.
struct DispatchSite {
  LambdaInfo lambda;
  /// Flattened token texts per top-level argument before the lambda.
  std::vector<std::vector<std::string>> leading_args;
  /// True for queue/stream entry points (enqueue, copy_*_async,
  /// run_sharded_pipeline, ...): the lambda executes serialized in stream order
  /// rather than as parallel lanes.
  bool serialized = false;
};

/// Like find_dispatch_lambdas, but keeps the leading call arguments.
[[nodiscard]] std::vector<DispatchSite> find_dispatch_sites(const std::vector<Token>& t);

/// Lambdas passed to queue/stream entry points (Stream::enqueue, the
/// copy_async family, the pipeline drivers).  Same scan as
/// find_dispatch_sites but over the serialized call-name set; sites
/// come back with `serialized = true`.
[[nodiscard]] std::vector<DispatchSite> find_queue_sites(const std::vector<Token>& t);

/// Heuristic set of names declared inside the token range (begin, end):
/// an identifier preceded by a type-ish token (identifier, '>', '*', '&',
/// '&&', ']') and followed by '=', '{', ';', ',', ')' or ':', plus every
/// name introduced by a structured binding (`auto [i, j] = ...`).
[[nodiscard]] std::set<std::string> body_local_names(const std::vector<Token>& t,
                                                     std::size_t begin, std::size_t end);

/// Names declared as std::atomic<...>/atomic_flag anywhere in the file.
[[nodiscard]] std::set<std::string> atomic_var_names(const std::vector<Token>& t);

/// Names declared as raw pointers (`T* p = ...`, `T* p;`, `T* p,`/`)`)
/// anywhere in the file — function locals and parameters alike.
[[nodiscard]] std::set<std::string> pointer_var_names(const std::vector<Token>& t);

/// True if the lambda captures `name` by reference ([&] default not
/// overridden by a by-value capture, or an explicit &name capture).
[[nodiscard]] bool captures_by_ref(const LambdaInfo& l, const std::string& name);

/// True if the lambda captures `name` by value ([=] default not
/// overridden by a by-reference capture, or an explicit value capture).
[[nodiscard]] bool captures_by_value(const LambdaInfo& l, const std::string& name);

}  // namespace portalint
