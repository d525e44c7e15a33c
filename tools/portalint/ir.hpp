// portaflow IR: a small typed intermediate representation lowered from
// the token stream, one FileIR per translation unit.  It captures the
// facts the interprocedural flow passes (flow.hpp) reason about —
// functions with their parameters and writes, call sites with argument
// expressions, lambda bodies bound to their parallel_for/launch/enqueue
// launch sites, atomic-ordering operations, extent declarations, and
// determinism taint sources — and nothing else.  Everything is stored
// as plain strings/ints so a FileIR can round-trip through the
// incremental analysis cache (cache.hpp) without re-lexing the file.
//
// Like the token-stream heuristics in analysis.hpp, lowering is
// deliberately asymmetric: constructs it cannot classify are simply not
// represented, so the flow passes stay quiet rather than noisy.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "model.hpp"

namespace portalint {

/// A dominating range constraint on an identifier, recorded from guard
/// patterns (`if (i < n) { ... }`, `if (i >= n) return;`) while walking
/// a body.  Always means `var < bound` at the guarded access.
struct GuardIR {
  std::string var;
  std::vector<std::string> bound;  // token texts of the exclusive bound
};

/// A store or indexed load: `base[i*n+j] = v`, `view(i, j) = v`,
/// `acc += v`, `*p = v`, `++count`.
struct AccessIR {
  std::string base;    // the accessed identifier
  bool is_store = false;
  bool via_paren = false;  // base(...) rather than base[...]
  bool is_deref = false;   // *base = ... (counts as a direct store)
  /// One entry per index group, each the flattened token texts of the
  /// expression inside the (...)/[...].  Empty for direct writes.
  std::vector<std::vector<std::string>> indices;
  /// Identifiers appearing on the right-hand side of a store.
  std::vector<std::string> rhs_idents;
  /// Guards dominating this access (innermost last).
  std::vector<GuardIR> guards;
  int line = 0;
  std::string excerpt;
};

/// A call to a named free function: `helper(a, b)`, `ns::helper(x)`.
/// Member calls (`obj.method(...)`) are not represented.
struct CallIR {
  std::string callee;  // unqualified name
  /// Flattened token texts per top-level argument.
  std::vector<std::vector<std::string>> args;
  int line = 0;
  std::string excerpt;
};

/// An atomic-ordering operation: `x.load(acquire)`, `flag.store(1,
/// release)`, `count.fetch_add(1, relaxed)`, or an operator form on a
/// declared atomic (`++hits`).  `acq`/`rel` reflect the side the op
/// counts on for happens-before pairing (seq_cst/acq_rel on both,
/// relaxed on neither); both false means the op was seen but orders
/// nothing (still relevant for mo-explicit).  Sites are collected over
/// the whole file — exactly the set the token-level scan found before
/// portaflow existed — and then attributed to their enclosing function
/// so the ordering pass can resolve parameter receivers through the
/// call graph.
struct OrderIR {
  std::string var;  // receiver identifier ("" if not recoverable)
  std::string op;   // "load", "store", "fetch_add", "++", "+=", ...
  bool acq = false;
  bool rel = false;
  bool has_explicit_order = false;
  bool operator_form = false;   // ++x / x += 1 on a declared atomic
  std::string enclosing;        // enclosing function name, "" at file scope
  bool is_param = false;        // receiver is a parameter of `enclosing`
  int param_index = -1;         // index into that function's params
  int line = 0;
  std::string excerpt;
};

/// A recognized extent declaration binding a name to symbolic dims:
/// `std::vector<double> C(n * n)`, `RawView2<float> a(p, n, m)`,
/// `View2<double> b(n, m)`, `std::array<int, 16> s`.
struct ExtentIR {
  std::string name;
  /// One entry per dimension, each the flattened token texts of the
  /// extent expression (exclusive upper bound on that index).
  std::vector<std::vector<std::string>> dims;
  int line = 0;
};

/// One parameter of a function.
struct ParamIR {
  std::string name;
  bool writable = false;  // T& / T* with no const in the declarator
  bool is_atomic = false; // std::atomic<...>& — writes through it are safe
};

/// A free function (or method — linking is by unqualified name) with a
/// body in this translation unit.
struct FunctionIR {
  std::string name;
  int line = 0;
  std::vector<ParamIR> params;
  std::set<std::string> locals;  // body-declared names (incl. structured bindings)
  std::vector<AccessIR> accesses;
  std::vector<CallIR> calls;
  std::vector<ExtentIR> extents;
  /// Determinism taint sources used directly in the body: "rand",
  /// "srand", "random_device", "clock-now", "time", "unordered-iter".
  std::set<std::string> taint_sources;
  /// Identifiers appearing in return expressions (taint propagation).
  std::set<std::string> return_idents;

  [[nodiscard]] int param_index(const std::string& n) const {
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (params[i].name == n) return static_cast<int>(i);
    }
    return -1;
  }
};

/// A lambda bound to a parallel-dispatch or kernel launch site, with
/// the body facts the flow passes need.
struct LaunchIR {
  std::string call;  // parallel_for / launch / launch_blocks / run / ...
  int line = 0;      // line of the '[' capture introducer
  char cap_default = 0;
  std::vector<std::string> ref_caps;
  std::vector<std::string> val_caps;
  std::vector<std::string> params;
  std::set<std::string> locals;
  /// Lane-varying names: lambda params, structured bindings from
  /// numba_grid2(), and locals assigned from global_x/y/z()/lane ids.
  std::set<std::string> lane_names;
  /// Exclusive symbolic upper bound per lane name (token texts), when
  /// derivable from the launch site (RangePolicy extent, grid x block).
  /// Missing entry: range unknown — only guards can bound the name.
  std::vector<std::pair<std::string, std::vector<std::string>>> lane_bounds;
  std::vector<AccessIR> accesses;
  std::vector<CallIR> calls;
  std::string enclosing_function;  // "" at namespace scope
  /// True for the serialized launch class (Stream::enqueue ops, the
  /// copy_async family, pipeline stage callbacks): the body runs on one
  /// queue worker in stream order, so there are no lanes to race and
  /// the lane-safety passes skip it.  Determinism and ordering passes
  /// still see its calls.
  bool serialized = false;

  [[nodiscard]] bool captures_by_ref(const std::string& name) const;
  [[nodiscard]] bool captures_by_value(const std::string& name) const;
};

/// The per-file IR.  `rel` mirrors FileUnit::rel so cached IRs can be
/// re-associated with their units.
struct FileIR {
  std::string rel;
  std::vector<FunctionIR> functions;
  std::vector<LaunchIR> launches;
  /// Every atomic-ordering site in the file (see OrderIR).
  std::vector<OrderIR> orders;
  /// Names declared std::atomic<...>/atomic_flag anywhere in the file.
  std::set<std::string> atomics;
};

/// Lower one lexed file.  Never fails: unrecognized constructs are
/// simply absent from the IR.
[[nodiscard]] FileIR build_ir(const FileUnit& u);

}  // namespace portalint
