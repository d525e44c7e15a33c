// portaflow pass 1: interprocedural lane-safety and ordering.
//
// fl-shared-write-escape — at every dispatch/launch lambda, calls that
// pass a by-reference-captured shared variable to a helper are checked
// against the helper's write-effect summary (callgraph.hpp).  A helper
// that writes the parameter directly, at a constant index, or at an
// index fed only by lane-invariant arguments races every lane on the
// same element — invisible to the token-level ls-* rules, which stop at
// the lambda body.
//
// fl-unpaired-ordering / mo-balance — every atomic-ordering site in the
// tree is grouped per variable.  Sites whose receiver is a
// std::atomic<>& parameter are resolved through the call graph to the
// caller's variable (transitively through forwarding helpers).  Groups
// containing at least one resolved site are judged under the
// fl-unpaired-ordering rule; purely name-matched groups report under
// the mo-balance id, which inline suppressions and baselines name.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "flow.hpp"
#include "rules.hpp"

namespace portalint {

namespace {

Finding make_flow(const FileUnit& u, int line, std::string rule, std::string family,
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

// --- fl-shared-write-escape --------------------------------------------------

/// Identifiers in the token group, in order.
std::vector<std::string> idents_of(const std::vector<std::string>& tokens) {
  std::vector<std::string> out;
  for (const std::string& tok : tokens) {
    if (!tok.empty() && (std::isalpha(static_cast<unsigned char>(tok[0])) || tok[0] == '_')) {
      out.push_back(tok);
    }
  }
  return out;
}

void check_launch_calls(const FlowContext& ctx, const FileUnit& u, const FileIR& ir,
                        const LaunchIR& l, std::vector<Finding>& out) {
  // Serialized queue ops (Stream::enqueue, copy_async, pipeline stages)
  // run one-at-a-time in stream order: handing a by-reference staging
  // buffer to a helper is the double-buffer handoff, not a lane race.
  if (l.serialized) return;
  for (const CallIR& c : l.calls) {
    const FunctionSummary* g = ctx.graph.resolve(c.callee);
    if (g == nullptr) continue;
    const std::size_t n = std::min(g->effects.size(), c.args.size());
    for (std::size_t ai = 0; ai < n; ++ai) {
      const ParamEffect& e = g->effects[ai];
      if (!e.any()) continue;

      // Shared receivers: by-ref captures that are not lambda-local and
      // not declared atomic in this TU.
      std::vector<std::string> shared;
      for (const std::string& id : idents_of(c.args[ai])) {
        if (!l.locals.count(id) && !ir.atomics.count(id) && l.captures_by_ref(id)) {
          shared.push_back(id);
        }
      }
      if (shared.empty()) continue;

      std::string how;
      if (e.direct_write) {
        how = "writes it directly";
      } else if (e.indexed_const) {
        how = "writes it at a constant index";
      } else if (!e.index_params.empty() && !e.indexed_internal) {
        // Indexed writes traceable to call arguments: safe only if some
        // index-feeding argument varies with the lane.
        bool lane_varying = false;
        for (int qi : e.index_params) {
          if (static_cast<std::size_t>(qi) >= c.args.size()) continue;
          for (const std::string& id : idents_of(c.args[static_cast<std::size_t>(qi)])) {
            if (l.lane_names.count(id) || l.locals.count(id)) lane_varying = true;
          }
        }
        if (lane_varying) continue;
        how = "writes it at an index that never varies with the lane";
      } else {
        continue;  // index depends on helper-internal state: stay quiet
      }

      for (const std::string& id : shared) {
        Finding f = make_flow(
            u, c.line, "fl-shared-write-escape", "lane-safety",
            "parallel lambda (" + l.call + ") passes by-reference capture '" + id +
                "' to '" + c.callee + "', which " + how +
                " non-atomically: every lane races on it (write escapes the lambda "
                "through the call)");
        RelatedSite site;
        site.unit = e.write_unit != nullptr ? e.write_unit : g->unit;
        site.line = e.write_line != 0 ? e.write_line : g->fn->line;
        site.note = "non-atomic write through parameter '" +
                    g->fn->params[ai].name + "' of '" + g->fn->name + "'";
        f.related.push_back(std::move(site));
        out.push_back(std::move(f));
      }
    }
  }
}

// --- fl-unpaired-ordering ----------------------------------------------------

struct OrdSite {
  const FileUnit* unit = nullptr;  // where the group sees the site
  int line = 0;
  bool acq = false;
  bool rel = false;
  bool resolved = false;           // attributed through a std::atomic& param
  const FileUnit* origin_unit = nullptr;  // helper-side site when resolved
  int origin_line = 0;
  std::string helper;              // helper function name when resolved
};

/// A concrete receiver a (function, param) pair resolves to.
struct Receiver {
  std::string name;
  const FileUnit* unit = nullptr;
  int line = 0;  // call-site line
};

class OrderingResolver {
 public:
  explicit OrderingResolver(const FlowContext& ctx) : ctx_(ctx) {}

  const std::vector<Receiver>& contexts(const FunctionSummary* f, int pi) {
    const Key key{f->fn, pi};
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    auto [slot, inserted] = memo_.emplace(key, std::vector<Receiver>());
    (void)inserted;
    if (!visiting_.insert(key).second) return slot->second;  // cycle
    std::vector<Receiver> result;
    for (std::size_t j = 0; j < ctx_.size(); ++j) {
      const FileUnit& u = ctx_.unit(j);
      if (scope_in_tests(u)) continue;
      const FileIR& ir = ctx_.ir(j);
      for (const FunctionIR& g : ir.functions) {
        collect(f, pi, g.calls, &g, u, result);
      }
      for (const LaunchIR& l : ir.launches) {
        collect(f, pi, l.calls, nullptr, u, result);
      }
    }
    visiting_.erase(key);
    // Re-find: recursion may have rehashed the map.
    auto& stored = memo_[key];
    stored = std::move(result);
    return stored;
  }

 private:
  using Key = std::pair<const FunctionIR*, int>;

  void collect(const FunctionSummary* f, int pi, const std::vector<CallIR>& calls,
               const FunctionIR* caller, const FileUnit& u, std::vector<Receiver>& out) {
    for (const CallIR& c : calls) {
      if (ctx_.graph.resolve(c.callee) != f) continue;
      if (static_cast<std::size_t>(pi) >= c.args.size()) continue;
      const auto ids = idents_of(c.args[static_cast<std::size_t>(pi)]);
      if (ids.size() != 1) continue;  // not a plain variable: stay quiet
      const std::string& n = ids.front();
      const int gi = caller != nullptr ? caller->param_index(n) : -1;
      if (gi >= 0) {
        // Forwarded through the caller's own parameter: resolve upward.
        const FunctionSummary* gsum = ctx_.graph.resolve(caller->name);
        if (gsum == nullptr || gsum->fn != caller) continue;
        for (const Receiver& r : contexts(gsum, gi)) out.push_back(r);
      } else {
        out.push_back({n, &u, c.line});
      }
    }
  }

  const FlowContext& ctx_;
  std::map<Key, std::vector<Receiver>> memo_;
  std::set<Key> visiting_;
};

void run_ordering(const FlowContext& ctx, std::vector<Finding>& out) {
  std::map<std::string, std::vector<OrdSite>> groups;
  OrderingResolver resolver(ctx);

  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const FileUnit& u = ctx.unit(i);
    if (scope_in_tests(u)) continue;
    for (const OrderIR& o : ctx.ir(i).orders) {
      if (o.var.empty() || (!o.acq && !o.rel)) continue;
      if (!o.is_param) {
        groups[o.var].push_back({&u, o.line, o.acq, o.rel, false, nullptr, 0, ""});
        continue;
      }
      const FunctionSummary* f = ctx.graph.resolve(o.enclosing);
      if (f == nullptr || f->unit != &u) continue;  // ambiguous: stay quiet
      for (const Receiver& r : resolver.contexts(f, o.param_index)) {
        groups[r.name].push_back(
            {r.unit, r.line, o.acq, o.rel, true, &u, o.line, o.enclosing});
      }
    }
  }

  for (const auto& [name, sites] : groups) {
    int acq = 0;
    int rel = 0;
    bool any_resolved = false;
    for (const OrdSite& s : sites) {
      acq += s.acq ? 1 : 0;
      rel += s.rel ? 1 : 0;
      any_resolved = any_resolved || s.resolved;
    }
    const bool acq_only = acq > 0 && rel == 0;
    const bool rel_only = rel > 0 && acq == 0;
    if (!acq_only && !rel_only) continue;
    const std::string rule = any_resolved ? "fl-unpaired-ordering" : "mo-balance";
    bool suppressed = false;
    for (const OrdSite& s : sites) {
      if (s.unit->find_suppression(s.line, rule) != nullptr ||
          (s.resolved && s.origin_unit->find_suppression(s.origin_line, rule) != nullptr)) {
        suppressed = true;
        break;
      }
    }
    if (suppressed) continue;
    const OrdSite& first = sites.front();

    if (!any_resolved) {
      // Name-matched only: no site was resolved through a helper.
      out.push_back(make_flow(
          *first.unit, first.line, "mo-balance", "concurrency",
          acq_only ? "atomic '" + name + "' has acquire-side loads but no " +
                         "release-side store anywhere in the scanned tree: the " +
                         "acquire synchronizes with nothing"
                   : "atomic '" + name + "' has release-side stores but no " +
                         "acquire-side load anywhere in the scanned tree: the " +
                         "release publishes to nobody"));
      continue;
    }
    Finding f = make_flow(
        *first.unit, first.line, "fl-unpaired-ordering", "concurrency",
        acq_only ? "atomic '" + name + "' has acquire-side operations (including " +
                       "sites resolved through std::atomic& helpers on the call " +
                       "graph) but no release-side store anywhere in the scanned " +
                       "tree: the acquire synchronizes with nothing"
                 : "atomic '" + name + "' has release-side operations (including " +
                       "sites resolved through std::atomic& helpers on the call " +
                       "graph) but no acquire-side load anywhere in the scanned " +
                       "tree: the release publishes to nobody");
    for (const OrdSite& s : sites) {
      if (&s == &first && !s.resolved) continue;
      RelatedSite site;
      if (s.resolved) {
        site.unit = s.origin_unit;
        site.line = s.origin_line;
        site.note = std::string(s.rel ? "release" : "acquire") +
                    "-side site inside helper '" + s.helper + "' (resolved to '" + name +
                    "' through its std::atomic& parameter)";
      } else {
        site.unit = s.unit;
        site.line = s.line;
        site.note = std::string(s.rel ? "release" : "acquire") + "-side site on '" +
                    name + "'";
      }
      f.related.push_back(std::move(site));
    }
    out.push_back(std::move(f));
  }
}

}  // namespace

void flow_shared_write_escape(const FlowContext& ctx, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const FileUnit& u = ctx.unit(i);
    const FileIR& ir = ctx.ir(i);
    for (const LaunchIR& l : ir.launches) {
      check_launch_calls(ctx, u, ir, l, out);
    }
  }
}

void flow_unpaired_ordering(const FlowContext& ctx, std::vector<Finding>& out) {
  run_ordering(ctx, out);
}

}  // namespace portalint
