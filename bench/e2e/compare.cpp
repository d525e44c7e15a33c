// --compare BASE NEW: judge a change against a baseline from two
// BENCH_e2e.json artifacts, each holding repeated untraced runs
// (--repeat N).  One row per workload and e2e metric: medians with
// quartiles, the signed worsening against the metric's bound, and a
// verdict — "unresolved" when either side's spread exceeds the bound,
// so noise is never reported as "no change".
#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/json.hpp"
#include "common/table.hpp"
#include "e2e.hpp"

namespace portabench::e2e {

namespace {

/// workload -> metric -> one value per run.
using Samples = std::map<std::string, std::map<std::string, std::vector<double>>>;

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (its default "exclusive" method); a single value is its own quartiles.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t len = v.size();
  if (len < 2) return {v.front(), v.front(), v.front()};
  const std::size_t m = len + 1;
  std::array<double, 3> q{};
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, len - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return q;
}

bool load(const std::string& path, Samples& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "compare: cannot read " << path << "\n";
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  const JsonParseResult doc = parse_json(text.str());
  const JsonValue* runs = doc.ok ? doc.value.find("runs") : nullptr;
  if (runs == nullptr || !runs->is_array()) {
    std::cerr << "compare: " << path << " is not a portabench_e2e artifact"
              << (doc.ok ? "" : " (" + doc.error + ")") << "\n";
    return false;
  }
  for (const JsonValue& run : runs->as_array()) {
    const JsonValue* traced = run.find("trace");
    const JsonValue* metrics = run.find("metrics");
    const auto workload = run.string_at("workload");
    if ((traced != nullptr && traced->as_bool()) || metrics == nullptr || !workload) continue;
    for (const MetricSpec& spec : kEndToEnd) {
      if (const auto v = metrics->number_at(std::string(spec.name))) {
        out[*workload][std::string(spec.name)].push_back(*v);
      }
    }
  }
  return true;
}

std::string percent(double share) {
  std::ostringstream s;
  s.setf(std::ios::fixed);
  s.precision(1);
  s << (share >= 0 ? "+" : "") << share * 100.0 << "%";
  return s.str();
}

std::string with_quartiles(const std::array<double, 3>& q, std::size_t n) {
  return Table::num(q[1], 4) + " [" + Table::num(q[0], 4) + ", " + Table::num(q[2], 4) +
         "] n=" + std::to_string(n);
}

}  // namespace

int compare_artifacts(const std::string& base_path, const std::string& new_path) {
  Samples base;
  Samples next;
  if (!load(base_path, base) || !load(new_path, next)) return 2;

  Table table({"workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
               "worse by", "bound", "verdict"});
  bool regression = false;
  for (const auto& [workload, metrics] : base) {
    const auto other = next.find(workload);
    if (other == next.end()) continue;
    for (const MetricSpec& spec : kEndToEnd) {
      const auto b = metrics.find(std::string(spec.name));
      const auto n = other->second.find(std::string(spec.name));
      if (b == metrics.end() || n == other->second.end()) continue;
      const auto qb = quartiles(b->second);
      const auto qn = quartiles(n->second);
      const double sign = spec.better == Better::kLower ? 1.0 : -1.0;
      const double worse = qb[1] != 0 ? sign * (qn[1] - qb[1]) / qb[1] : 0.0;
      const auto spread = [](const std::array<double, 3>& q) {
        return q[1] != 0 ? (q[2] - q[0]) / q[1] : 0.0;
      };
      std::string verdict = "ok";
      if (std::max(spread(qb), spread(qn)) > spec.bound) {
        verdict = "unresolved";
      } else if (worse > spec.bound) {
        verdict = "REGRESSION";
        regression = true;
      }
      table.add_row({workload, std::string(spec.name),
                     with_quartiles(qb, b->second.size()),
                     with_quartiles(qn, n->second.size()), percent(worse),
                     Table::num(spec.bound * 100.0, 0) + "%", verdict});
    }
  }
  std::cout << table.to_markdown();
  if (table.rows() == 0) {
    std::cerr << "compare: the artifacts share no untraced workload runs\n";
    return 2;
  }
  return regression ? 1 : 0;
}

}  // namespace portabench::e2e
