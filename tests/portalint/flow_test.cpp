// portaflow fixture tests: the fl-* rules are interprocedural, so their
// known-bad corpora span two translation units under fixtures/flow/ and
// are scanned directory-at-a-time (single-file corpora live in the
// regular fixtures_test parameterization).  Each bad corpus must fire
// exactly its inline "portalint-expect:" markers; each good corpus must
// scan clean.  The Escape tests additionally pin the acceptance claim
// that the token-level rules provably pass what portaflow catches.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;

namespace {

const fs::path kFixtures = fs::path(PORTALINT_FIXTURE_DIR);
const fs::path kFlow = kFixtures / "flow";

using RuleAt = std::pair<std::string, int>;

std::multiset<RuleAt> expected_markers(const fs::path& file) {
  auto unit = portalint::load_file(file, kFixtures);
  EXPECT_TRUE(unit.has_value()) << "unreadable fixture: " << file;
  std::multiset<RuleAt> out;
  if (!unit) return out;
  constexpr std::string_view kTag = "portalint-expect:";
  for (const auto& c : unit->lex.comments) {
    const auto pos = c.text.find(kTag);
    if (pos == std::string::npos) continue;
    std::istringstream iss(c.text.substr(pos + kTag.size()));
    std::string rule;
    iss >> rule;
    if (!rule.empty()) out.insert({rule, c.line});
  }
  return out;
}

std::multiset<RuleAt> markers_under(const fs::path& dir) {
  std::multiset<RuleAt> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto more = expected_markers(entry.path());
    out.insert(more.begin(), more.end());
  }
  return out;
}

portalint::Result scan(const std::vector<fs::path>& inputs) {
  portalint::Options opts;
  opts.inputs = inputs;
  opts.root = kFixtures;
  opts.use_baseline = false;
  opts.include_fixtures = true;
  portalint::Result r = portalint::run_portalint(opts);
  EXPECT_TRUE(r.errors.empty()) << (r.errors.empty() ? std::string() : r.errors.front());
  return r;
}

std::multiset<RuleAt> findings_of(const portalint::Result& r) {
  std::multiset<RuleAt> out;
  for (const auto& f : r.active) out.insert({f.rule, f.line});
  return out;
}

std::string to_string(const std::multiset<RuleAt>& s) {
  std::ostringstream os;
  for (const auto& [rule, line] : s) os << "  " << rule << " @ line " << line << "\n";
  return os.str();
}

class BadFlowCorpus : public ::testing::TestWithParam<std::string> {};
class GoodFlowCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(BadFlowCorpus, FiresExactlyItsMarkedRulesAcrossTranslationUnits) {
  const fs::path dir = kFlow / GetParam();
  const auto expected = markers_under(dir);
  ASSERT_FALSE(expected.empty()) << dir << " has no portalint-expect markers";
  const auto actual = findings_of(scan({dir}));
  EXPECT_EQ(actual, expected) << "expected:\n"
                              << to_string(expected) << "actual:\n"
                              << to_string(actual);
}

TEST_P(GoodFlowCorpus, ScansClean) {
  const fs::path dir = kFlow / GetParam();
  EXPECT_TRUE(markers_under(dir).empty()) << dir << " is a good corpus with markers";
  const auto actual = findings_of(scan({dir}));
  EXPECT_TRUE(actual.empty()) << "unexpected findings:\n" << to_string(actual);
}

INSTANTIATE_TEST_SUITE_P(Portaflow, BadFlowCorpus,
                         ::testing::Values("swe_bad", "ord_bad", "det_bad", "queue_bad",
                                           "scanorder_bad"));
INSTANTIATE_TEST_SUITE_P(Portaflow, GoodFlowCorpus,
                         ::testing::Values("swe_good", "ord_good", "det_good",
                                           "queue_good", "scanorder_good"));

// The serialized launch class: an identical by-reference handoff to an
// identical helper is quiet when the lambda is a stream op (serialized
// in stream order — no lanes to race) and fires when it is a parallel
// dispatch.  The exemption is keyed on the launch class, not the shape.
TEST(SerializedQueueOps, StreamHandoffQuietLaneHandoffFires) {
  const auto good = findings_of(scan({kFlow / "queue_good"}));
  EXPECT_TRUE(good.empty()) << "double-buffer handoff misflagged:\n" << to_string(good);
  const auto bad = findings_of(scan({kFlow / "queue_bad"}));
  ASSERT_EQ(bad.size(), 1u) << to_string(bad);
  EXPECT_EQ(bad.begin()->first, "fl-shared-write-escape");
}

// Cross-function findings carry the helper-side site so reports and the
// SARIF relatedLocations point at both translation units.
TEST(FlowFindings, SharedWriteEscapeNamesTheHelperSite) {
  const auto r = scan({kFlow / "swe_bad"});
  ASSERT_EQ(r.active.size(), 1u);
  const portalint::Finding& f = r.active[0];
  EXPECT_EQ(f.unit->rel, "flow/swe_bad/swe_bad_kernel.cpp");
  ASSERT_FALSE(f.related.empty());
  EXPECT_EQ(f.related[0].unit->rel, "flow/swe_bad/swe_bad_helper.cpp");
  EXPECT_NE(f.related[0].note.find("accumulate_into"), std::string::npos);
  EXPECT_EQ(portalint::finding_path_key(f),
            "flow/swe_bad/swe_bad_kernel.cpp+flow/swe_bad/swe_bad_helper.cpp");
}

// Satellite: mo-balance is a whole-tree rule.  The release store and
// acquire load live in different translation units; the pair balances
// only because aggregation links sites across files.
TEST(MoBalanceCrossFile, PairBalancesAcrossTranslationUnits) {
  const auto together = findings_of(scan({kFlow / "mo_cross"}));
  EXPECT_TRUE(together.empty()) << "pair should balance:\n" << to_string(together);
}

TEST(MoBalanceCrossFile, EachHalfAloneIsUnpaired) {
  const auto store_only = findings_of(scan({kFlow / "mo_cross" / "mo_cross_store.cpp"}));
  ASSERT_EQ(store_only.size(), 1u);
  EXPECT_EQ(store_only.begin()->first, "mo-balance");

  const auto load_only = findings_of(scan({kFlow / "mo_cross" / "mo_cross_load.cpp"}));
  ASSERT_EQ(load_only.size(), 1u);
  EXPECT_EQ(load_only.begin()->first, "mo-balance");
}

}  // namespace
