// Incremental-cache tests: a warm run must be an observational no-op —
// identical findings (token and flow alike, since the whole-tree passes
// re-run over cached IRs), with per-file work skipped.  Staleness is
// keyed purely on content hash, and any corruption degrades to a cold
// run instead of wrong results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "cache.hpp"
#include "engine.hpp"

namespace fs = std::filesystem;

namespace {

class CacheTest : public ::testing::Test {
 protected:
  // ctest runs each case as its own process, in parallel under -j, so
  // every case gets a directory named from its test name and pid.
  void SetUp() override {
    const std::string name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = fs::path(::testing::TempDir()) /
           ("portalint_cache_test_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    cache_ = dir_ / "analysis.cache";
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path write(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream out(p);
    out << text;
    return p;
  }

  portalint::Result scan() {
    portalint::Options opts;
    opts.inputs = {dir_};
    opts.root = dir_;
    opts.use_baseline = false;
    opts.cache_path = cache_;
    return portalint::run_portalint(opts);
  }

  static std::vector<std::string> render(const portalint::Result& r) {
    std::vector<std::string> out;
    for (const auto& f : r.active) {
      out.push_back(f.unit->rel + ":" + std::to_string(f.line) + ":" + f.rule + ":" +
                    f.message + ":" + f.excerpt);
    }
    for (const auto& f : r.suppressed) {
      out.push_back("sup:" + f.unit->rel + ":" + std::to_string(f.line) + ":" + f.rule);
    }
    return out;
  }

  fs::path dir_;
  fs::path cache_;
};

TEST_F(CacheTest, WarmRunReproducesColdFindingsExactly) {
  write("spin.cpp", "volatile int spin = 0;\n");
  write("quiet.cpp", "int answer() { return 0; }\n");
  // Cross-TU flow finding: helper writes the kernel's by-ref capture.
  write("helper.cpp", "inline void bump(double& out) { out += 1.0; }\n");
  write("kernel.cpp",
        "void sum_all(Space& space, int n) {\n"
        "  double sum = 0.0;\n"
        "  parallel_for(space, RangePolicy(0, n), [&](int i) { bump(sum); });\n"
        "}\n");
  write("sup.cpp", "volatile int gate = 0;  // portalint: raw-thread-ok(test sink)\n");

  const auto cold = scan();
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.files_scanned, 5u);
  ASSERT_TRUE(fs::exists(cache_));

  const auto warm = scan();
  EXPECT_EQ(warm.cache_hits, 5u);
  EXPECT_EQ(render(warm), render(cold));

  // The corpus genuinely exercised token, flow, and suppression paths.
  bool saw_flow = false;
  for (const auto& f : cold.active) saw_flow |= f.rule == "fl-shared-write-escape";
  EXPECT_TRUE(saw_flow);
  EXPECT_FALSE(cold.suppressed.empty());
}

TEST_F(CacheTest, SerializedLaunchBitSurvivesTheRoundTrip) {
  // A stream-op handoff that only stays quiet because the launch is in
  // the serialized class: if the reloaded IR dropped the bit, the warm
  // run would fire fl-shared-write-escape where the cold run did not.
  write("helper.cpp", "inline void fill(double& out, double v) { out = v; }\n");
  write("pipeline.cpp",
        "void stage(Stream& s, double& slot) {\n"
        "  s.enqueue(1.0e-6, [&] { fill(slot, 2.0); });\n"
        "}\n");

  const auto cold = scan();
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_TRUE(cold.active.empty()) << render(cold).front();

  const auto warm = scan();
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_TRUE(warm.active.empty()) << render(warm).front();
  EXPECT_EQ(render(warm), render(cold));
}

TEST_F(CacheTest, EditedFileMissesWhileOthersStayWarm) {
  write("a.cpp", "int a = 0;\n");
  write("b.cpp", "int b = 0;\n");
  scan();

  write("a.cpp", "volatile int a = 0;\n");
  const auto r = scan();
  EXPECT_EQ(r.cache_hits, 1u);  // only b.cpp is warm
  ASSERT_EQ(r.active.size(), 1u);
  EXPECT_EQ(r.active[0].rule, "raw-thread");

  // The rewritten entry is picked up on the next run.
  EXPECT_EQ(scan().cache_hits, 2u);
}

TEST_F(CacheTest, CorruptCacheDegradesToColdRun) {
  write("spin.cpp", "volatile int spin = 0;\n");
  scan();
  {
    std::ofstream out(cache_, std::ios::trunc);
    out << "portalint-cache v1\nfile not-enough-fields\n";
  }
  const auto r = scan();
  EXPECT_EQ(r.cache_hits, 0u);
  ASSERT_EQ(r.active.size(), 1u);
  EXPECT_EQ(r.active[0].rule, "raw-thread");
  EXPECT_EQ(scan().cache_hits, 1u);  // cache was rewritten correctly
}

TEST_F(CacheTest, VersionMismatchDiscardsEverything) {
  write("spin.cpp", "volatile int spin = 0;\n");
  scan();
  std::stringstream rest;
  {
    std::ifstream in(cache_);
    std::string first;
    std::getline(in, first);
    rest << in.rdbuf();
  }
  {
    std::ofstream out(cache_, std::ios::trunc);
    out << "portalint-cache v0\n" << rest.str();
  }
  EXPECT_EQ(scan().cache_hits, 0u);
}

TEST_F(CacheTest, FullyWarmRunDoesNotRewriteTheCache) {
  write("a.cpp", "int a = 0;\n");
  scan();
  const auto stamp = fs::last_write_time(cache_);
  scan();
  EXPECT_EQ(fs::last_write_time(cache_), stamp);
}

TEST(Fnv1a, MatchesReferenceVectors) {
  EXPECT_EQ(portalint::fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(portalint::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(portalint::fnv1a("int a;\n"), portalint::fnv1a("int b;\n"));
}

}  // namespace
