/// \file benchdiff_test.cpp
/// Tests for the regression-diffing side of gcr::perf: verdict
/// classification (the relative / MAD / absolute-floor triple gate),
/// whole-report diffing including one-sided benchmarks, and the failure
/// modes of the loader/validator on malformed documents, and the
/// retired pool section of older reports.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "perf/diff.h"
#include "perf/report.h"
#include "perf/runner.h"

namespace gcr {
namespace {

perf::BenchSample sample(double median_ms, double mad_ms, int reps = 10) {
  perf::BenchSample s;
  s.median_ms = median_ms;
  s.mad_ms = mad_ms;
  s.min_ms = median_ms;
  s.reps = reps;
  return s;
}

TEST(BenchDiff, SyntheticTwoXSlowdownIsARegression) {
  // 10 ms -> 20 ms with ~2% scatter: clears the 5% relative gate, the
  // 3-MAD noise gate and the absolute floor by orders of magnitude.
  EXPECT_EQ(perf::classify(sample(10.0, 0.2), sample(20.0, 0.2), {}),
            perf::Verdict::Regression);
}

TEST(BenchDiff, TwoXSpeedupIsAnImprovement) {
  EXPECT_EQ(perf::classify(sample(20.0, 0.2), sample(10.0, 0.2), {}),
            perf::Verdict::Improvement);
}

TEST(BenchDiff, SmallRelativeDeltaIsWithinNoise) {
  // +3% on a 5% threshold.
  EXPECT_EQ(perf::classify(sample(10.0, 0.01), sample(10.3, 0.01), {}),
            perf::Verdict::WithinNoise);
}

TEST(BenchDiff, LargeDeltaInsideScatterIsWithinNoise) {
  // +20% relative, but the repetitions scatter by 1 ms on each side:
  // 2 ms < 3 * max(MAD), so the noise gate holds it back.
  EXPECT_EQ(perf::classify(sample(10.0, 1.0), sample(12.0, 1.0), {}),
            perf::Verdict::WithinNoise);
}

TEST(BenchDiff, TinyAbsoluteDeltaHitsTheFloor) {
  // A batched micro benchmark: 40 ns median with an artificially tight
  // in-run MAD. +50% relative clears both other gates, but the 20 ns
  // delta is below the 50 ns floor -- timer territory, not code.
  EXPECT_EQ(perf::classify(sample(4e-5, 1e-7), sample(6e-5, 1e-7), {}),
            perf::Verdict::WithinNoise);
  // The floor is configurable; switching it off exposes the regression.
  perf::DiffOptions no_floor;
  no_floor.min_delta_ms = 0.0;
  EXPECT_EQ(perf::classify(sample(4e-5, 1e-7), sample(6e-5, 1e-7), no_floor),
            perf::Verdict::Regression);
  // A 2x change on a 100 ns micro is above the floor and still gates.
  EXPECT_EQ(perf::classify(sample(1e-4, 1e-7), sample(2e-4, 1e-7), {}),
            perf::Verdict::Regression);
}

TEST(BenchDiff, ThresholdIsConfigurable) {
  perf::DiffOptions strict;
  strict.threshold = 0.01;
  EXPECT_EQ(perf::classify(sample(10.0, 0.01), sample(10.3, 0.01), strict),
            perf::Verdict::Regression);
}

TEST(BenchDiff, DiffReportsCountsAndOneSidedEntries) {
  perf::LoadedReport older, newer;
  older.benchmarks["a/slower"] = sample(10.0, 0.1);
  older.benchmarks["b/stable"] = sample(5.0, 0.1);
  older.benchmarks["c/gone"] = sample(1.0, 0.1);
  newer.benchmarks["a/slower"] = sample(20.0, 0.1);
  newer.benchmarks["b/stable"] = sample(5.05, 0.1);
  newer.benchmarks["d/added"] = sample(2.0, 0.1);

  const perf::DiffReport d = perf::diff_reports(older, newer, {});
  ASSERT_EQ(d.entries.size(), 4u);
  EXPECT_EQ(d.regressions, 1);
  EXPECT_EQ(d.improvements, 0);
  EXPECT_TRUE(d.has_regression());

  // Entries come back sorted by name (union of both sides).
  EXPECT_EQ(d.entries[0].name, "a/slower");
  EXPECT_EQ(d.entries[0].verdict, perf::Verdict::Regression);
  EXPECT_DOUBLE_EQ(d.entries[0].ratio, 2.0);
  EXPECT_EQ(d.entries[1].verdict, perf::Verdict::WithinNoise);
  EXPECT_EQ(d.entries[2].name, "c/gone");
  EXPECT_EQ(d.entries[2].verdict, perf::Verdict::OnlyOld);
  EXPECT_EQ(d.entries[3].name, "d/added");
  EXPECT_EQ(d.entries[3].verdict, perf::Verdict::OnlyNew);

  std::ostringstream os;
  perf::print_diff(os, d);
  EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(os.str().find("1 regression(s)"), std::string::npos);
}

TEST(BenchDiff, IdenticalReportsAreClean) {
  perf::LoadedReport rep;
  rep.benchmarks["a"] = sample(10.0, 0.1);
  rep.benchmarks["b"] = sample(0.002, 0.0001);
  const perf::DiffReport d = perf::diff_reports(rep, rep, {});
  EXPECT_FALSE(d.has_regression());
  EXPECT_EQ(d.improvements, 0);
}

std::string valid_report_text() {
  perf::BenchResult r;
  r.name = "unit/work";
  r.time_ms = perf::summarize({1.0, 1.1, 1.2, 1.0, 1.1});
  std::ostringstream os;
  perf::write_bench_report(os, "unit", {r}, perf::RunnerOptions{}, nullptr);
  return os.str();
}

TEST(BenchDiff, LoaderAcceptsWriterOutput) {
  std::string error;
  const auto loaded = perf::load_bench_report(valid_report_text(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->bench, "unit");
  EXPECT_EQ(loaded->benchmarks.count("unit/work"), 1u);
}

TEST(BenchDiff, LoaderRejectsSyntaxErrors) {
  std::string error;
  EXPECT_FALSE(perf::load_bench_report("{not json", &error).has_value());
  EXPECT_EQ(error, "not valid JSON");
}

TEST(BenchDiff, ValidatorFlagsMissingSections) {
  // Syntactically fine, structurally empty.
  const auto doc = obs::json::parse(R"({"schema":"gcr.run_report"})");
  ASSERT_TRUE(doc.has_value());
  const auto problems = perf::validate_bench_report(*doc);
  EXPECT_FALSE(problems.empty());
  bool saw_schema = false, saw_benchmarks = false;
  for (const auto& p : problems) {
    if (p.find("schema") != std::string::npos) saw_schema = true;
    if (p.find("benchmarks") != std::string::npos) saw_benchmarks = true;
  }
  EXPECT_TRUE(saw_schema);
  EXPECT_TRUE(saw_benchmarks);

  std::string error;
  EXPECT_FALSE(
      perf::load_bench_report(R"({"schema":"gcr.run_report"})", &error)
          .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(BenchDiff, DirtyFingerprintWarnsButStaysValid) {
  // Swap whatever sha the writer embedded for a "-dirty" one: the report
  // is still schema-valid, but the hygiene check must flag it so stale
  // uncommitted-tree baselines (the failure mode --validate guards CI
  // against) cannot land silently.
  std::string text = valid_report_text();
  const auto pos = text.find("\"git_sha\"");
  ASSERT_NE(pos, std::string::npos);
  const auto colon = text.find(':', pos);
  const auto q1 = text.find('"', colon);
  const auto q2 = text.find('"', q1 + 1);
  ASSERT_NE(q2, std::string::npos);
  text.replace(q1, q2 - q1 + 1, "\"abc123-dirty\"");
  const auto doc = obs::json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(perf::validate_bench_report(*doc).empty());
  const auto warnings = perf::report_fingerprint_warnings(*doc);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings.front().find("abc123-dirty"), std::string::npos);
  EXPECT_NE(warnings.front().find("uncommitted"), std::string::npos);
}

TEST(BenchDiff, CleanFingerprintHasNoWarnings) {
  const auto doc = obs::json::parse(valid_report_text());
  ASSERT_TRUE(doc.has_value());
  // The test binary's own fingerprint may or may not be dirty depending on
  // the build tree, so pin a clean sha explicitly.
  std::string text = valid_report_text();
  const auto pos = text.find("\"git_sha\"");
  ASSERT_NE(pos, std::string::npos);
  const auto colon = text.find(':', pos);
  const auto q1 = text.find('"', colon);
  const auto q2 = text.find('"', q1 + 1);
  text.replace(q1, q2 - q1 + 1, "\"abc123\"");
  const auto clean = obs::json::parse(text);
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(perf::report_fingerprint_warnings(*clean).empty());
  // Documents without a fingerprint (e.g. arbitrary JSON) never warn.
  const auto none = obs::json::parse(R"({"schema":"gcr.bench_report"})");
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(perf::report_fingerprint_warnings(*none).empty());
}

TEST(BenchDiff, ValidatorFlagsBadBenchmarkEntries) {
  // Tamper with the writer's own output: drop time_ms from the entry.
  std::string text = valid_report_text();
  const auto pos = text.find("\"time_ms\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "\"renamed\"");
  const auto doc = obs::json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const auto problems = perf::validate_bench_report(*doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("time_ms"), std::string::npos);
}

TEST(BenchDiff, RetiredPoolSectionIsIgnored) {
  // Pool work is the `par.*` counters now; the writer emits no section.
  const std::string text = valid_report_text();
  EXPECT_EQ(text.find("\"pool\""), std::string::npos);
  // Reports from before the counters carry a `pool` object; they stay
  // valid and loadable so their rows can still be diffed.
  std::string old = text;
  const auto end = old.rfind('}');
  ASSERT_NE(end, std::string::npos);
  old.insert(end,
             ",\"pool\":{\"workers\":[{\"busy_ns\":5,\"idle_ns\":7,"
             "\"chunks\":1}],\"jobs\":3,\"dispatch_overhead_ns\":9}");
  const auto doc = obs::json::parse(old);
  ASSERT_TRUE(doc.has_value()) << old;
  ASSERT_NE(doc->find("pool"), nullptr);
  EXPECT_TRUE(perf::validate_bench_report(*doc).empty());
  std::string error;
  const auto loaded = perf::load_bench_report(old, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->benchmarks.count("unit/work"), 1u);
}

}  // namespace
}  // namespace gcr
