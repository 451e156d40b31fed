#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/router.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/session.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "verify/generator.h"

/// Unit tests of the observability layer: JSON writer/validator, counter
/// aggregation across threads, timer nesting and aggregation, trace-export
/// well-formedness, and a run-report round-trip through its validator.

namespace gcr {
namespace {

/// Restores the global metrics switch and registry contents around a test.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::Registry::global().reset();
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::Registry::global().reset();
  }
};

TEST(ObsJson, WriterEscapesAndValidates) {
  std::ostringstream os;
  {
    obs::json::Writer w(os);
    w.begin_object();
    w.field("plain", "value");
    w.field("quotes \"and\" \\slashes\\", "line\nbreak\ttab");
    w.field("control", std::string_view("\x01\x02", 2));
    w.field("num", 0.1);
    w.field("neg", -12345);
    w.field("flag", true);
    w.key("nothing").null();
    w.key("arr").begin_array().value(1).value(2.5).value("x").end_array();
    w.key("nested").begin_object().field("k", 1).end_object();
    w.end_object();
  }
  EXPECT_TRUE(obs::json::valid(os.str())) << os.str();
  EXPECT_NE(os.str().find("\\n"), std::string::npos);
  EXPECT_NE(os.str().find("\\u0001"), std::string::npos);
}

TEST(ObsJson, ValidatorRejectsMalformed) {
  EXPECT_TRUE(obs::json::valid("{}"));
  EXPECT_TRUE(obs::json::valid("[1, 2.5e-3, \"s\", null, true]"));
  EXPECT_FALSE(obs::json::valid(""));
  EXPECT_FALSE(obs::json::valid("{"));
  EXPECT_FALSE(obs::json::valid("{\"a\":}"));
  EXPECT_FALSE(obs::json::valid("[1,]"));
  EXPECT_FALSE(obs::json::valid("{\"a\":1} trailing"));
  EXPECT_FALSE(obs::json::valid("\"unterminated"));
  EXPECT_FALSE(obs::json::valid("{'a':1}"));
  EXPECT_FALSE(obs::json::valid("01"));
}

TEST(ObsJson, NumberHandlesNonFinite) {
  EXPECT_EQ(obs::json::number(0.0), "0");
  EXPECT_EQ(obs::json::number(1.0 / 0.0), "null");
  EXPECT_EQ(obs::json::number(0.0 / 0.0), "null");
}

TEST_F(ObsTest, CounterAggregatesAcrossThreads) {
  obs::Counter& c = obs::Registry::global().counter("test.counter");
  // The same name resolves to the same instrument.
  EXPECT_EQ(&c, &obs::Registry::global().counter("test.counter"));

  constexpr int kThreads = 4;
  constexpr int kIncs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);

  obs::Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeAndHistogram) {
  obs::Registry::global().gauge("test.gauge").set(42.5);
  EXPECT_DOUBLE_EQ(obs::Registry::global().gauge("test.gauge").value(), 42.5);

  obs::Histogram& h = obs::Registry::global().histogram("test.hist");
  for (const double v : {0.5, 1.5, 2.0, 1024.0}) h.observe(v);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 1028.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 1024.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 257.0);

  const auto empty = obs::Registry::global().histogram("test.empty").snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

TEST_F(ObsTest, HistogramOverflowSlotIsExplicit) {
  obs::Histogram& h = obs::Registry::global().histogram("test.overflow");
  const double top = std::ldexp(1.0, obs::Histogram::kBuckets -
                                         obs::Histogram::kExpBias);  // 2^32
  h.observe(top - 1.0);  // just under the bound: last finite bucket
  h.observe(top);        // at the bound: overflow, not bucket kBuckets-1
  h.observe(std::ldexp(1.0, 40));
  h.observe(std::numeric_limits<double>::infinity());

  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.overflow, 3u);
  EXPECT_EQ(snap.buckets[obs::Histogram::kBuckets - 1], 1u)
      << "in-range observations must not leak into the overflow slot";

  // The overflow slot resets with everything else.
  h.reset();
  EXPECT_EQ(h.snapshot().overflow, 0u);
}

TEST_F(ObsTest, TimerNestingBuildsAggregatedTree) {
  obs::Session session;
  {
    obs::Bind bind(&session);
    for (int i = 0; i < 3; ++i) {
      obs::ScopedTimer outer("outer");
      {
        obs::ScopedTimer inner("inner");
      }
      {
        obs::ScopedTimer inner("inner");
      }
    }
    obs::ScopedTimer other("other");
  }

  const obs::PhaseStats& root = session.timers().root();
  ASSERT_EQ(root.children.size(), 2u);
  const obs::PhaseStats& outer = *root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.calls, 3);
  EXPECT_GE(outer.total_ms, 0.0);
  ASSERT_EQ(outer.children.size(), 1u);  // both "inner" scopes aggregate
  EXPECT_EQ(outer.children[0]->name, "inner");
  EXPECT_EQ(outer.children[0]->calls, 6);
  EXPECT_LE(outer.children[0]->total_ms, outer.total_ms + 1e-6);
  EXPECT_EQ(root.children[1]->name, "other");
}

TEST_F(ObsTest, TimersAreNoOpsWithoutSession) {
  // No session bound: must not crash or record anywhere.
  obs::ScopedTimer t("unbound");
  EXPECT_EQ(obs::current(), nullptr);
  EXPECT_EQ(obs::active_trace(), nullptr);
}

TEST_F(ObsTest, BindRestoresPreviousSession) {
  obs::Session a;
  obs::Session b;
  obs::Bind bind_a(&a);
  EXPECT_EQ(obs::current(), &a);
  {
    obs::Bind bind_b(&b);
    EXPECT_EQ(obs::current(), &b);
  }
  EXPECT_EQ(obs::current(), &a);
}

TEST_F(ObsTest, TraceExportIsWellFormedChromeJson) {
  obs::Session session;
  obs::MemoryTraceSink sink;
  session.set_trace(&sink);
  {
    obs::Bind bind(&session);
    obs::ScopedTimer phase("weird \"name\"\n");  // exercises escaping
    obs::TraceEvent e;
    e.name = "merge";
    e.cat = "cts";
    e.ph = 'i';
    e.ts_us = session.now_us();
    e.args.push_back(obs::TraceArg::num("a", 1ll));
    e.args.push_back(obs::TraceArg::num("cost", 0.25));
    e.args.push_back(obs::TraceArg::str("note", "x\"y"));
    e.args.push_back(obs::TraceArg::boolean("ok", true));
    obs::active_trace()->event(std::move(e));
  }
  ASSERT_EQ(sink.size(), 2u);  // instant event + the phase slice

  std::ostringstream os;
  sink.write_chrome_json(os);
  const std::string doc = os.str();
  EXPECT_TRUE(obs::json::valid(doc)) << doc;
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(doc.find("\"cost\":0.25"), std::string::npos);
}

// The bench-report writer moved to gcr::perf in v2; its round trip is
// covered by perf_test.cpp (BenchReportRoundTrip / ValidateAcceptsOwnOutput).

TEST_F(ObsTest, RunReportRoundTripsThroughTheValidator) {
  verify::DesignSpec spec = verify::random_spec(31);
  spec.num_sinks = 48;
  obs::Session session;
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  opts.num_threads = 4;
  core::RouterResult r;
  {
    obs::Bind bind(&session);
    const core::GatedClockRouter router(verify::generate_design(spec));
    r = router.route(opts);
  }
  std::ostringstream os;
  obs::write_run_report(os, opts, r, session);
  const std::string text = os.str();

  const std::optional<obs::json::Value> doc = obs::json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text.substr(0, 200);
  const std::vector<std::string> problems = obs::validate_run_report(*doc);
  EXPECT_TRUE(problems.empty()) << problems.front();
  EXPECT_EQ(doc->find("version")->as_number(), obs::kReportVersion);
  const std::string hw = doc->find("hw")->as_string();
  EXPECT_TRUE(hw == "perf_event" || hw == "unavailable") << hw;
  EXPECT_FALSE(doc->find("pool")->find("workers")->as_array().empty());

  // A wrong schema tag and a missing pool section must each be reported,
  // not silently accepted.
  std::string bogus = text;
  bogus.replace(bogus.find("gcr.run_report"),
                std::string("gcr.run_report").size(), "gcr.bogus");
  const std::optional<obs::json::Value> bad = obs::json::parse(bogus);
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(obs::validate_run_report(*bad).empty());

  std::string no_pool = text;
  no_pool.replace(no_pool.find("\"pool\""), 6, "\"loop\"");
  const std::optional<obs::json::Value> bad2 = obs::json::parse(no_pool);
  ASSERT_TRUE(bad2.has_value());
  EXPECT_FALSE(obs::validate_run_report(*bad2).empty());
}

TEST_F(ObsTest, DisabledMetricsStayZeroThroughHelperPattern) {
  obs::set_metrics_enabled(false);
  // The canonical call-site guard: skipped entirely when disabled.
  if (obs::metrics_enabled()) {
    obs::Registry::global().counter("test.guarded").inc();
  }
  EXPECT_EQ(obs::Registry::global().counter("test.guarded").value(), 0u);
}

}  // namespace
}  // namespace gcr
