#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "log/logger.h"
#include "log/schema.h"
#include "log/telemetry.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/timer.h"
#include "par/pool.h"
#include "perf/memhook.h"

/// Unit tests of gcr::log: runtime level filtering, token-bucket rate
/// limiting with suppression accounting under concurrent pool writers,
/// JSONL schema round-trips through the shared validator (the same code
/// `gcr_events --validate` runs), phase/worker context propagation, and
/// the disabled logger's zero-allocation fast path.

namespace gcr {
namespace {

/// Init the singleton with a MemorySink and hand back a view that shares
/// the sink's buffer (MemorySink buffers behind a shared_ptr, so a copy
/// taken after first use observes everything the logger writes).
log::MemorySink init_with_memory_sink(log::Options opts) {
  auto sink = std::make_unique<log::MemorySink>();
  sink->clear();  // force the shared buffer into existence before copying
  log::MemorySink view = *sink;
  opts.extra_sink = std::move(sink);
  opts.stderr_level = log::Level::Off;  // keep test output quiet
  EXPECT_TRUE(log::Logger::instance().init(std::move(opts)));
  return view;
}

/// Every test starts and ends with the logger torn down; re-init after
/// shutdown is part of the Logger contract this relies on.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { log::Logger::instance().shutdown(); }
  void TearDown() override { log::Logger::instance().shutdown(); }
};

std::vector<log::Record> events_named(const log::MemorySink& sink,
                                      const std::string& name) {
  std::vector<log::Record> out;
  for (const log::Record& r : sink.records())
    if (r.kind == log::Record::Kind::Event && r.name == name)
      out.push_back(r);
  return out;
}

TEST_F(LogTest, RuntimeLevelFiltersBelowFloor) {
  log::Options opts;
  opts.level = log::Level::Info;
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  GCR_LOG_DEBUG("lvl.debug").kv("k", 1);
  GCR_LOG_INFO("lvl.info").kv("k", 2);
  GCR_LOG_WARN("lvl.warn").kv("k", 3);
  log::Logger::instance().flush();

  EXPECT_TRUE(events_named(sink, "lvl.debug").empty());
  EXPECT_EQ(events_named(sink, "lvl.info").size(), 1u);
  EXPECT_EQ(events_named(sink, "lvl.warn").size(), 1u);

  // Raising the floor at runtime takes effect on the very next emission.
  log::Logger::instance().set_level(log::Level::Error);
  EXPECT_FALSE(log::enabled(log::Level::Warn));
  GCR_LOG_WARN("lvl.warn2").msg("filtered");
  GCR_LOG_ERROR("lvl.error").msg("kept");
  log::Logger::instance().flush();

  EXPECT_TRUE(events_named(sink, "lvl.warn2").empty());
  EXPECT_EQ(events_named(sink, "lvl.error").size(), 1u);
}

TEST_F(LogTest, RateLimiterAccountsEverySuppressedEmission) {
  log::Options opts;
  opts.level = log::Level::Info;
  // One token a second with a burst of 8: a 4-lane burst of 400 emissions
  // must admit only a handful and suppress the rest -- with every single
  // emission landing in exactly one of the two tallies.
  opts.rate_per_sec = 1.0;
  opts.rate_burst = 8.0;
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  constexpr std::int64_t kTotal = 400;
  std::atomic<int> saw_worker{0};
  par::parallel_for(4, 0, kTotal, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      if (par::worker_ordinal() > 0) saw_worker.store(1);
      GCR_LOG_INFO("rl.burst").kv("i", static_cast<std::int64_t>(i));
    }
  });
  log::Logger::instance().flush();

  const log::RateStats stats = log::Logger::instance().rate_stats("rl.burst");
  EXPECT_EQ(stats.admitted + stats.suppressed,
            static_cast<std::uint64_t>(kTotal));
  EXPECT_GT(stats.suppressed, 0u);
  EXPECT_GE(stats.admitted, 8u);  // the full burst allowance gets through
  EXPECT_EQ(log::Logger::instance().dropped(), 0u) << "ring must not drop "
                                                      "at this volume";

  // Admitted records reach the sink 1:1, and the suppressed counts that
  // ride on them never exceed the limiter's own tally (the remainder is
  // reported by the shutdown summary).
  const std::vector<log::Record> recs = events_named(sink, "rl.burst");
  EXPECT_EQ(recs.size(), stats.admitted);
  std::uint64_t carried = 0;
  for (const log::Record& r : recs) carried += r.suppressed;
  EXPECT_LE(carried, stats.suppressed);
}

TEST_F(LogTest, EmittedLinesSatisfyTheSharedSchemaValidator) {
  log::Options opts;
  opts.level = log::Level::Debug;
  opts.run_id = "log-test-run";
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  GCR_LOG_INFO("schema.types")
      .kv("s", "text with \"quotes\" and \\ backslash")
      .kv("d", 2.5)
      .kv("i", static_cast<std::int64_t>(-7))
      .kv("u", static_cast<std::uint64_t>(1) << 40)
      .kv("b", true)
      .msg("payload of every kv type");
  GCR_LOG_WARN("schema.warn");

  log::TelemetryEmitter telemetry;
  telemetry.start({/*interval_ms=*/5});
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const std::uint64_t snapshots = telemetry.stop();
  EXPECT_GE(snapshots, 1u);
  log::Logger::instance().flush();

  std::uint64_t events = 0;
  std::uint64_t snaps = 0;
  for (const std::string& line : sink.lines()) {
    const std::optional<obs::json::Value> doc = obs::json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const std::vector<std::string> problems = log::validate_line(*doc);
    EXPECT_TRUE(problems.empty())
        << line << "\nfirst problem: " << problems.front();
    const std::optional<log::LineInfo> info = log::parse_line(*doc);
    ASSERT_TRUE(info.has_value()) << line;
    if (info->kind == log::LineKind::Event)
      ++events;
    else
      ++snaps;
  }
  EXPECT_GE(events, 2u);
  EXPECT_EQ(snaps, snapshots);
}

TEST_F(LogTest, EventsCarryPhasePathAndWorkerOrdinal) {
  log::Options opts;
  opts.level = log::Level::Info;
  opts.rate_per_sec = 0.0;  // all 64 pool events must land in the sink
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  {
    obs::Session session;
    obs::Bind bind(&session);
    obs::ScopedTimer outer("a");
    {
      obs::ScopedTimer inner("b");
      GCR_LOG_INFO("ctx.phase").kv("depth", 2);
    }
    GCR_LOG_INFO("ctx.outer").kv("depth", 1);
  }
  GCR_LOG_INFO("ctx.none");

  par::parallel_for(4, 0, 64, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i)
      GCR_LOG_INFO("ctx.pool").kv("i", static_cast<std::int64_t>(i));
  });
  log::Logger::instance().flush();

  const std::vector<log::Record> nested = events_named(sink, "ctx.phase");
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0].phase, "a/b");
  const std::vector<log::Record> outer = events_named(sink, "ctx.outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0].phase, "a");
  const std::vector<log::Record> bare = events_named(sink, "ctx.none");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].phase, "");
  EXPECT_EQ(bare[0].worker, 0);

  const std::vector<log::Record> pool = events_named(sink, "ctx.pool");
  EXPECT_EQ(pool.size(), 64u);

  // Events emitted on a pool lane carry that lane's 1-based ordinal (a
  // global pool lane index, so it can exceed the job's width). The
  // caller is a lane too and can drain every chunk before a worker
  // wakes on a loaded machine, so retry with slow chunks until a
  // worker-lane event lands.
  int max_worker = 0;
  for (const log::Record& r : pool) max_worker = std::max(max_worker, r.worker);
  for (int attempt = 0; attempt < 50 && max_worker == 0; ++attempt) {
    par::parallel_for(4, 0, 64, 1, [&](std::int64_t b, std::int64_t e) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      for (std::int64_t i = b; i < e; ++i)
        GCR_LOG_INFO("ctx.pool_retry").kv("i", static_cast<std::int64_t>(i));
    });
    log::Logger::instance().flush();
    for (const log::Record& r : events_named(sink, "ctx.pool_retry"))
      max_worker = std::max(max_worker, r.worker);
  }
  EXPECT_GT(max_worker, 0);
}

TEST_F(LogTest, DeepLongPhaseNamesReachTheEventWhole) {
  log::Options opts;
  opts.level = log::Level::Info;
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  // 20 nested phases, each name past 40 bytes: the path is read from the
  // session's own phase stack, so neither the depth nor the name length
  // is cut.
  constexpr int kDepth = 20;
  std::vector<std::string> names;
  std::string want;
  for (int i = 0; i < kDepth; ++i) {
    names.push_back("phase_" + std::to_string(i) +
                    "_with_a_name_well_past_forty_bytes_long");
    if (i) want += '/';
    want += names.back();
  }
  ASSERT_GT(names.back().size(), 40u);
  {
    obs::Session session;
    obs::Bind bind(&session);
    std::vector<std::unique_ptr<obs::ScopedTimer>> open;
    for (const std::string& n : names)
      open.push_back(std::make_unique<obs::ScopedTimer>(n.c_str()));
    GCR_LOG_INFO("ctx.deep");
    while (!open.empty()) open.pop_back();  // close innermost first
  }
  log::Logger::instance().flush();

  const std::vector<log::Record> deep = events_named(sink, "ctx.deep");
  ASSERT_EQ(deep.size(), 1u);
  EXPECT_EQ(deep[0].phase, want);
}

TEST_F(LogTest, DisabledLoggerEmitsNothingAndNeverAllocates) {
  ASSERT_FALSE(log::Logger::instance().running());
  EXPECT_FALSE(log::enabled(log::Level::Error));

  if (!perf::memhook::available()) GTEST_SKIP() << "no malloc_usable_size";
  perf::memhook::enable();
  perf::memhook::reset();
  for (int i = 0; i < 1000; ++i) {
    // Arguments must not evaluate: the std::string here would allocate.
    GCR_LOG_ERROR("off.event").kv("s", std::string(64, 'x')).kv("i", i);
  }
  const perf::memhook::Stats stats = perf::memhook::stats();
  perf::memhook::disable();
  EXPECT_EQ(stats.allocs, 0u);
  EXPECT_EQ(stats.bytes_allocated, 0u);
}

}  // namespace
}  // namespace gcr
