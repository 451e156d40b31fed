#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/router.h"
#include "guard/deadline.h"
#include "guard/postmortem.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "prof/flightrec.h"
#include "prof/hwcounters.h"
#include "verify/generator.h"

namespace gcr {
namespace {

// --- flight recorder -------------------------------------------------------

/// Record on a dedicated thread so the test owns one whole ring: every
/// other test (and gtest's main thread) records into different rings.
prof::ThreadTail record_on_fresh_thread(std::uint64_t count) {
  std::uint64_t marker = 0;
  std::thread t([&] {
    for (std::uint64_t i = 0; i < count; ++i)
      prof::record(prof::Ev::Mark, "wrap", static_cast<std::int64_t>(i));
    marker = count;
  });
  t.join();
  EXPECT_EQ(marker, count);
  for (const prof::ThreadTail& tail : prof::snapshot_rings())
    if (tail.retired && tail.recorded == count &&
        !tail.events.empty() &&
        std::string(tail.events.front().what) == "wrap")
      return tail;
  ADD_FAILURE() << "ring of the recording thread not found";
  return {};
}

TEST(FlightRec, RingWraparoundKeepsLastN) {
  prof::set_recorder_enabled(true);
  constexpr std::uint64_t kCount = 1000;
  const prof::ThreadTail tail = record_on_fresh_thread(kCount);
  EXPECT_EQ(tail.recorded, kCount);
  EXPECT_EQ(tail.events.size(), prof::kRingCapacity);
  EXPECT_EQ(tail.dropped, kCount - prof::kRingCapacity);
  // Last-N semantics: the tail is the final kRingCapacity events in order.
  std::uint64_t expect_id = kCount - prof::kRingCapacity + 1;
  for (const prof::Event& e : tail.events) {
    EXPECT_EQ(e.id, expect_id);
    EXPECT_EQ(e.a, static_cast<std::int64_t>(expect_id - 1));
    ++expect_id;
  }
  EXPECT_EQ(expect_id, kCount + 1);
}

TEST(FlightRec, ConcurrentWritersKeepPerThreadConsistency) {
  prof::set_recorder_enabled(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  const std::uint64_t before = prof::total_recorded();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        prof::record(prof::Ev::Mark, "concurrent", t,
                     static_cast<std::int64_t>(i));
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(prof::total_recorded() - before, kThreads * kPerThread);
  // Joined writers: every one of their rings must read exact and ordered.
  int found = 0;
  for (const prof::ThreadTail& tail : prof::snapshot_rings()) {
    if (tail.events.empty() ||
        std::string(tail.events.front().what) != "concurrent")
      continue;
    ++found;
    EXPECT_EQ(tail.recorded, kPerThread);
    EXPECT_EQ(tail.events.size(), prof::kRingCapacity);
    for (std::size_t i = 1; i < tail.events.size(); ++i)
      EXPECT_EQ(tail.events[i].id, tail.events[i - 1].id + 1);
  }
  EXPECT_EQ(found, kThreads);
}

TEST(FlightRec, DisabledRecorderDropsEverything) {
  prof::set_recorder_enabled(false);
  const std::uint64_t before = prof::total_recorded();
  prof::record(prof::Ev::Mark, "dropped");
  EXPECT_EQ(prof::total_recorded(), before);
  prof::set_recorder_enabled(true);
}

TEST(FlightRec, ZeroDeadlineRouteDumpsExpiryTail) {
  prof::set_recorder_enabled(true);
  verify::DesignSpec spec = verify::random_spec(77);
  spec.num_sinks = 64;
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  const core::RouteOutcome out =
      router.route_guarded(opts, guard::Deadline::after_ms(0.0));
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.cancelled);

  std::ostringstream os;
  prof::write_flight_record(os);
  const std::string dump = os.str();
  EXPECT_TRUE(obs::json::valid(dump)) << dump.substr(0, 200);
  EXPECT_NE(dump.find("\"gcr.flight_record\""), std::string::npos);
  EXPECT_NE(dump.find("deadline_expired"), std::string::npos);
}

// --- hardware counters -----------------------------------------------------

TEST(HwCounters, EnvKnobForcesRusageFallback) {
  ASSERT_EQ(setenv("GCR_PROF_NO_HW", "1", 1), 0);
  const prof::HwInfo info = prof::enable_hw_counters();
  EXPECT_FALSE(info.perf_event);
  EXPECT_STREQ(info.source, "rusage");
  EXPECT_STREQ(info.names[0], "cpu_user_ns");
  ASSERT_NE(obs::hw_sampler(), nullptr);

  // The fallback sampler must still attach per-phase deltas.
  obs::Session session;
  obs::Bind bind(&session);
  {
    obs::ScopedTimer phase("hw_fallback_phase");
    volatile double sink = 0.0;
    for (int i = 0; i < 2000000; ++i) sink += 1.0 / (1.0 + i);
    (void)sink;
  }
  const obs::PhaseStats& root = session.timers().root();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0]->name, "hw_fallback_phase");
  EXPECT_TRUE(root.children[0]->has_hw);

  prof::disable_hw_counters();
  EXPECT_EQ(obs::hw_sampler(), nullptr);
  unsetenv("GCR_PROF_NO_HW");
}

// --- pool telemetry --------------------------------------------------------

std::uint64_t total_worker_chunks(const par::PoolTelemetry& t) {
  std::uint64_t n = 0;
  for (const par::PoolTelemetry::Worker& w : t.workers) n += w.chunks;
  return n;
}

TEST(PoolTelemetry, DispatchOverheadCounterNonZeroAtWidth4) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  const par::PoolTelemetry before = par::ThreadPool::global().telemetry();
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 8; ++round)
    par::parallel_for(4, 0, 512, 4, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) sum.fetch_add(i);
    });
  const par::PoolTelemetry after = par::ThreadPool::global().telemetry();
  EXPECT_EQ(sum.load(), 8 * (511 * 512) / 2);
  EXPECT_EQ(after.jobs - before.jobs, 8u);
  EXPECT_EQ(after.since(before).jobs, 8u);
  EXPECT_GT(after.dispatch_overhead_ns, before.dispatch_overhead_ns);
  EXPECT_GT(
      obs::Registry::global().counter("par.dispatch_overhead_ns").value(), 0u);
  EXPECT_EQ(obs::Registry::global().counter("par.jobs").value(), 8u);
  EXPECT_FALSE(after.workers.empty());
  // Worker pickup needs chunks slow enough that the caller lane cannot
  // drain the queue before a worker wakes; the cheap jobs above routinely
  // finish caller-only on a loaded box.
  par::parallel_for(4, 0, 32, 1, [](std::int64_t, std::int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  const par::PoolTelemetry slow = par::ThreadPool::global().telemetry();
  EXPECT_GT(total_worker_chunks(slow), total_worker_chunks(before));
  obs::set_metrics_enabled(false);
}

// --- worker-thread observability (the PR's regression test) ----------------

TEST(WorkerTrace, ParallelForBodyEventsReachTheSessionSink) {
  obs::Session session;
  obs::MemoryTraceSink sink;
  session.set_trace(&sink);
  obs::Bind bind(&session);
  constexpr int kChunks = 64;
  par::parallel_for(4, 0, kChunks, 1, [&](std::int64_t b, std::int64_t) {
    // Pre-fix, active_trace() was null on pool threads and worker-side
    // events vanished; the sleep keeps the caller lane from racing
    // through every chunk itself.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (obs::TraceSink* trace = obs::active_trace()) {
      obs::TraceEvent e;
      e.name = "chunk";
      e.cat = "test";
      e.ph = 'i';
      e.args.push_back(obs::TraceArg::num("begin", static_cast<long long>(b)));
      trace->event(std::move(e));
    }
  });
  const std::vector<obs::TraceEvent> events = sink.events();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kChunks));
  std::set<int> tids;
  for (const obs::TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_GE(tids.size(), 2u) << "no worker thread emitted a captured event";
}

TEST(WorkerTrace, RouteAtFourThreadsCapturesEveryMergeDecision) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  obs::Session session;
  obs::MemoryTraceSink sink;
  session.set_trace(&sink);
  obs::Bind bind(&session);

  verify::DesignSpec spec = verify::random_spec(91);
  spec.num_sinks = 128;
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  opts.num_threads = 4;
  const core::RouterResult r = router.route(opts);
  EXPECT_EQ(r.tree.num_leaves, 128);

  std::size_t merges = 0, recomputes = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.cat != "cts") continue;
    if (e.name == "merge") ++merges;
    if (e.name == "recompute") ++recomputes;
  }
  // One decision event per greedy merge, regardless of which thread the
  // supporting scans ran on.
  EXPECT_EQ(merges, 127u);
  // Every best-partner recompute -- counted by the engine itself -- must
  // have reached the sink, including the ones pool workers executed.
  EXPECT_EQ(
      recomputes,
      obs::Registry::global().counter("cts.best_partner_recomputes").value());
  EXPECT_GT(recomputes, 0u);
  obs::set_metrics_enabled(false);
}

// --- postmortem dump -------------------------------------------------------

TEST(ProfileReport, PostmortemDumpWritesReadableFile) {
  prof::set_recorder_enabled(true);
  prof::record(prof::Ev::Mark, "postmortem_test");
  const std::string path = "prof_test_postmortem.flightrec.json";
  ASSERT_TRUE(guard::postmortem_dump(path));
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::ostringstream ss;
  ss << is.rdbuf();
  EXPECT_TRUE(obs::json::valid(ss.str()));
  EXPECT_NE(ss.str().find("postmortem_test"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcr
