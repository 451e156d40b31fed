// Tests of the benchmark's own helpers: the tail rule, the open-loop
// schedule, span self time, due-time latency accounting, the host-speed
// scaling and the byte hash the correctness gates compare trees by.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "pipeline.h"
#include "probe.h"
#include "stats.h"
#include "tracer.h"

namespace pb = perfbench;

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  const auto tail = [](std::size_t n) {
    return pb::tail_percentile(n, pb::kTailCandidates);
  };
  EXPECT_EQ(tail(300), 95.0);   // 15 beyond p95, 3 beyond p99
  EXPECT_EQ(tail(1000), 99.0);  // exactly 10 beyond p99
  EXPECT_EQ(tail(999), 95.0);   // 9 beyond p99 is not enough
  EXPECT_EQ(tail(200), 95.0);
  EXPECT_EQ(tail(199), 90.0);
  EXPECT_EQ(tail(19), 0.0);     // not even p50 has 10 beyond
  EXPECT_EQ(tail(10000), 99.9);
  EXPECT_EQ(pb::samples_beyond(300, 95.0), 15u);
}

TEST(TailRule, NearestRankPercentileIsASample) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(pb::percentile(v, 50.0), 50.0);
  EXPECT_EQ(pb::percentile(v, 95.0), 95.0);
  EXPECT_EQ(pb::percentile(v, 99.0), 99.0);
  EXPECT_EQ(pb::percentile({7.0, 3.0, 5.0}, 50.0), 5.0);
  EXPECT_EQ(pb::percentile({}, 50.0), 0.0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::vector<double> a = pb::poisson_schedule(42, 100.0, 1000);
  const std::vector<double> b = pb::poisson_schedule(42, 100.0, 1000);
  const std::vector<double> c = pb::poisson_schedule(43, 100.0, 1000);
  EXPECT_EQ(a, b);  // bit-identical
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 1000u);
  EXPECT_GT(a.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // 1000 arrivals at 100/s span ~10 s; the sd of the sum is ~0.32 s.
  EXPECT_NEAR(a.back(), 10.0, 1.5);
}

TEST(SpanSelfTime, ChildrenAreSubtractedOnce) {
  // Direct children of span 0, two of them overlapping.
  const std::vector<pb::SpanRec> spans = {
      {"parent", 0.0, 10.0, -1, 0},
      {"a", 1.0, 3.0, 0, 0},
      {"b", 2.0, 5.0, 0, 0},  // overlaps a: covered [1,5]
      {"c", 7.0, 8.0, 0, 0},
      {"grandchild", 7.2, 7.8, 3, 0},  // only c loses it
      {"late", 9.0, 12.0, 0, 0},       // clipped to the parent's end
  };
  const std::vector<double> self = pb::self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_NEAR(self[3], 0.4, 1e-12);
  EXPECT_NEAR(self[4], 0.6, 1e-12);

  const auto totals = pb::totals_by_name(spans);
  EXPECT_EQ(totals.at("a").calls, 1);
  EXPECT_DOUBLE_EQ(totals.at("parent").self_s, 4e-6);
}

TEST(SpanSelfTime, TracerNestsOpenSpans) {
  pb::Tracer t;
  {
    const pb::Span outer(&t, "outer", 7);
    const pb::Span inner(&t, "inner", 7);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].rid, 7u);
  EXPECT_LE(t.spans()[1].end_us, t.spans()[0].end_us);
  const pb::Span inert(nullptr, "ignored");  // untraced: records nothing
  EXPECT_EQ(t.spans().size(), 2u);
}

TEST(DueTimeLatency, MeasuredFromDueAndShedIsAMiss) {
  const std::vector<pb::RequestTimes> reqs = {
      {0.0, 40.0, 30.0, true},      // 40 ms, waited 10
      {10.0, 300.0, 100.0, true},   // 290 ms: over the limit
      {20.0, 20.5, 0.0, false},     // shed: a miss, no latency sample
      {30.0, 100.0, 60.0, true},    // 70 ms, waited 10
      {40.0, 45.0, 5.0, false},     // expired: a miss
  };
  const pb::LatencySummary s = pb::account(reqs, 250.0);
  EXPECT_EQ(s.sent, 5u);
  EXPECT_EQ(s.met, 2u);
  EXPECT_DOUBLE_EQ(s.met_share(), 0.4);
  EXPECT_EQ(s.latency_ms, (std::vector<double>{40.0, 290.0, 70.0}));
  EXPECT_EQ(s.queue_wait_ms, (std::vector<double>{10.0, 190.0, 10.0}));
}

TEST(HostProbe, TimesScaleToTheNominalSpeed) {
  const double nominal = pb::HostProbe::kNominalMs;
  EXPECT_DOUBLE_EQ(pb::at_nominal(40.0, nominal, 0.75), 40.0);
  // Work that slows as the kernel does.
  EXPECT_DOUBLE_EQ(pb::at_nominal(40.0, 2.0 * nominal, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(pb::at_nominal(40.0, 0.5 * nominal, 1.0), 80.0);
  // Work that slows half as much, in log: a 4x slow kernel, a 2x slow run.
  EXPECT_NEAR(pb::at_nominal(40.0, 4.0 * nominal, 0.5), 20.0, 1e-9);
  pb::HostProbe probe;
  EXPECT_EQ(probe.median_ms(), 0.0);
  const double ms = probe.sample_ms(3);
  EXPECT_GT(ms, 0.0);
  EXPECT_EQ(probe.median_ms(), ms);
  // A tree of 2^17 leaves: 2^18 - 1 nodes of two ints and five doubles.
  EXPECT_EQ(probe.bytes(), ((std::size_t{1} << 18) - 1) * 48);
}

TEST(FileHash, Fnv1a64AcrossReadChunks) {
  const std::string path = "perfbench_hash_test.txt";
  const auto hash_of = [&](const std::string& bytes) {
    {
      std::ofstream os(path, std::ios::binary);
      os << bytes;
    }
    return pb::file_hash(path);
  };
  EXPECT_EQ(hash_of(""), 0xcbf29ce484222325ull);  // published FNV-1a vectors
  EXPECT_EQ(hash_of("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hash_of("foobar"), 0x85944171f73967e8ull);
  // Longer than one 64 KiB read: equal to the hash of the bytes in one go.
  std::string big(200000, ' ');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>('a' + i % 23);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : big) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  EXPECT_EQ(hash_of(big), h);
  std::remove(path.c_str());
  EXPECT_THROW((void)pb::file_hash(path), std::runtime_error);
}
