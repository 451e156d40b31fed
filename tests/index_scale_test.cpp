#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "activity/analyzer.h"
#include "benchdata/workload.h"
#include "clocktree/sink.h"
#include "cts/greedy.h"
#include "geom/die.h"

/// \file index_scale_test.cpp
/// Scale-tier differential (ctest label `scale`): at 10,000 sinks the
/// indexed greedy engine must build the same topology as the serial
/// reference engine (`partner_index = false`), node by node, for both
/// geometric costs. The designs are built here, not drawn from
/// verify::random_spec, and each one stresses a regime where the index's
/// bounds are tightest or its buckets degenerate: coincident clusters
/// (long exact-tie chains, zero-size buckets), a collinear band (a 1-D
/// grid), cap ratios of several hundred (delay-mismatch snaking), modules
/// that are either never or always active (P(EN) of exactly 0 or 1, no
/// enable toggles), and chip-scale coordinates (large magnitudes against
/// the bounds' relative rounding slack). The reference engine is ~O(N^2),
/// so this suite takes about a minute in an optimized build.

namespace gcr {
namespace {

constexpr int kSinks = 10'000;

struct Regime {
  ct::SinkList sinks;
  geom::DieArea die;
  activity::RtlDescription rtl{1, 1};
  activity::InstructionStream stream;
};

/// Activity from the repository's CPU workload model (module i = sink i).
void add_workload(Regime& r, std::uint64_t seed) {
  benchdata::WorkloadSpec spec;
  spec.num_instructions = 32;
  spec.stream_length = 4000;
  spec.seed = seed;
  benchdata::Workload wl = benchdata::generate_workload(spec, r.sinks, r.die);
  r.rtl = std::move(wl.rtl);
  r.stream = std::move(wl.stream);
}

/// 1,000 sites of 10 exactly coincident sinks each; caps from a
/// three-value set, so whole groups of pairs tie on cost to the last bit.
Regime coincident_clusters() {
  Regime r;
  r.die = {0.0, 0.0, 40000.0, 40000.0};
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> coord(0.0, 40000.0);
  std::uniform_int_distribution<int> cap_pick(0, 2);
  constexpr double kCaps[] = {0.01, 0.02, 0.04};
  std::vector<geom::Point> sites;
  for (int s = 0; s < 1000; ++s) sites.push_back({coord(rng), coord(rng)});
  for (int i = 0; i < kSinks; ++i)
    r.sinks.push_back({sites[static_cast<std::size_t>(i % 1000)],
                       kCaps[cap_pick(rng)]});
  add_workload(r, 1);
  return r;
}

/// Every sink on one horizontal line at integer x, with repeats: the index
/// grid collapses to a strip and neighbor distances tie constantly.
Regime collinear_band() {
  Regime r;
  r.die = {0.0, 0.0, 40000.0, 1000.0};
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<int> x(0, 20000);
  for (int i = 0; i < kSinks; ++i)
    r.sinks.push_back({{2.0 * x(rng), 777.0}, 0.02});
  add_workload(r, 2);
  return r;
}

/// Log-uniform caps over [0.002, 0.5] pF (250x) plus a 1% sprinkle of
/// 5 pF loads (2500x): zero-skew merges must snake to balance them.
Regime extreme_cap_ratios() {
  Regime r;
  r.die = {0.0, 0.0, 120000.0, 120000.0};
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> coord(0.0, 120000.0);
  std::uniform_real_distribution<double> log_cap(std::log(0.002),
                                                 std::log(0.5));
  std::uniform_int_distribution<int> heavy(0, 99);
  for (int i = 0; i < kSinks; ++i) {
    const double cap = heavy(rng) == 0 ? 5.0 : std::exp(log_cap(rng));
    r.sinks.push_back({{coord(rng), coord(rng)}, cap});
  }
  add_workload(r, 3);
  return r;
}

/// Half the modules are used by no instruction, half by every one, mixed
/// at random over the die: every P(EN) is exactly 0 or 1 and no enable
/// ever toggles, so the floored weights take only two values.
Regime idle_and_active_modules() {
  Regime r;
  r.die = {0.0, 0.0, 120000.0, 120000.0};
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> coord(0.0, 120000.0);
  std::uniform_real_distribution<double> cap(0.01, 0.05);
  std::bernoulli_distribution active(0.5);
  constexpr int kInstructions = 8;
  r.rtl = activity::RtlDescription(kInstructions, kSinks);
  for (int i = 0; i < kSinks; ++i) {
    r.sinks.push_back({{coord(rng), coord(rng)}, cap(rng)});
    if (active(rng))
      for (int k = 0; k < kInstructions; ++k) r.rtl.add_use(k, i);
  }
  for (int t = 0; t < 1000; ++t) r.stream.seq.push_back(t % kInstructions);
  return r;
}

/// A 4e7-lambda die offset by 1e7: coordinates near 5e7, so distances and
/// wire caps run many orders of magnitude above the sink caps.
Regime chip_scale_coordinates() {
  Regime r;
  r.die = {1e7, 1e7, 5e7, 5e7};
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> coord(1e7, 5e7);
  std::uniform_real_distribution<double> cap(0.005, 0.08);
  for (int i = 0; i < kSinks; ++i)
    r.sinks.push_back({{coord(rng), coord(rng)}, cap(rng)});
  add_workload(r, 5);
  return r;
}

struct NamedRegime {
  const char* name;
  Regime (*make)();
};

constexpr NamedRegime kRegimes[] = {
    {"CoincidentClusters", coincident_clusters},
    {"CollinearBand", collinear_band},
    {"ExtremeCapRatios", extreme_cap_ratios},
    {"IdleAndActiveModules", idle_and_active_modules},
    {"ChipScaleCoordinates", chip_scale_coordinates},
};

struct Case {
  int regime;
  cts::MergeCost cost;
};

class IndexScale : public ::testing::TestWithParam<Case> {};

TEST_P(IndexScale, IndexedMatchesReferenceNodeByNode) {
  const Regime r = kRegimes[GetParam().regime].make();
  ASSERT_EQ(static_cast<int>(r.sinks.size()), kSinks);
  const activity::ActivityAnalyzer an(r.rtl, r.stream);
  const auto mods = cts::identity_modules(kSinks);
  cts::BuildOptions opts;
  opts.cost = GetParam().cost;
  opts.control_point = r.die.center();
  opts.num_threads = 1;
  opts.partner_index = true;
  const cts::BuildResult indexed = cts::build_topology(r.sinks, &an, mods, opts);
  opts.partner_index = false;
  const cts::BuildResult reference =
      cts::build_topology(r.sinks, &an, mods, opts);
  ASSERT_TRUE(indexed.topo.valid());
  ASSERT_EQ(indexed.topo.num_nodes(), reference.topo.num_nodes());
  int mismatches = 0;
  for (int id = 0; id < indexed.topo.num_nodes() && mismatches < 5; ++id) {
    const ct::TreeNode& x = indexed.topo.node(id);
    const ct::TreeNode& y = reference.topo.node(id);
    if (x.left != y.left || x.right != y.right) {
      ++mismatches;
      ADD_FAILURE() << "node " << id << ": indexed (" << x.left << ", "
                    << x.right << ") reference (" << y.left << ", "
                    << y.right << ")";
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(kRegimes[info.param.regime].name) +
         (info.param.cost == cts::MergeCost::NearestNeighbor ? "_NN"
                                                             : "_SwCap");
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (int regime = 0; regime < std::ssize(kRegimes); ++regime)
    for (const cts::MergeCost cost : {cts::MergeCost::SwitchedCapacitance,
                                      cts::MergeCost::NearestNeighbor})
      cases.push_back({regime, cost});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(TenThousandSinks, IndexScale,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace gcr
