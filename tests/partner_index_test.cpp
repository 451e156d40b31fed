#include "cts/partner_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "activity/analyzer.h"
#include "clocktree/zskew.h"
#include "cts/greedy.h"
#include "geom/point.h"
#include "obs/metrics.h"
#include "tech/params.h"
#include "test_seed.h"
#include "verify/generator.h"

/// \file partner_index_test.cpp
/// Property tests for cts::PartnerIndex: at every step of a seeded random
/// insert / merge / remove sequence, find_best must return exactly the
/// (cost, smallest-partner-id) argmin that a brute-force O(front^2) scan
/// over all stored items computes. This is the index's whole contract --
/// the greedy engine stays bit-identical to the exhaustive rescan only
/// because the query never misses a minimum and never loses a tie. Every
/// insert and remove also re-checks that the pyramid's aggregates are
/// exact (not merely conservative), the tightness the query's pruning
/// relies on.

namespace gcr {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Model {
  cts::PartnerIndex index;
  tech::TechParams tech;
  std::vector<cts::PartnerIndex::Item> items;  // id -> item
  std::vector<int> live;
  std::vector<char> is_live;
  int next_id = 0;

  explicit Model(cts::PartnerIndex::Metric metric, int capacity,
                 double side) {
    items.resize(static_cast<std::size_t>(capacity));
    is_live.assign(static_cast<std::size_t>(capacity), 0);
    index.init(metric, &tech, capacity, capacity / 2, 0.0, 0.0, side, side);
    metric_ = metric;
  }

  /// The exact pair cost the test evaluates: the per-side Eq. 3 shape the
  /// SwitchedCap metric contracts for -- the zero-skew balance split of
  /// the pair distance (ct::balance_lengths over the items' a/b
  /// coefficients, snaking included), each side's wire priced at its own
  /// p_floor. This is *equal* to the index's per-pair bound (modulo the
  /// 1-1e-9 slack), so it exercises every bound at its tightest.
  [[nodiscard]] double cost(int i, int j) const {
    const auto& a = items[static_cast<std::size_t>(i)];
    const auto& b = items[static_cast<std::size_t>(j)];
    const double d = std::max(
        0.0, geom::manhattan_dist(a.center, b.center) - a.reach - b.reach);
    if (metric_ == cts::PartnerIndex::Metric::Distance) return d;
    const ct::BalanceSplit s =
        ct::balance_lengths({a.a_coef, a.b_coef}, {b.a_coef, b.b_coef}, d,
                            tech.unit_res * tech.unit_cap);
    return a.self_cost + b.self_cost + tech.wire_cap(s.len_a) * a.p_floor +
           tech.wire_cap(s.len_b) * b.p_floor;
  }

  /// Brute-force reference: argmin of cost over every other live id, ties
  /// to the smallest id.
  [[nodiscard]] cts::PartnerIndex::Best brute_best(int i) const {
    cts::PartnerIndex::Best best;
    for (const int j : live) {
      if (j == i) continue;
      const double c = cost(i, j);
      if (c < best.cost || (c == best.cost && j < best.partner)) {
        best.cost = c;
        best.partner = j;
      }
    }
    return best;
  }

  int insert(const cts::PartnerIndex::Item& item) {
    const int id = next_id++;
    items[static_cast<std::size_t>(id)] = item;
    is_live[static_cast<std::size_t>(id)] = 1;
    live.push_back(id);
    index.insert(id, item);
    EXPECT_EQ(aggregate_mismatch(), "") << "after insert " << id;
    return id;
  }

  void remove(int id) {
    is_live[static_cast<std::size_t>(id)] = 0;
    live.erase(std::find(live.begin(), live.end(), id));
    index.remove(id);
    EXPECT_EQ(aggregate_mismatch(), "") << "after remove " << id;
  }

  void maybe_rebuild() {
    index.maybe_rebuild();
    EXPECT_EQ(aggregate_mismatch(), "") << "after rebuild";
  }

  /// The index's aggregates must be *exact*, not merely conservative:
  /// every pyramid node's count, min/max fields and member bbox equal a
  /// recompute from the live members of the buckets beneath it, and the
  /// buckets hold each live id exactly once. Returns a description of the
  /// first mismatch, or "" when every node is exact.
  [[nodiscard]] std::string aggregate_mismatch() const {
    const int dim = index.level_dim(0);
    std::vector<int> seen(is_live.size(), 0);
    for (int y = 0; y < dim; ++y)
      for (int x = 0; x < dim; ++x)
        for (const int j : index.bucket(x, y)) {
          if (is_live[static_cast<std::size_t>(j)] == 0)
            return "dead id " + std::to_string(j) + " in a bucket";
          if (seen[static_cast<std::size_t>(j)]++ != 0)
            return "id " + std::to_string(j) + " in two buckets";
        }
    for (const int j : live)
      if (seen[static_cast<std::size_t>(j)] == 0)
        return "live id " + std::to_string(j) + " in no bucket";

    for (int level = 0; level < index.num_levels(); ++level) {
      const int span = 1 << level;  // buckets per node side at this level
      for (int y = 0; y < index.level_dim(level); ++y) {
        for (int x = 0; x < index.level_dim(level); ++x) {
          std::vector<int> members;
          for (int by = y * span; by < std::min((y + 1) * span, dim); ++by)
            for (int bx = x * span; bx < std::min((x + 1) * span, dim); ++bx)
              for (const int j : index.bucket(bx, by)) members.push_back(j);
          const std::string where = "level " + std::to_string(level) +
                                    " node (" + std::to_string(x) + ", " +
                                    std::to_string(y) + "): ";
          const cts::PartnerIndex::Node& n = index.node(level, x, y);
          if (n.count != static_cast<int>(members.size()))
            return where + "count " + std::to_string(n.count) + " vs " +
                   std::to_string(members.size());
          if (members.empty()) {
            if (n.bbox_set) return where + "empty node keeps a bbox";
            continue;
          }
          const auto& first = items[static_cast<std::size_t>(members[0])];
          double min_self = first.self_cost, min_pf = first.p_floor;
          double max_reach = first.reach;
          double min_a = first.a_coef, max_a = first.a_coef;
          double min_b = first.b_coef, max_b = first.b_coef;
          double x0 = first.center.x, x1 = first.center.x;
          double y0 = first.center.y, y1 = first.center.y;
          for (const int j : members) {
            const auto& it = items[static_cast<std::size_t>(j)];
            min_self = std::min(min_self, it.self_cost);
            min_pf = std::min(min_pf, it.p_floor);
            max_reach = std::max(max_reach, it.reach);
            min_a = std::min(min_a, it.a_coef);
            max_a = std::max(max_a, it.a_coef);
            min_b = std::min(min_b, it.b_coef);
            max_b = std::max(max_b, it.b_coef);
            x0 = std::min(x0, it.center.x);
            x1 = std::max(x1, it.center.x);
            y0 = std::min(y0, it.center.y);
            y1 = std::max(y1, it.center.y);
          }
          if (n.min_self != min_self || n.min_pf != min_pf ||
              n.max_reach != max_reach)
            return where + "stale min_self / min_pf / max_reach";
          if (n.min_a != min_a || n.max_a != max_a || n.min_b != min_b ||
              n.max_b != max_b)
            return where + "stale a/b envelope";
          if (!n.bbox_set || n.bx0 != x0 || n.bx1 != x1 || n.by0 != y0 ||
              n.by1 != y1)
            return where + "stale bbox";
        }
      }
    }
    return "";
  }

 private:
  cts::PartnerIndex::Metric metric_;
};

/// Check find_best against the brute force for `id`, both with a plain
/// exact eval and with an engine-style eval that prunes on the incumbent
/// (returns +inf when its own bound proves strict domination).
void expect_exact(const Model& m, int id) {
  const auto plain = [&](int j, double, bool) { return m.cost(id, j); };
  const auto pruning = [&](int j, double incumbent, bool has_incumbent) {
    const double c = m.cost(id, j);
    if (has_incumbent && c * (1.0 - 1e-9) > incumbent) return kInf;
    return c;
  };
  const cts::PartnerIndex::Best want = m.brute_best(id);
  cts::PartnerIndex::QueryStats stats;
  const cts::PartnerIndex::Best got = m.index.find_best(id, plain, &stats);
  EXPECT_EQ(got.partner, want.partner) << "id " << id;
  EXPECT_EQ(got.cost, want.cost) << "id " << id;
  const cts::PartnerIndex::Best got2 = m.index.find_best(id, pruning);
  EXPECT_EQ(got2.partner, want.partner) << "id " << id << " (pruning eval)";
  EXPECT_EQ(got2.cost, want.cost) << "id " << id << " (pruning eval)";
  if (static_cast<int>(m.live.size()) > 1) {
    EXPECT_GE(stats.evaluated, 1u);
  }
}

cts::PartnerIndex::Item random_item(std::mt19937_64& rng, double side,
                                    bool quantized) {
  std::uniform_real_distribution<double> xy(-0.02 * side, 1.02 * side);
  std::uniform_real_distribution<double> reach(0.0, 0.05 * side);
  std::uniform_real_distribution<double> self(0.0, 4.0);
  std::uniform_real_distribution<double> pf(0.005, 1.0);
  // Delay coefficients sized so the snake floor actually bites: with the
  // default tech (rc = 6e-6, b in [0.01, 0.1]) a-gaps up to 60 force
  // snakes from zero to beyond the die side.
  std::uniform_real_distribution<double> acoef(0.0, 60.0);
  std::uniform_real_distribution<double> bcoef(0.01, 0.1);
  cts::PartnerIndex::Item it;
  it.center = {xy(rng), xy(rng)};
  it.reach = reach(rng);
  it.self_cost = self(rng);
  it.p_floor = pf(rng);
  it.a_coef = acoef(rng);
  it.b_coef = bcoef(rng);
  if (quantized) {
    // Snap everything to a coarse lattice so exact cost ties (including
    // across bucket boundaries) happen constantly and the smallest-id
    // tie-break is really exercised. The delay floor is made inert (equal
    // a_coef) so ties stay exact.
    const double g = side / 8.0;
    it.center = {std::round(it.center.x / g) * g,
                 std::round(it.center.y / g) * g};
    it.reach = 0.0;
    it.self_cost = std::round(it.self_cost);
    it.p_floor = 0.5;
    it.a_coef = 0.0;
    it.b_coef = 0.05;
  }
  return it;
}

class PartnerIndexFuzz : public ::testing::TestWithParam<std::uint64_t> {};

void run_sequence(cts::PartnerIndex::Metric metric, std::uint64_t seed,
                  bool quantized) {
  std::mt19937_64 rng(seed);
  const double side = 1000.0;
  const int n0 = 48;
  const int steps = 160;
  Model m(metric, /*capacity=*/n0 + steps + 8, side);

  for (int i = 0; i < n0; ++i) m.insert(random_item(rng, side, quantized));

  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int step = 0; step < steps; ++step) {
    const double c = coin(rng);
    if (c < 0.55 && m.live.size() >= 2) {
      // Merge-like: remove two live items, insert their "parent" -- center
      // near the midpoint, self_cost grown (the engine's common case), but
      // sometimes *below* both (stresses the pyramid's min aggregates).
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      const int a = m.live[pick(rng)];
      int b = a;
      while (b == a) b = m.live[pick(rng)];
      const auto ia = m.items[static_cast<std::size_t>(a)];
      const auto ib = m.items[static_cast<std::size_t>(b)];
      m.remove(a);
      m.remove(b);
      cts::PartnerIndex::Item merged;
      merged.center = {0.5 * (ia.center.x + ib.center.x),
                       0.5 * (ia.center.y + ib.center.y)};
      merged.reach = std::max(ia.reach, ib.reach);
      const bool undercut = coin(rng) < 0.15;
      merged.self_cost = undercut
                             ? 0.5 * std::min(ia.self_cost, ib.self_cost)
                             : ia.self_cost + ib.self_cost;
      merged.p_floor = std::max(ia.p_floor, ib.p_floor);
      // Delay grows through a merge (like the engine's zero-skew delay);
      // keep the pessimistic b.
      merged.a_coef = ia.a_coef + ib.a_coef;
      merged.b_coef = std::max(ia.b_coef, ib.b_coef);
      if (quantized) {
        merged.reach = 0.0;
        merged.self_cost = std::round(merged.self_cost);
        merged.p_floor = 0.5;
        merged.a_coef = 0.0;
        merged.b_coef = 0.05;
      }
      m.insert(merged);
      m.maybe_rebuild();
    } else if (c < 0.75 && !m.live.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      m.remove(m.live[pick(rng)]);
      m.maybe_rebuild();
    } else {
      m.insert(random_item(rng, side, quantized));
    }
    ASSERT_EQ(m.index.size(), static_cast<int>(m.live.size()));

    // Exactness after *every* step, on a handful of random live ids.
    if (!m.live.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      for (int k = 0; k < 3; ++k) expect_exact(m, m.live[pick(rng)]);
    }
  }
}

/// ECO-style churn: the incremental re-router (eco::route_incremental)
/// detaches preserved subtrees and feeds their roots back into the engine
/// as fresh candidates -- an item leaves the index and a new id re-enters
/// later at the *same* coordinates and coefficients. This sequence drives
/// exactly that shape: removals whose items are remembered, verbatim
/// re-insertions under fresh ids (duplicating a live item's position is
/// legal and must still tie-break to the smallest id), and merges in
/// between, with the brute-force exactness check after every step.
void run_eco_churn(cts::PartnerIndex::Metric metric, std::uint64_t seed,
                   bool quantized) {
  std::mt19937_64 rng(seed);
  const double side = 1000.0;
  const int n0 = 32;
  const int steps = 140;
  Model m(metric, /*capacity=*/n0 + 2 * steps + 8, side);
  for (int i = 0; i < n0; ++i) m.insert(random_item(rng, side, quantized));

  std::vector<cts::PartnerIndex::Item> graveyard;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int step = 0; step < steps; ++step) {
    const double c = coin(rng);
    if (c < 0.35 && m.live.size() >= 2) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      const int id = m.live[pick(rng)];
      graveyard.push_back(m.items[static_cast<std::size_t>(id)]);
      m.remove(id);
      m.maybe_rebuild();
    } else if (c < 0.70 && !graveyard.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, graveyard.size() - 1);
      const std::size_t g = pick(rng);
      m.insert(graveyard[g]);
      graveyard[g] = graveyard.back();
      graveyard.pop_back();
    } else if (m.live.size() >= 2) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      const int a = m.live[pick(rng)];
      int b = a;
      while (b == a) b = m.live[pick(rng)];
      const auto ia = m.items[static_cast<std::size_t>(a)];
      const auto ib = m.items[static_cast<std::size_t>(b)];
      m.remove(a);
      m.remove(b);
      cts::PartnerIndex::Item merged;
      merged.center = {0.5 * (ia.center.x + ib.center.x),
                       0.5 * (ia.center.y + ib.center.y)};
      merged.reach = quantized ? 0.0 : std::max(ia.reach, ib.reach);
      merged.self_cost = quantized
                             ? std::round(ia.self_cost + ib.self_cost)
                             : ia.self_cost + ib.self_cost;
      merged.p_floor = quantized ? 0.5 : std::max(ia.p_floor, ib.p_floor);
      merged.a_coef = quantized ? 0.0 : ia.a_coef + ib.a_coef;
      merged.b_coef = quantized ? 0.05 : std::max(ia.b_coef, ib.b_coef);
      m.insert(merged);
      m.maybe_rebuild();
    } else {
      m.insert(random_item(rng, side, quantized));
    }
    ASSERT_EQ(m.index.size(), static_cast<int>(m.live.size()));
    if (!m.live.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      for (int k = 0; k < 3; ++k) expect_exact(m, m.live[pick(rng)]);
    }
  }
}

TEST_P(PartnerIndexFuzz, SwitchedCapMatchesBruteForceAtEveryStep) {
  run_sequence(cts::PartnerIndex::Metric::SwitchedCap, GetParam(), false);
}

TEST_P(PartnerIndexFuzz, EcoChurnRemoveReinsertMatchesBruteForce) {
  run_eco_churn(cts::PartnerIndex::Metric::SwitchedCap, GetParam(), false);
  // Quantized: re-inserted duplicates collide in cost constantly, so the
  // smallest-id tie-break is exercised on every query.
  run_eco_churn(cts::PartnerIndex::Metric::SwitchedCap,
                GetParam() ^ 0x5ca1ab1eull, true);
}

TEST_P(PartnerIndexFuzz, DistanceMatchesBruteForceAtEveryStep) {
  run_sequence(cts::PartnerIndex::Metric::Distance, GetParam(), false);
}

TEST_P(PartnerIndexFuzz, QuantizedTiesResolveToTheSmallestId) {
  run_sequence(cts::PartnerIndex::Metric::SwitchedCap, GetParam(), true);
  run_sequence(cts::PartnerIndex::Metric::Distance, GetParam() ^ 0x9e37ull,
               true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartnerIndexFuzz,
                         ::testing::ValuesIn(gcr::test::fuzz_seeds(
                             {11, 2026, 424242})),
                         gcr::test::SeedParamName{});

TEST(PartnerIndex, RemoveThenReinsertSameCoordinateIsExact) {
  // The minimal ECO re-entry: an item leaves and an identical item comes
  // back under a fresh id. The index must treat the newcomer as a full
  // citizen -- findable, returned as a partner, exact against brute force.
  Model m(cts::PartnerIndex::Metric::SwitchedCap, /*capacity=*/16, 1000.0);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 6; ++i) m.insert(random_item(rng, 1000.0, false));
  const cts::PartnerIndex::Item departed = m.items[2];
  m.remove(2);
  m.maybe_rebuild();
  for (const int id : m.live) expect_exact(m, id);
  const int back = m.insert(departed);  // same coordinates, new id
  EXPECT_EQ(back, 6);
  for (const int id : m.live) expect_exact(m, id);
  // A second verbatim copy: duplicate positions are legal and the
  // smallest-id tie-break decides between them.
  m.insert(departed);
  for (const int id : m.live) expect_exact(m, id);
}

TEST(PartnerIndex, SingleItemHasNoPartner) {
  tech::TechParams tech;
  cts::PartnerIndex idx;
  idx.init(cts::PartnerIndex::Metric::SwitchedCap, &tech, 4, 1, 0.0, 0.0,
           100.0, 100.0);
  idx.insert(0, {{50.0, 50.0}, 0.0, 1.0, 0.5});
  const auto best = idx.find_best(
      0, [](int, double, bool) -> double { ADD_FAILURE(); return 0.0; });
  EXPECT_EQ(best.partner, -1);
  EXPECT_EQ(best.cost, kInf);
}

TEST(PartnerIndex, CoincidentCentersDegenerateBuckets) {
  // Every item in the same cell (and the same point): the grid carries one
  // hot bucket; exactness and tie-breaks must survive.
  tech::TechParams tech;
  cts::PartnerIndex idx;
  idx.init(cts::PartnerIndex::Metric::SwitchedCap, &tech, 16, 8, 0.0, 0.0,
           1000.0, 1000.0);
  for (int i = 0; i < 8; ++i) idx.insert(i, {{500.0, 500.0}, 0.0, 2.0, 0.5});
  for (int i = 0; i < 8; ++i) {
    const auto best = idx.find_best(
        i, [&](int j, double, bool) { return 4.0 + 0.0 * j; });
    EXPECT_EQ(best.partner, i == 0 ? 1 : 0);  // tie -> smallest id
    EXPECT_EQ(best.cost, 4.0);
  }
}

TEST(PartnerIndex, ZeroAreaDieDoesNotDivideByZero) {
  tech::TechParams tech;
  cts::PartnerIndex idx;
  idx.init(cts::PartnerIndex::Metric::Distance, &tech, 4, 2, 10.0, 10.0, 0.0,
           0.0);
  idx.insert(0, {{10.0, 10.0}, 0.0, 0.0, 1.0});
  idx.insert(1, {{10.0, 10.0}, 0.0, 0.0, 1.0});
  const auto best =
      idx.find_best(0, [](int, double, bool) { return 0.0; });
  EXPECT_EQ(best.partner, 1);
}

TEST(PartnerIndex, PrunesPairsInTheGreedyOnRealInstances) {
  // The default build runs the indexed engine; on a generated design its
  // bounds must actually skip pairs, and the work must come from index
  // queries (not from the reference engine's rescans).
  verify::DesignSpec spec = verify::random_spec(77);
  spec.num_sinks = std::max(spec.num_sinks, 96);  // enough pairs to prune
  const core::Design design = verify::generate_design(spec);
  const activity::ActivityAnalyzer an(design.rtl, design.stream);
  const auto mods =
      cts::identity_modules(static_cast<int>(design.sinks.size()));
  cts::BuildOptions opts;
  opts.cost = cts::MergeCost::SwitchedCapacitance;
  opts.control_point = design.die.center();

  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  const cts::BuildResult r = cts::build_topology(design.sinks, &an, mods, opts);
  obs::set_metrics_enabled(false);
  EXPECT_TRUE(r.topo.valid());
  const std::uint64_t queries =
      obs::Registry::global().counter("cts.index_queries").value();
  EXPECT_GT(queries, 0u);
  // No query can pay for more than every other sink, so fewer exact
  // evaluations than that ceiling means the bounds skipped pairs.
  const auto others = static_cast<std::uint64_t>(design.sinks.size() - 1);
  EXPECT_LT(obs::Registry::global().counter("cts.candidate_evals").value(),
            queries * others);
}

}  // namespace
}  // namespace gcr
