#pragma once

#include <optional>
#include <span>
#include <vector>

#include "activity/analyzer.h"
#include "clocktree/sink.h"
#include "clocktree/topology.h"
#include "clocktree/zskew.h"
#include "geom/point.h"
#include "tech/params.h"

/// \file greedy.h
/// Greedy bottom-up topology construction (paper section 4.2).
///
/// The greedy repeatedly merges the pair of active subtrees with the
/// minimum cost, performing an exact zero-skew merge at each step. The
/// costs:
///
///   * NearestNeighbor -- the conventional heuristic [Edahiro'91]: cost is
///     the Manhattan distance between merging segments. Used for the
///     buffered baseline tree.
///   * SwitchedCapacitance -- the paper's Eq. 3: the switched capacitance a
///     merge adds, counting the two new gated clock edges (weighted by the
///     subtrees' enable signal probabilities) and the two new star-routed
///     enable wires (estimated as the distance from the control point CP to
///     the midpoint of each merging segment, weighted by the enables'
///     transition probabilities).
///
/// The engine caches each candidate's electrical tap, activation mask,
/// P(EN), P_tr(EN) and CP distance, so evaluating a pair cost is a closed-
/// form zero-skew split plus a handful of flops.
///
/// Each merge asks one question -- which live pair has the least cost? --
/// and two engines answer it, both under the strict (cost, lower-id,
/// higher-id) tie-break, so they build bit-identical topologies:
///
///   * the production engine (BuildOptions::partner_index, the default for
///     the geometric costs): a maintained dynamic bucket index
///     (cts/partner_index.h) holds every live candidate's best partner
///     under lazy invalidation, a lazy-deletion heap keyed by the strict
///     order yields the next merge, and each merge queries only the new
///     node plus the candidates whose cached partner died and whose entry
///     surfaced -- near-linear construction (docs/ALGORITHMS.md has the
///     invariant and its proof sketch). The index prunes strictly-dominated
///     buckets and pairs with its own Eq. 3 bounds; `cts.pruned_pairs` and
///     the `cts.index_*` counters record that work.
///   * the reference engine (`partner_index = false`, and always for
///     ActivityOnly, which has no geometric bound): a serial best-partner
///     array with lazy recomputation. Each entry is a plain rescan of the
///     whole front, checked against every newborn candidate, and rescanned
///     again only when it surfaces as the least entry with a dead partner
///     -- ~O(N^2), no pruning, no heap, no thread pool, and no code shared
///     with the index. It is the oracle `gcr_check --index-diff` and the
///     `scale` ctest label compare the production engine against.
///
/// A pair is always priced with its lower node id as the merge's `a` side,
/// the order the merge itself is committed in: the Eq. 3 expression rounds
/// differently under a swap, and an order-dependent cost lets two exact
/// engines break a near-tie differently.
///
/// The flat build is serial except the production engine's initial
/// all-leaves best-partner pass, which gcr::par shards; the topology is
/// bit-identical at any thread count (docs/parallelism.md).

namespace gcr::cts {

enum class MergeCost {
  NearestNeighbor,
  SwitchedCapacitance,
  /// Activity-pattern clustering in the spirit of [Tellez-Farrahi-
  /// Sarrafzadeh'95]: merge the pair whose joint enable probability is
  /// lowest (most co-active / least union growth), geometry only as a tie
  /// break. The tie term is scaled by the seed bounding-box diagonal so it
  /// stays below any probability step of the stream even for chip-scale
  /// coordinates. Included as a prior-work-style baseline for ablation.
  ActivityOnly,
};

struct BuildOptions {
  MergeCost cost{MergeCost::NearestNeighbor};
  /// Gates assumed at the tops of the new edges during merging; the
  /// buffered baseline also sets this (buffers balance like gates) but
  /// passes buffer-valued gate parameters in `tech`.
  bool gated_edges{true};
  geom::Point control_point{0.0, 0.0};  ///< CP for the Eq. 3 estimate
  /// Floor on the probability weights in the Eq. 3 cost. With a literal
  /// Eq. 3, wire among never-active sinks is free and the greedy strings
  /// them across the die -- harmless while they stay gated, pathological
  /// once gate reduction merges them into live enable domains. The floor
  /// keeps a geometric term in every merge; 0 reproduces the literal paper
  /// cost.
  double min_prob_weight{0.05};
  /// Worker threads (gcr::par) for the production engine's initial
  /// best-partner pass and, in cts/clustered.h, the per-cell builds. 0
  /// resolves to the GCR_THREADS environment default (else the hardware
  /// thread count); 1 runs serially. The built topology is bit-identical
  /// at every setting.
  int num_threads{0};
  /// Serve best-partner queries from the maintained dynamic bucket index
  /// (cts/partner_index.h): near-linear construction instead of the
  /// reference engine's ~O(N^2) rescans. Applies to the geometric costs
  /// (NearestNeighbor, SwitchedCapacitance); ActivityOnly always runs the
  /// reference engine. Never changes the result -- the topology is
  /// bit-identical to the reference at any thread count. `false` selects
  /// the serial reference engine, the oracle `gcr_check --index-diff`
  /// compares against.
  bool partner_index{true};
  tech::TechParams tech{};
};

struct BuildResult {
  ct::Topology topo;
  /// Per-node activity (empty when no analyzer was supplied).
  std::vector<activity::ActivationMask> mask;
  std::vector<double> p_en;
  std::vector<double> p_tr;
};

/// Build a topology over `sinks`. `analyzer` may be null only for
/// NearestNeighbor cost; `leaf_module[i]` maps sink i to its module.
[[nodiscard]] BuildResult build_topology(
    std::span<const ct::Sink> sinks,
    const activity::ActivityAnalyzer* analyzer,
    std::span<const int> leaf_module, const BuildOptions& opts);

/// A pre-aggregated starting candidate: a point location/cap with an
/// explicit activation mask (used by the clustered builder, where the
/// leaves of the top level are whole cell subtrees rather than modules).
struct SeedSink {
  ct::Sink sink;
  activity::ActivationMask mask;
};

/// Build a topology over arbitrary seeds; leaf i of the result is seed i.
/// An empty `seeds` span yields an empty result (a zero-leaf topology and
/// empty activity arrays) rather than undefined behaviour.
[[nodiscard]] BuildResult build_topology_seeded(
    std::span<const SeedSink> seeds,
    const activity::ActivityAnalyzer* analyzer, const BuildOptions& opts);

/// A starting candidate that is already a merged subtree: its electrical
/// tap (merging segment, zero-skew delay, downstream cap) plus activation
/// mask. This is the ECO re-entry surface (src/eco/): preserved subtrees
/// of a previous route enter the greedy front exactly as the engine's own
/// internal candidates would, so the spine re-merge prices them with the
/// same Eq. 3 terms as a from-scratch run.
struct TapSeed {
  ct::SubtreeTap tap;
  activity::ActivationMask mask;
};

/// Build a topology over subtree-valued seeds; leaf i of the result is
/// seed i. Same contract as build_topology_seeded (empty span -> empty
/// result, `analyzer` nullable only for NearestNeighbor cost).
[[nodiscard]] BuildResult build_topology_taps(
    std::span<const TapSeed> seeds,
    const activity::ActivityAnalyzer* analyzer, const BuildOptions& opts);

/// Identity sink->module map helper.
[[nodiscard]] std::vector<int> identity_modules(int num_sinks);

/// Per-node activity annotation for a topology built elsewhere (e.g. MMM):
/// the same masks / P(EN) / P_tr(EN) arrays build_topology produces.
struct TopologyActivity {
  std::vector<activity::ActivationMask> mask;
  std::vector<double> p_en;
  std::vector<double> p_tr;
};

[[nodiscard]] TopologyActivity annotate_topology(
    const ct::Topology& topo, const activity::ActivityAnalyzer& analyzer,
    std::span<const int> leaf_module);

}  // namespace gcr::cts
