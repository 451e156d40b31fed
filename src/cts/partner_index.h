#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "clocktree/zskew.h"
#include "geom/point.h"
#include "tech/params.h"

/// \file partner_index.h
/// A dynamic bucket-pyramid index over candidate merging segments -- the
/// structure that turns the Eq. 3 greedy's per-merge front rescan into a
/// near-constant neighborhood query (an Edahiro-style bucket decomposition
/// grown into a maintained branch-and-bound hierarchy).
///
/// Each live candidate is stored as an Item: the chip-plane center of its
/// merging segment, the segment's *reach* (the maximum Manhattan distance
/// from the center to any point of the segment -- for a tilted rectangle
/// `0.5 * max(uhi-ulo, whi-wlo)`, because chip-plane Manhattan distance is
/// Chebyshev distance in the rotated frame), and the two Eq. 3 ingredients
/// of the engine's lower bound: the merge-invariant `self_cost` and the
/// floored probability weight `p_floor`.
///
/// Items live in a uniform bucket grid; above the grid sits a pyramid of
/// 2x2 aggregation nodes (a quadtree built bottom-up), each carrying
/// exact aggregates over its subtree: the live count, the bounding
/// box of member centers, and min self_cost / min p_floor / max reach.
/// Each level is stored block-major: the 2x2 siblings under one parent
/// sit side by side, because a query always prices them together.
///
/// find_best(id) returns the *exact* (cost, partner-id) argmin over every
/// other stored item, where the cost of a pair is whatever the caller's
/// `eval` callback computes. Exactness -- including cost ties, which resolve
/// to the smallest partner id -- is what lets the greedy engine stay
/// bit-identical to the exhaustive rescan: the query only ever skips pairs
/// it can prove *strictly* dominated. All bounds are slackened by
/// `1 - 1e-9` (kSlack) and compared with strict `>`, so a tie-capable
/// candidate is never skipped.
///
/// A node prices the cheapest pair its subtree could possibly contain from
/// a distance bound
///
///   d = max(0, dist(center_q, member-bbox) - reach_q - max_reach)
///
/// (for Metric::Distance the cost IS the distance; for SwitchedCap the
/// bound is priced through Eq. 3 with the node's min self_cost / min
/// p_floor), and a node whose bound strictly exceeds the incumbent is
/// discarded with its entire subtree.
///
/// SwitchedCap bounds price the wire *per side* of the zero-skew balance
/// split, each side's length at its own probability weight. This is the
/// load-bearing refinement: under activity floors an active query (large
/// p_floor) scanning idle candidates pays ~p_floor_q on its own half of
/// every merge's wire, so a min-p_floor whole-wire bound underestimates
/// by the weight ratio and lets every idle candidate for thousands of
/// lambda around survive -- per-side pricing shrinks the survivor radius
/// by that same ratio. The bounds also price the Elmore delay-mismatch
/// axis: a merge of subtrees whose branch-delay intercepts (`a_coef`)
/// differ must snake wire on the faster side until the gap closes,
/// however close the segments sit (ct::merge_wire_total). Items carry
/// their exact (a_coef, b_coef); nodes keep the [min_a, max_a] and
/// [min_b, max_b] envelopes, whose corners span the balance point's range
/// (it is monotone in each coefficient), so a subtree whose delay range
/// sits far from the query's is priced out even at distance 0.
///
/// Branch-and-bound is only as good as its first incumbent, so the query
/// seeds from both ends of the cost structure first. Every query starts
/// with the query's own bucket -- the distance-0 neighborhood, the right
/// guess when cost is geometry-dominated. SwitchedCap queries additionally
/// exploit the additive structure of the Eq. 3 bound (cost(q, j) >= self_q
/// + self_j, the wire term is nonnegative): the index keeps all items in a
/// (self_cost, id)-ordered set and the query prices its first few entries
/// -- the globally cheapest selves, the right guess in the activity-floor
/// regime where wire is nearly free and the best partner may sit anywhere
/// on the die.
///
/// The query then walks *outward* from its own cell: at each level, from
/// the bucket grid up to the level below the root, it prices the (at most
/// three) siblings of its own ancestor and descends best-first (cheapest
/// bound first, ties toward the lower (y, x)) into those whose bound does
/// not strictly exceed the incumbent. The siblings of the ancestors
/// partition every non-own cell, so each is covered exactly once; near
/// cells come first, so the incumbent is near-final before the walk
/// reaches the large far quadrants, which are then discarded whole. (A
/// root-down descent instead prices every level's four children on the
/// way down to the query's neighborhood.) Per candidate a per-pair bound
/// (center distance minus reaches, priced through the metric) is tried
/// before `eval`; survivors pay the exact pair cost, which the engine
/// computes from the closed-form balance split without touching
/// merged-segment geometry.
///
/// Aggregates are *exact* under mutation: insert tightens them along the
/// leaf-to-root path (running min/max, bbox growth); remove re-derives the
/// leaf bucket from its remaining members and then each ancestor from its
/// at most four children, O(bucket + 4 * levels). A removed item therefore
/// never leaves a stale min/max or bbox behind to loosen later bounds. A
/// full rebuild still runs whenever the population halves, only to
/// re-derive the grid dimension from the live size, so bucket occupancy
/// stays O(1) as the merge front shrinks.
///
/// The structure is single-writer: insert/remove/rebuild happen on the
/// engine's coordinating thread between scans. find_best is const and
/// touches no mutable state, so any number of pool workers may query
/// concurrently, and every query's result is independent of enumeration
/// order -- the determinism contract of docs/parallelism.md.
namespace gcr::cts {

class PartnerIndex {
 public:
  /// How a pair's cost is lower-bounded from a distance bound `d`:
  ///   Distance    -- the cost *is* the merging-segment distance
  ///                  (NearestNeighbor), so the bound is d itself.
  ///   SwitchedCap -- the per-side Eq. 3 bound: self_x + self_y plus the
  ///                  zero-skew balance split of `d`, each side's wire at
  ///                  its *own* p_floor. The eval callback must therefore
  ///                  compute the matching Eq. 3 per-side cost (as the
  ///                  greedy's pair_cost does) -- a cost below this bound
  ///                  would break exactness.
  enum class Metric { Distance, SwitchedCap };

  struct Item {
    geom::Point center;     ///< chip-plane center of the merging segment
    double reach{0.0};      ///< max Manhattan dist from center to the segment
    double self_cost{0.0};  ///< Eq. 3 merge-invariant part (SwitchedCap)
    double p_floor{1.0};    ///< floored probability weight (SwitchedCap)
    /// Elmore branch-delay coefficients (delay(L) = a_coef + b_coef*L +
    /// (rc/2) L^2): a zero-skew merge of delay-mismatched subtrees must
    /// buy at least the snaked wire that closes the |a_coef| gap, however
    /// close the segments sit -- the SwitchedCap bounds price that floor
    /// via ct::merge_wire_total. Defaults make the floor inert.
    double a_coef{0.0};
    double b_coef{0.0};
  };

  struct Best {
    double cost{std::numeric_limits<double>::infinity()};
    int partner{-1};
  };

  /// Telemetry for one find_best call, all of it work done: `evaluated`
  /// the exact evaluations paid, `node_bounds` the pyramid-node bounds
  /// priced, `bucket_items` the bucket members visited (the query's own
  /// bucket included).
  struct QueryStats {
    std::uint64_t evaluated{0};
    std::uint64_t node_bounds{0};
    std::uint64_t bucket_items{0};
  };

  /// One pyramid node: exact aggregates over the live members of its
  /// subtree (level 0: one bucket; level k: up to 2x2 nodes of level k-1).
  /// An empty node keeps the default (identity) values.
  struct Node {
    int count{0};
    double min_self{std::numeric_limits<double>::infinity()};
    double min_pf{std::numeric_limits<double>::infinity()};
    double max_reach{0.0};
    /// Delay-coefficient envelope of the members: [min_a, max_a] bounds
    /// the gap any query's a_coef must bridge by snaking; max_b bounds the
    /// faster side's linear coefficient from above (larger b = less snake,
    /// so the max is the conservative choice).
    double min_a{std::numeric_limits<double>::infinity()};
    double max_a{-std::numeric_limits<double>::infinity()};
    double min_b{std::numeric_limits<double>::infinity()};
    double max_b{0.0};
    double bx0{0.0}, by0{0.0}, bx1{0.0}, by1{0.0};  ///< member-center bbox
    bool bbox_set{false};

    void absorb(const Item& item) {
      ++count;
      min_self = std::min(min_self, item.self_cost);
      min_pf = std::min(min_pf, item.p_floor);
      max_reach = std::max(max_reach, item.reach);
      min_a = std::min(min_a, item.a_coef);
      max_a = std::max(max_a, item.a_coef);
      min_b = std::min(min_b, item.b_coef);
      max_b = std::max(max_b, item.b_coef);
      grow_bbox(item.center.x, item.center.y, item.center.x, item.center.y);
    }

    /// Fold a child's aggregates in (min/max are order-independent, so
    /// this equals absorbing the child's members one by one).
    void merge(const Node& c) {
      if (c.count == 0) return;
      count += c.count;
      min_self = std::min(min_self, c.min_self);
      min_pf = std::min(min_pf, c.min_pf);
      max_reach = std::max(max_reach, c.max_reach);
      min_a = std::min(min_a, c.min_a);
      max_a = std::max(max_a, c.max_a);
      min_b = std::min(min_b, c.min_b);
      max_b = std::max(max_b, c.max_b);
      grow_bbox(c.bx0, c.by0, c.bx1, c.by1);
    }

   private:
    void grow_bbox(double x0, double y0, double x1, double y1) {
      if (!bbox_set) {
        bx0 = x0;
        by0 = y0;
        bx1 = x1;
        by1 = y1;
        bbox_set = true;
      } else {
        bx0 = std::min(bx0, x0);
        by0 = std::min(by0, y0);
        bx1 = std::max(bx1, x1);
        by1 = std::max(by1, y1);
      }
    }
  };

  /// `tech` must outlive the index (only wire_cap is used, and only for
  /// Metric::SwitchedCap). `capacity` bounds the node ids ever stored;
  /// `expected` sizes the initial grid (the number of initial inserts).
  /// The grid covers [xlo, xlo+w] x [ylo, ylo+h].
  void init(Metric metric, const tech::TechParams* tech, int capacity,
            int expected, double xlo, double ylo, double w, double h);

  void insert(int id, const Item& item);
  void remove(int id);
  [[nodiscard]] bool contains(int id) const {
    return cell_of_[static_cast<std::size_t>(id)] >= 0;
  }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] std::uint64_t rebuild_count() const { return rebuilds_; }

  /// Rebuild the grid (dimension re-derived from the live size, so bucket
  /// occupancy stays O(1)) when the live population has halved since the
  /// last rebuild. Returns true when a rebuild happened. Call between
  /// merges, never during queries.
  bool maybe_rebuild();

  /// Exact best partner of `id` (which must be stored): the (cost,
  /// partner-id) argmin of `eval` over every other stored item, ties to
  /// the smallest id. `eval(j, incumbent, has_incumbent)` returns the
  /// exact pair cost, or +infinity to signal that its own lower bound
  /// proved the pair strictly worse than `incumbent` (it must never do so
  /// when `has_incumbent` is false, and never prune a pair that could tie
  /// the incumbent). Returns partner -1 iff `id` is the only item.
  template <class Eval>
  [[nodiscard]] Best find_best(int id, Eval&& eval,
                               QueryStats* stats = nullptr) const;

  /// Read-only view of the pyramid for audits: level 0 is the bucket grid,
  /// the last level is the 1x1 root.
  [[nodiscard]] int num_levels() const {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] int level_dim(int level) const {
    return level_dim_[static_cast<std::size_t>(level)];
  }
  [[nodiscard]] const Node& node(int level, int x, int y) const {
    return levels_[static_cast<std::size_t>(level)][slot(level, x, y)];
  }
  [[nodiscard]] const std::vector<int>& bucket(int x, int y) const {
    return bucket_ids_[static_cast<std::size_t>(y) * dim_ + x];
  }

 private:
  /// A pyramid node queued for expansion with its priced bound.
  struct Visit {
    double bound;
    int x, y;
  };

  /// Order at most four visits by (bound, y, x) -- cheapest first, so the
  /// incumbent tightens early; ties toward the lower cell. An insertion
  /// sort: the lists are tiny, and std::sort's inlined guard-free loop
  /// draws a false -Warray-bounds from gcc at -O2.
  static void sort_visits(Visit* v, int n) {
    for (int i = 1; i < n; ++i) {
      const Visit cur = v[i];
      int k = i;
      for (; k > 0; --k) {
        const Visit& prev = v[k - 1];
        const bool before =
            cur.bound != prev.bound
                ? cur.bound < prev.bound
                : (cur.y != prev.y ? cur.y < prev.y : cur.x < prev.x);
        if (!before) break;
        v[k] = prev;
      }
      v[k] = cur;
    }
  }

  /// Storage index of cell (x, y) on `level`: block-major, so the 2x2
  /// siblings under one parent -- the unit every query prices at once --
  /// sit side by side. Block (x/2, y/2) in a grid of ceil(dim/2) blocks
  /// per row, slot (y%2, x%2) within it.
  [[nodiscard]] std::size_t slot(int level, int x, int y) const {
    const int bdim = (level_dim(level) + 1) / 2;
    return (static_cast<std::size_t>(y / 2) * bdim + x / 2) * 4 +
           static_cast<std::size_t>((y % 2) * 2 + x % 2);
  }
  Node& node_at(int level, int x, int y) {
    return levels_[static_cast<std::size_t>(level)][slot(level, x, y)];
  }

  void bucket_insert(int id, const Item& item);
  /// Re-derive the aggregates on the path from level-0 `cell` to the
  /// root: the leaf from its members, each ancestor from its children.
  void refresh_path(int cell);
  void rebuild();
  void build_levels();
  [[nodiscard]] int cell_index(const geom::Point& c) const;

  /// Lower bound on cost(query, j) given a lower bound `d` on the
  /// merging-segment distance and j's exact item. Prices the Eq. 3 wire
  /// term *per side*: the balance split at distance `d` with the exact
  /// coefficients, each side's length weighted by its own p_floor. Valid
  /// because both split lengths are nondecreasing in the merge distance,
  /// so evaluating at `d` <= the true distance only shrinks them -- and
  /// decisively tighter than a min-p_floor whole-wire bound when the two
  /// weights differ by orders of magnitude (an active query scanning idle
  /// candidates, the dominant regime under activity floors). Slackened;
  /// compare with strict `>` only.
  [[nodiscard]] double pair_bound(const Item& q, double d,
                                  const Item& j) const {
    if (metric_ == Metric::Distance) return d * kSlack;
    const ct::BalanceSplit s = ct::balance_lengths(
        {q.a_coef, q.b_coef}, {j.a_coef, j.b_coef}, d, rc_);
    return (q.self_cost + j.self_cost +
            tech_->wire_cap(s.len_a) * q.p_floor +
            tech_->wire_cap(s.len_b) * j.p_floor) *
           kSlack;
  }

  /// The node's priced lower bound against query item `q` (see file
  /// comment); infinity for an empty subtree. The per-side wire floors
  /// come from the balance point's monotonicity: at fixed distance it is
  /// increasing in the partner's `a` and a monotone Mobius function of the
  /// partner's `b`, so its range over the node's coefficient envelope is
  /// spanned by the corners. Clamping the corner extremes into [0, d]
  /// lower-bounds each side's length (snake cases land on the clamp
  /// boundaries conservatively), the total keeps the snake floor
  /// (ct::merge_wire_total with the envelope-nearest `a` and max_b), and
  /// the slack between the total and the two per-side floors is priced at
  /// min(p_floor) -- a tiny LP solved in closed form.
  [[nodiscard]] double node_bound(const Item& q, const Node& n) const {
    if (n.count == 0) return std::numeric_limits<double>::infinity();
    const double d_rect = rect_dist(q.center, n.bx0, n.by0, n.bx1, n.by1);
    const double d = std::max(0.0, d_rect - q.reach - n.max_reach);
    if (metric_ == Metric::Distance) return d * kSlack;
    const ct::BranchCoeffs qc{q.a_coef, q.b_coef};
    const double total_lb = ct::merge_wire_total(
        qc, {std::clamp(q.a_coef, n.min_a, n.max_a), n.max_b}, d, rc_);
    // When the query itself carries the floor weight, the per-side refine
    // cannot beat pricing the whole span at p_floor_q -- and this is the
    // common case (most queries sit at the activity floor), so it skips
    // the corner divisions entirely.
    if (q.p_floor <= n.min_pf)
      return (q.self_cost + n.min_self +
              tech_->wire_cap(total_lb) * q.p_floor) *
             kSlack;
    const double len_a_lb = std::clamp(min_balance_point(qc, n, d), 0.0, d);
    const double len_b_lb =
        std::clamp(d - max_balance_point(qc, n, d), 0.0, d);
    const double extra =
        std::max(0.0, total_lb - len_a_lb - len_b_lb);
    return (q.self_cost + n.min_self +
            tech_->wire_cap(len_a_lb) * q.p_floor +
            tech_->wire_cap(len_b_lb) * n.min_pf +
            tech_->wire_cap(extra) * std::min(q.p_floor, n.min_pf)) *
           kSlack;
  }

  /// Extremes of the balance point over the node's coefficient envelope
  /// at distance `d`. The point is increasing in the partner's `a` and
  /// monotone (Mobius) in the partner's `b`, so the extremes sit at
  /// corners: min at a = min_a, max at a = max_a, each with b picked by
  /// comparing the two corner fractions via cross-multiplication (both
  /// denominators are positive) -- one division instead of two. The
  /// degenerate all-nonpositive-denominator case falls back to
  /// balance_point's even split.
  [[nodiscard]] double min_balance_point(const ct::BranchCoeffs& qc,
                                         const Node& n, double d) const {
    const double base = n.min_a - qc.a + 0.5 * rc_ * d * d;
    const double n1 = base + d * n.min_b;
    const double n2 = base + d * n.max_b;
    const double d1 = qc.b + n.min_b + rc_ * d;
    const double d2 = qc.b + n.max_b + rc_ * d;
    if (d1 <= 0.0)
      return std::min(ct::balance_point(qc, {n.min_a, n.min_b}, d, rc_),
                      ct::balance_point(qc, {n.min_a, n.max_b}, d, rc_));
    return n1 * d2 <= n2 * d1 ? n1 / d1 : n2 / d2;
  }

  [[nodiscard]] double max_balance_point(const ct::BranchCoeffs& qc,
                                         const Node& n, double d) const {
    const double base = n.max_a - qc.a + 0.5 * rc_ * d * d;
    const double n1 = base + d * n.min_b;
    const double n2 = base + d * n.max_b;
    const double d1 = qc.b + n.min_b + rc_ * d;
    const double d2 = qc.b + n.max_b + rc_ * d;
    if (d1 <= 0.0)
      return std::max(ct::balance_point(qc, {n.max_a, n.min_b}, d, rc_),
                      ct::balance_point(qc, {n.max_a, n.max_b}, d, rc_));
    return n1 * d2 >= n2 * d1 ? n1 / d1 : n2 / d2;
  }

  /// Manhattan distance from `p` to the (axis-aligned, chip-plane)
  /// rectangle [x0,x1] x [y0,y1]; 0 when inside.
  static double rect_dist(const geom::Point& p, double x0, double y0,
                          double x1, double y1) {
    const double dx = std::max({0.0, x0 - p.x, p.x - x1});
    const double dy = std::max({0.0, y0 - p.y, p.y - y1});
    return dx + dy;
  }

  /// Bounds and exact costs come from different float expressions, so a
  /// few ulps of slack keep a legitimate (tie-capable) candidate from
  /// looking strictly dominated.
  static constexpr double kSlack = 1.0 - 1e-9;

  /// How many of the globally cheapest-self candidates seed the incumbent
  /// before the pyramid descent (SwitchedCap only). In the activity-floor
  /// regime the optimum partner is usually among these few, so the DFS
  /// starts with a near-final cutoff; the seeds are only a hint, never a
  /// completeness requirement.
  static constexpr int kSelfSeeds = 8;

  Metric metric_{Metric::Distance};
  const tech::TechParams* tech_{nullptr};
  double rc_{0.0};  ///< unit_res * unit_cap (snake-length quadratic term)
  int dim_{1};
  int size_{0};
  int last_rebuild_size_{0};
  std::uint64_t rebuilds_{0};
  double xlo_{0.0}, ylo_{0.0}, w_{1.0}, h_{1.0};
  std::vector<std::vector<int>> bucket_ids_;  ///< level-0 member lists
  /// levels_[0] is the bucket grid (dim_ x dim_); each higher level
  /// halves the dimension (ceil) until 1x1. level_dim_[k] is its width;
  /// cells are stored block-major (see slot()), and the padding slots of a
  /// ragged last block row or column stay empty.
  std::vector<std::vector<Node>> levels_;
  std::vector<int> level_dim_;
  std::vector<Item> items_;   ///< node id -> item (valid while stored)
  std::vector<int> cell_of_;  ///< node id -> level-0 cell (-1 when absent)
  /// All stored items ordered by (self_cost, id) -- the SwitchedCap
  /// query's incumbent-seed order (first kSelfSeeds entries). Exact under
  /// mutation (erase on remove), so it needs no rebuild; empty for
  /// Metric::Distance.
  std::set<std::pair<double, int>> self_order_;
};

template <class Eval>
PartnerIndex::Best PartnerIndex::find_best(int id, Eval&& eval,
                                           QueryStats* stats) const {
  Best best;
  const Item& q = items_[static_cast<std::size_t>(id)];
  std::uint64_t evaluated = 0;
  std::uint64_t node_bounds = 0;
  std::uint64_t bucket_items = 0;

  /// Price one candidate: per-pair distance bound, then the caller's eval
  /// (which may apply its own tighter bound via the +inf protocol); ties
  /// resolve to the smallest partner id.
  const auto consider = [&](int j) {
    if (j == id) return;
    const Item& pj = items_[static_cast<std::size_t>(j)];
    if (best.partner >= 0) {
      const double d = std::max(
          0.0, geom::manhattan_dist(q.center, pj.center) - q.reach -
                   pj.reach);
      if (pair_bound(q, d, pj) > best.cost) return;
    }
    const double cost = eval(j, best.cost, best.partner >= 0);
    if (cost == std::numeric_limits<double>::infinity()) return;
    ++evaluated;
    if (cost < best.cost || (cost == best.cost && j < best.partner)) {
      best.cost = cost;
      best.partner = j;
    }
  };
  const auto scan_bucket = [&](int x, int y) {
    const std::vector<int>& ids = bucket(x, y);
    bucket_items += ids.size();
    for (const int j : ids) consider(j);
  };

  // Seed the incumbent from both ends of the cost structure before the
  // walk: the query's own bucket (the distance-0 neighborhood -- best when
  // cost is geometry-dominated) and, for SwitchedCap, the globally
  // cheapest-self candidates (best in the activity-floor regime, where the
  // wire term is nearly free and the optimum can sit anywhere on the die).
  // A near-final incumbent early is what lets node bounds discard whole
  // quadrants, and what arms the eval callback's own exact-geometry bound
  // from the first leaf scans.
  const int qcell = cell_of_[static_cast<std::size_t>(id)];
  const int qx = qcell % dim_;
  const int qy = qcell / dim_;
  scan_bucket(qx, qy);
  if (metric_ == Metric::SwitchedCap) {
    int seeds = kSelfSeeds;
    for (const auto& [s, j] : self_order_) {
      if (j == id) continue;
      // The walk doubles as an exact cutoff: cost(q, j') >= self_q +
      // self_j' for every later j', so once that exceeds the incumbent the
      // whole remaining order is strictly dominated -- not just the seed
      // budget exhausted.
      if (best.partner >= 0 && (q.self_cost + s) * kSlack > best.cost) break;
      if (seeds-- <= 0) break;
      consider(j);
    }
  }

  /// Queue the non-empty cells of the 2x2 block at (2*px, 2*py) on
  /// `level`, except (skip_x, skip_y), with their priced bounds. Cells
  /// past a ragged edge are padding slots that stay empty.
  const auto price_block = [&](int level, int px, int py, int skip_x,
                               int skip_y, Visit* out) -> int {
    const Node* block = &node(level, 2 * px, 2 * py);
    int n = 0;
    for (int k = 0; k < 4; ++k) {
      const int cx = 2 * px + k % 2;
      const int cy = 2 * py + k / 2;
      if (block[k].count == 0 || (cx == skip_x && cy == skip_y)) continue;
      ++node_bounds;
      out[n++] = {node_bound(q, block[k]), cx, cy};
    }
    sort_visits(out, n);
    return n;
  };

  // Best-first DFS below a node; re-test each node's bound at expansion
  // time because the incumbent may have improved since it was computed.
  const auto descend = [&](const auto& self, int level, const Visit* v,
                           int n) -> void {
    for (int k = 0; k < n; ++k) {
      if (best.partner >= 0 && v[k].bound > best.cost) continue;
      if (level == 0) {
        scan_bucket(v[k].x, v[k].y);
        continue;
      }
      Visit kids[4];
      const int nk = price_block(level - 1, v[k].x, v[k].y, -1, -1, kids);
      self(self, level - 1, kids, nk);
    }
  };

  // Walk outward: the siblings of the query's level-k ancestor, for k from
  // the bucket grid up to just below the root, partition every non-own
  // cell; nearer blocks come first, so the far quadrants meet a
  // near-final incumbent.
  int x = qx;
  int y = qy;
  for (int level = 0; level + 1 < num_levels(); ++level) {
    Visit sibs[4];
    const int ns = price_block(level, x / 2, y / 2, x, y, sibs);
    descend(descend, level, sibs, ns);
    x /= 2;
    y /= 2;
  }

  if (stats != nullptr) {
    stats->evaluated += evaluated;
    stats->node_bounds += node_bounds;
    stats->bucket_items += bucket_items;
  }
  return best;
}

}  // namespace gcr::cts
