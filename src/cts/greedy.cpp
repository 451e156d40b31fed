#include "cts/greedy.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

#include "cts/partner_index.h"
#include "guard/deadline.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "par/pool.h"
#include "prof/flightrec.h"

namespace gcr::cts {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Chunk grain of the indexed engine's sharded initial pass, in best-
/// partner queries (~900 ns each): a chunk carries about twice the measured
/// ~29 us pool dispatch, and a front of at most 64 leaves is a single chunk,
/// which gcr::par runs inline on the caller. Fixed: chunk boundaries depend
/// only on the range, never on the thread count.
constexpr std::int64_t kInitGrain = 64;

struct Candidate {
  int node{-1};  ///< topology node id
  ct::SubtreeTap tap;
  activity::ActivationMask mask;
  double p_en{1.0};
  double p_tr{0.0};
  double cp_dist{0.0};  ///< dist(CP, mid(ms)) -- Eq. 3 star estimate
  /// Floored probability weight max(p_en, min_prob_weight): the factor the
  /// Eq. 3 cost applies to this side's new clock edge.
  double p_floor{1.0};
  /// Merge-invariant part of this candidate's Eq. 3 contribution: the
  /// subtree cap re-switched through the new edge plus the enable-star
  /// terms. Everything in pair_cost except the new wire itself.
  double self_cost{0.0};
  /// Elmore branch-delay coefficients of an edge down to this subtree
  /// (delay(L) = a + b*L + (rc/2) L^2, gating per BuildOptions): what a
  /// zero-skew merge must balance, cached for pair_cost's balance split and
  /// for the index's bounds on the snaked wire a delay-mismatched pair buys.
  ct::BranchCoeffs coeffs;
  bool alive{false};
};

/// A candidate's cached best partner: exact when computed. A later-born
/// candidate that strictly beats it replaces it at birth; when the partner
/// dies the entry goes stale but keeps its cost, which (pair costs being
/// immutable) still bounds the owner's true best from below -- both engines
/// repair such an entry only when it surfaces as the least one.
struct BestPartner {
  double cost{kInf};
  int partner{-1};
};

/// The chosen merge and its Eq. 3 cost (the switched-cap delta).
struct Pick {
  int a{-1};
  int b{-1};
  double cost{0.0};
};

/// Strict total order on candidate pairs: by cost, then by the canonical
/// (lower id, higher id) pair. This is the tie-break every scan and every
/// reduction uses, so the chosen merge is independent of scan order, of
/// the active-front permutation the swap-removes produce, and of the
/// thread count.
bool pair_less(double cost_x, int x1, int x2, double cost_y, int y1, int y2) {
  if (cost_x != cost_y) return cost_x < cost_y;
  const int xlo = std::min(x1, x2), xhi = std::max(x1, x2);
  const int ylo = std::min(y1, y2), yhi = std::max(y1, y2);
  if (xlo != ylo) return xlo < ylo;
  return xhi < yhi;
}

/// A lazy-deletion heap entry for the indexed engine: `owner`'s cached best
/// partner at the time best_[owner] was last written. Entries are never
/// removed eagerly; pop-time validation discards the ones whose owner has
/// since died or been recomputed, and *repairs* (recomputes on the spot)
/// the ones whose partner has died -- a stale cost is a lower bound on the
/// owner's true current best, so it surfaces no later than the entry that
/// replaces it and the pop order stays exact.
struct HeapEntry {
  double cost{kInf};
  int owner{-1};
  int partner{-1};
};

/// Orders a max-heap (std::priority_queue) so its top is the *minimum*
/// under the strict (cost, lower-id, higher-id) pair order. The mirror
/// entries (i best-of j, j best-of i) compare equal on purpose: they name
/// the same merge, and either one validates into the same Pick.
struct HeapEntryAfter {
  bool operator()(const HeapEntry& x, const HeapEntry& y) const {
    return pair_less(y.cost, y.owner, y.partner, x.cost, x.owner, x.partner);
  }
};

/// Bottom-up greedy over the live merge front. Two interchangeable ways to
/// find each merge, both exact under the strict (cost, lower-id, higher-id)
/// order and therefore bit-identical (see greedy.h):
///
///   * indexed (the production engine): PartnerIndex queries plus a
///     lazy-deletion heap of cached best partners;
///   * reference (`partner_index = false`, and always for ActivityOnly): a
///     serial best-partner array; each entry is a plain rescan of the whole
///     front, checked against every newborn candidate and rescanned again
///     only when it surfaces as the least entry with a dead partner -- no
///     pruning, no pool, no heap, no code shared with the index.
class GreedyEngine {
 public:
  GreedyEngine(std::span<const TapSeed> seeds,
               const activity::ActivityAnalyzer* analyzer,
               const BuildOptions& opts)
      : opts_(opts),
        analyzer_(analyzer),
        topo_(static_cast<int>(seeds.size())),
        width_(par::resolve_threads(opts.num_threads)),
        indexed_(opts.partner_index &&
                 opts.cost != MergeCost::ActivityOnly) {
    assert(!seeds.empty());
    assert(opts.cost == MergeCost::NearestNeighbor || analyzer != nullptr);
    const int n = static_cast<int>(seeds.size());
    cands_.resize(static_cast<std::size_t>(2 * n - 1));
    best_.resize(cands_.size());
    pos_.assign(cands_.size(), -1);

    // Seed bounding box over merging-segment centers. Centers suffice: the
    // index only uses the box for bucketing and clamps outliers to the
    // border cells, never for correctness.
    double xlo = kInf, xhi = -kInf, ylo = kInf, yhi = -kInf;
    for (const TapSeed& seed : seeds) {
      const geom::Point c = seed.tap.ms.center();
      xlo = std::min(xlo, c.x);
      xhi = std::max(xhi, c.x);
      ylo = std::min(ylo, c.y);
      yhi = std::max(yhi, c.y);
    }
    // Distance tie term for ActivityOnly: every merging segment stays
    // inside the seed bounding box, so dist <= diag and the term stays
    // below 1e-9 -- under any probability step of a < 10^9-cycle stream,
    // whatever the coordinate scale.
    const double diag = (xhi - xlo) + (yhi - ylo);
    tie_eps_ = 1e-9 / std::max(diag, 1.0);
    if (indexed_) {
      index_.init(opts_.cost == MergeCost::NearestNeighbor
                      ? PartnerIndex::Metric::Distance
                      : PartnerIndex::Metric::SwitchedCap,
                  &opts_.tech, 2 * n - 1, n, xlo, ylo, xhi - xlo, yhi - ylo);
    }

    for (int i = 0; i < n; ++i) {
      const TapSeed& seed = seeds[static_cast<std::size_t>(i)];
      Candidate& c = cands_[static_cast<std::size_t>(i)];
      c.node = i;
      c.tap = seed.tap;
      c.alive = true;
      if (analyzer_) {
        c.mask = seed.mask;
        c.p_en = analyzer_->signal_prob(c.mask);
        c.p_tr = analyzer_->transition_prob(c.mask);
      }
      c.cp_dist = geom::manhattan_dist(opts.control_point, c.tap.ms.center());
      finish_candidate(c);
      activate(i);
    }
  }

  BuildResult run() {
    const int n = topo_.num_leaves();
    obs::TraceSink* trace = obs::active_trace();
    // Hoisted: the ambient deadline cannot change during the run, and the
    // per-merge poll sits on the serial coordinating thread -- a merge
    // either happens completely or not at all at every thread width.
    const guard::Deadline* dl = guard::current_deadline();
    if (indexed_) {
      init_index_bests();
    } else {
      for (const int i : active_) recompute_best(i);
    }
    for (int step = 0; step + 1 < n; ++step) {
      if (dl != nullptr && dl->expired()) throw guard::CancelledError("topology");
      const Pick pick = indexed_ ? pick_min_pair_indexed() : pick_min_pair();
      if (trace) trace_merge_decision(*trace, pick);
      merge(pick.a, pick.b);
      if (prof::recorder_enabled())
        prof::record(prof::Ev::Merge, "merge", pick.a, pick.b, pick.cost);
      if (obs::metrics_enabled()) [[unlikely]] {
        static obs::Counter& c = obs::Registry::global().counter("cts.merges");
        c.inc();
      }
    }
    BuildResult out{std::move(topo_), {}, {}, {}};
    if (analyzer_) {
      out.mask.reserve(cands_.size());
      out.p_en.reserve(cands_.size());
      out.p_tr.reserve(cands_.size());
      for (const Candidate& c : cands_) {
        out.mask.push_back(c.mask);
        out.p_en.push_back(c.p_en);
        out.p_tr.push_back(c.p_tr);
      }
    }
    return out;
  }

 private:
  /// Derived Eq. 3 fields (floored weight, merge-invariant cost part);
  /// call after p_en/p_tr/cp_dist/tap are final.
  void finish_candidate(Candidate& c) const {
    const tech::TechParams& t = opts_.tech;
    c.p_floor = std::max(c.p_en, opts_.min_prob_weight);
    c.self_cost = c.tap.cap * c.p_floor +
                  (t.wire_cap(c.cp_dist) + t.gate_enable_cap) * c.p_tr;
    c.coeffs = ct::branch_coeffs(c.tap, opts_.gated_edges, t);
  }

  /// The index's view of a candidate: merging-segment center, reach (max
  /// Manhattan distance from center to the segment -- Chebyshev half-extent
  /// in the rotated frame), and the Eq. 3 bound ingredients.
  [[nodiscard]] PartnerIndex::Item index_item(const Candidate& c) const {
    const geom::TiltedRect& ms = c.tap.ms;
    PartnerIndex::Item it;
    it.center = ms.center();
    it.reach = 0.5 * std::max(ms.uhi() - ms.ulo(), ms.whi() - ms.wlo());
    it.self_cost = c.self_cost;
    it.p_floor = c.p_floor;
    it.a_coef = c.coeffs.a;
    it.b_coef = c.coeffs.b;
    return it;
  }

  void activate(int id) {
    pos_[static_cast<std::size_t>(id)] = static_cast<int>(active_.size());
    active_.push_back(id);
    if (indexed_)
      index_.insert(id, index_item(cands_[static_cast<std::size_t>(id)]));
  }

  /// O(1) swap-remove from the active front (the old std::erase pair was an
  /// O(front) memmove per merge).
  void deactivate(int id) {
    const int p = pos_[static_cast<std::size_t>(id)];
    const int last = active_.back();
    active_[static_cast<std::size_t>(p)] = last;
    pos_[static_cast<std::size_t>(last)] = p;
    active_.pop_back();
    pos_[static_cast<std::size_t>(id)] = -1;
    if (indexed_) index_.remove(id);
  }

  /// Cost of merging two live candidates. Deliberately uninstrumented --
  /// this is the innermost loop; callers bulk-count candidate evaluations
  /// per scan instead. Always evaluated with the lower node id as `x`, the
  /// side merge() commits as `a`: the Eq. 3 expression is not bit-symmetric
  /// under a swap (the balance split and the summation round differently),
  /// and the engines price a pair from either end, so an order-dependent
  /// cost could break a near-tie one way in the index and the other way in
  /// the reference rescan.
  double pair_cost(const Candidate& p, const Candidate& q) const {
    const Candidate& x = p.node < q.node ? p : q;
    const Candidate& y = p.node < q.node ? q : p;
    if (opts_.cost == MergeCost::NearestNeighbor)
      return x.tap.ms.distance_to(y.tap.ms);
    if (opts_.cost == MergeCost::ActivityOnly) {
      // Joint enable probability dominates; distance only breaks ties.
      // The epsilon is scaled by the seed bounding-box diagonal (see the
      // constructor) so the term stays below the stream's smallest
      // probability step even for chip-scale coordinates.
      const double p_union = analyzer_->signal_prob(x.mask | y.mask);
      return p_union + tie_eps_ * x.tap.ms.distance_to(y.tap.ms);
    }
    // Eq. 3: switched capacitance added by this merge (probability weights
    // floored; see BuildOptions::min_prob_weight). The edge lengths come
    // straight from the closed-form balance split -- the merged-segment
    // geometry zero_skew_merge would also compute is irrelevant to the
    // cost, and skipping it makes an evaluation ~10x cheaper. Committed
    // merges call the same ct::balance_lengths, so priced and built trees
    // agree bit-for-bit.
    const tech::TechParams& t = opts_.tech;
    const ct::BalanceSplit m =
        ct::balance_lengths(x.coeffs, y.coeffs,
                            x.tap.ms.distance_to(y.tap.ms),
                            t.unit_res * t.unit_cap);
    return (t.wire_cap(m.len_a) + x.tap.cap) * x.p_floor +
           (t.wire_cap(m.len_b) + y.tap.cap) * y.p_floor +
           (t.wire_cap(x.cp_dist) + t.gate_enable_cap) * x.p_tr +
           (t.wire_cap(y.cp_dist) + t.gate_enable_cap) * y.p_tr;
  }

  /// Reference engine: best_[i] by a plain scan of the whole front, the
  /// exact (cost, smallest-partner-id) argmin.
  void recompute_best(int i) {
    BestPartner bp;
    const Candidate& ci = cands_[static_cast<std::size_t>(i)];
    for (const int j : active_) {
      if (j == i) continue;
      const double cost = pair_cost(ci, cands_[static_cast<std::size_t>(j)]);
      if (cost < bp.cost || (cost == bp.cost && j < bp.partner)) {
        bp.cost = cost;
        bp.partner = j;
      }
    }
    best_[static_cast<std::size_t>(i)] = bp;
    const auto evaluated = static_cast<std::uint64_t>(active_.size() - 1);
    trace_recompute(i, bp, evaluated);
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& recomputes =
          obs::Registry::global().counter("cts.best_partner_recomputes");
      static obs::Counter& evals =
          obs::Registry::global().counter("cts.candidate_evals");
      recomputes.inc();
      evals.inc(evaluated);
    }
  }

  /// One instant event per best-partner recompute. The indexed engine's
  /// initial pass runs inside pool chunks, so its events land on the
  /// worker's own trace track; they only reach the sink because workers
  /// carry the session binding (Session::WorkerViewTag in par::ThreadPool)
  /// -- without it, active_trace() is null on a pool thread and the
  /// decision is lost.
  static void trace_recompute(int i, const BestPartner& bp,
                              std::uint64_t evaluated) {
    if (obs::TraceSink* trace = obs::active_trace()) {
      obs::Session* s = obs::current();
      obs::TraceEvent e;
      e.name = "recompute";
      e.cat = "cts";
      e.ph = 'i';
      e.ts_us = s != nullptr ? s->now_us() : 0.0;
      e.args.push_back(obs::TraceArg::num("node", static_cast<long long>(i)));
      e.args.push_back(
          obs::TraceArg::num("partner", static_cast<long long>(bp.partner)));
      e.args.push_back(obs::TraceArg::num("cost", bp.cost));
      e.args.push_back(obs::TraceArg::num(
          "evaluated", static_cast<long long>(evaluated)));
      trace->event(std::move(e));
    }
  }

  /// Recompute best_[i] through the partner index: the exact (cost,
  /// smallest-partner-id) argmin over every live candidate, with the index
  /// bounds skipping strictly-dominated buckets/pairs. Survivors pay the
  /// exact pair cost directly: since pair_cost prices through the
  /// closed-form balance split it costs about the same as a per-pair Eq. 3
  /// bound, so a second engine-side bound check before it would only
  /// double the work. Writes only best_[i]; safe to run for disjoint i
  /// from pool workers.
  void index_recompute(int i) {
    const Candidate& ci = cands_[static_cast<std::size_t>(i)];
    PartnerIndex::QueryStats qs;
    const PartnerIndex::Best fb = index_.find_best(
        i,
        [&](int j, double, bool) {
          return pair_cost(ci, cands_[static_cast<std::size_t>(j)]);
        },
        &qs);
    BestPartner bp{fb.cost, fb.partner};
    best_[static_cast<std::size_t>(i)] = bp;
    trace_recompute(i, bp, qs.evaluated);
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& recomputes =
          obs::Registry::global().counter("cts.best_partner_recomputes");
      static obs::Counter& evals =
          obs::Registry::global().counter("cts.candidate_evals");
      static obs::Counter& queries =
          obs::Registry::global().counter("cts.index_queries");
      static obs::Counter& node_bounds =
          obs::Registry::global().counter("cts.index_node_bounds");
      static obs::Counter& bucket_items =
          obs::Registry::global().counter("cts.index_bucket_items");
      recomputes.inc();
      queries.inc();
      evals.inc(qs.evaluated);
      if (qs.node_bounds > 0) node_bounds.inc(qs.node_bounds);
      if (qs.bucket_items > 0) bucket_items.inc(qs.bucket_items);
    }
  }

  /// Push best_[i]'s heap entry. Call once per best_ write, on the
  /// coordinating thread.
  void link(int i) {
    const BestPartner& bp = best_[static_cast<std::size_t>(i)];
    if (bp.partner < 0) return;
    heap_.push(HeapEntry{bp.cost, i, bp.partner});
  }

  /// Initial pass of the indexed engine: every leaf's exact best partner
  /// over all leaves, sharded across the pool (disjoint best_ writes),
  /// then serially linked in id order. The engine's only parallel
  /// construct.
  void init_index_bests() {
    const auto n = static_cast<std::int64_t>(active_.size());
    par::parallel_for(width_, 0, n, kInitGrain,
                      [&](std::int64_t b, std::int64_t e) {
                        for (std::int64_t p = b; p < e; ++p)
                          index_recompute(active_[static_cast<std::size_t>(p)]);
                      });
    for (const int i : active_) link(i);
  }

  /// Pop the heap down to the first entry that still describes a live
  /// cached best, repairing stale entries (dead partner) as they surface.
  /// By the lazy invariant (docs/ALGORITHMS.md) the first live entry is
  /// exactly the (cost, lower-id, higher-id) argmin over all live pairs,
  /// the same pick the reference rescan would make. Repair-at-the-top is
  /// what keeps the query count near-linear: a candidate whose partner
  /// died k times since its last recompute is repaired once, and only if
  /// its (lower-bound) cached cost ever reaches the top at all.
  Pick pick_min_pair_indexed() {
    assert(active_.size() >= 2);
    while (!heap_.empty()) {
      const HeapEntry e = heap_.top();
      heap_.pop();
      const BestPartner& bp = best_[static_cast<std::size_t>(e.owner)];
      if (!cands_[static_cast<std::size_t>(e.owner)].alive ||
          bp.partner != e.partner || bp.cost != e.cost)
        continue;  // owner dead, or a superseded duplicate entry
      if (!cands_[static_cast<std::size_t>(e.partner)].alive) {
        // Deferred repair. Pair costs are immutable, so this entry's cost
        // can only underbid or tie the owner's true current best -- the
        // entry surfaces no later than the one that replaces it, and the
        // exactness argument (docs/ALGORITHMS.md) survives the deferral.
        index_recompute(e.owner);
        link(e.owner);
        continue;
      }
      Pick pick;
      pick.a = std::min(e.owner, e.partner);
      pick.b = std::max(e.owner, e.partner);
      pick.cost = e.cost;
      return pick;
    }
    // Unreachable while the lazy invariant holds; degrade gracefully by
    // refreshing the whole front and re-linking, rather than crashing.
    assert(false && "partner-index heap exhausted");
    for (const int i : active_) index_recompute(i);
    for (const int i : active_) link(i);
    return pick_of(front_argmin());
  }

  /// Index maintenance after a merge (its two halves already deactivated):
  /// insert the new node and compute its best partner. Candidates whose
  /// cached best was a merged half are NOT recomputed here -- their heap
  /// entries repair lazily if and when they surface in
  /// pick_min_pair_indexed. Deferral coalesces the fan-in: a popular
  /// partner's death costs one repair per *surfacing* dependent, not one
  /// recompute per dependent per death.
  void index_post_merge(int id) {
    activate(id);
    if (index_.maybe_rebuild()) {
      if (obs::metrics_enabled()) [[unlikely]] {
        static obs::Counter& rebuilds =
            obs::Registry::global().counter("cts.index_rebuilds");
        rebuilds.inc();
      }
    }
    index_recompute(id);
    link(id);
  }

  /// Reference engine pick: the least cached entry, repaired by a rescan
  /// and re-sought while its partner is dead. A stale entry's cost bounds
  /// its owner's true best from below, and its partner id is no larger
  /// than any live partner it ties with (that partner was either scanned
  /// or born later with a larger id), so it orders no later than the true
  /// minimum pair; the first least entry with a live partner is therefore
  /// exactly the (cost, lower-id, higher-id) argmin over all live pairs.
  Pick pick_min_pair() {
    assert(active_.size() >= 2);
    for (;;) {
      const int i = front_argmin();
      const int partner = best_[static_cast<std::size_t>(i)].partner;
      if (cands_[static_cast<std::size_t>(partner)].alive) return pick_of(i);
      recompute_best(i);
    }
  }

  /// The front member whose cached best partner entry is least under the
  /// (cost, lower-id, higher-id) order.
  [[nodiscard]] int front_argmin() const {
    int besti = -1;
    for (const int i : active_) {
      const BestPartner& bp = best_[static_cast<std::size_t>(i)];
      if (besti < 0 ||
          pair_less(bp.cost, i, bp.partner,
                    best_[static_cast<std::size_t>(besti)].cost, besti,
                    best_[static_cast<std::size_t>(besti)].partner))
        besti = i;
    }
    return besti;
  }

  /// The merge named by i's cached best partner entry.
  [[nodiscard]] Pick pick_of(int i) const {
    const BestPartner& bp = best_[static_cast<std::size_t>(i)];
    Pick pick;
    pick.a = std::min(i, bp.partner);
    pick.b = std::max(i, bp.partner);
    pick.cost = bp.cost;
    return pick;
  }

  /// One instant event per Eq. 3 decision: the chosen pair, its
  /// switched-cap delta, the runner-up (cheapest alternative merge, i.e.
  /// the best pair that is not the chosen one or its mirror), and the
  /// current front size. Both engines defer repairs, so entries whose
  /// partner has died are skipped -- the runner-up is best-effort, never a
  /// dead pair.
  void trace_merge_decision(obs::TraceSink& trace, const Pick& pick) const {
    int ru = -1;
    double ru_cost = std::numeric_limits<double>::infinity();
    for (const int i : active_) {
      if (i == pick.a) continue;
      const BestPartner& bp = best_[static_cast<std::size_t>(i)];
      if (i == pick.b && bp.partner == pick.a) continue;
      if (bp.partner < 0 ||
          !cands_[static_cast<std::size_t>(bp.partner)].alive)
        continue;
      if (bp.cost < ru_cost) {
        ru_cost = bp.cost;
        ru = i;
      }
    }
    obs::Session* s = obs::current();
    obs::TraceEvent e;
    e.name = "merge";
    e.cat = "cts";
    e.ph = 'i';
    e.ts_us = s ? s->now_us() : 0.0;
    e.args.push_back(obs::TraceArg::num("a", static_cast<long long>(pick.a)));
    e.args.push_back(obs::TraceArg::num("b", static_cast<long long>(pick.b)));
    e.args.push_back(obs::TraceArg::num("cost", pick.cost));
    if (ru >= 0) {
      e.args.push_back(obs::TraceArg::num("runner_up_a",
                                          static_cast<long long>(ru)));
      e.args.push_back(obs::TraceArg::num(
          "runner_up_b",
          static_cast<long long>(best_[static_cast<std::size_t>(ru)].partner)));
      e.args.push_back(obs::TraceArg::num("runner_up_cost", ru_cost));
    }
    e.args.push_back(obs::TraceArg::num(
        "front", static_cast<long long>(active_.size())));
    trace.event(std::move(e));
  }

  void merge(int a, int b) {
    Candidate& ca = cands_[static_cast<std::size_t>(a)];
    Candidate& cb = cands_[static_cast<std::size_t>(b)];
    const ct::MergeResult m = ct::zero_skew_merge(
        ca.tap, opts_.gated_edges, cb.tap, opts_.gated_edges, opts_.tech);

    const int id = topo_.merge(ca.node, cb.node);
    Candidate& cn = cands_[static_cast<std::size_t>(id)];
    cn.node = id;
    cn.tap.ms = m.ms;
    cn.tap.delay = m.delay;
    cn.tap.cap = m.cap;
    cn.alive = true;
    if (analyzer_) {
      cn.mask = ca.mask | cb.mask;
      cn.p_en = analyzer_->signal_prob(cn.mask);
      cn.p_tr = analyzer_->transition_prob(cn.mask);
    }
    cn.cp_dist = geom::manhattan_dist(opts_.control_point, cn.tap.ms.center());
    finish_candidate(cn);

    ca.alive = false;
    cb.alive = false;
    deactivate(a);
    deactivate(b);

    if (indexed_) {
      index_post_merge(id);
      return;
    }

    // Reference engine: the new candidate may beat existing best partners;
    // refresh every front member and find the new node's own best in one
    // pass.
    BestPartner bn;
    for (const int j : active_) {
      const double cost = pair_cost(cn, cands_[static_cast<std::size_t>(j)]);
      BestPartner& bj = best_[static_cast<std::size_t>(j)];
      // (cost, id) tie-break: `id` is the largest live node id, so only a
      // strictly better cost may displace j's cached partner.
      if (cost < bj.cost) {
        bj.cost = cost;
        bj.partner = id;
      }
      if (cost < bn.cost || (cost == bn.cost && j < bn.partner)) {
        bn.cost = cost;
        bn.partner = j;
      }
    }
    best_[static_cast<std::size_t>(id)] = bn;
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& evals =
          obs::Registry::global().counter("cts.candidate_evals");
      evals.inc(active_.size());
    }
    activate(id);
  }

  BuildOptions opts_;
  const activity::ActivityAnalyzer* analyzer_;
  ct::Topology topo_;
  int width_;        ///< pool width of the indexed initial pass
  bool indexed_;     ///< partner index armed (geometric costs only)
  double tie_eps_;   ///< ActivityOnly distance tie epsilon (bbox-scaled)
  std::vector<Candidate> cands_;
  std::vector<BestPartner> best_;
  std::vector<int> active_;  ///< live node ids (order mutates via swap-remove)
  std::vector<int> pos_;     ///< node id -> index in active_ (-1 when dead)
  // Indexed engine state (unused by the reference engine).
  PartnerIndex index_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapEntryAfter>
      heap_;
};

}  // namespace

BuildResult build_topology_taps(std::span<const TapSeed> seeds,
                                const activity::ActivityAnalyzer* analyzer,
                                const BuildOptions& opts) {
  if (seeds.empty()) return BuildResult{ct::Topology(0), {}, {}, {}};
  if (seeds.size() == 1) {
    BuildResult out{ct::Topology(1), {}, {}, {}};
    if (analyzer) {
      out.mask.push_back(seeds[0].mask);
      out.p_en.push_back(analyzer->signal_prob(out.mask[0]));
      out.p_tr.push_back(analyzer->transition_prob(out.mask[0]));
    }
    return out;
  }
  GreedyEngine engine(seeds, analyzer, opts);
  return engine.run();
}

BuildResult build_topology_seeded(std::span<const SeedSink> seeds,
                                  const activity::ActivityAnalyzer* analyzer,
                                  const BuildOptions& opts) {
  std::vector<TapSeed> taps;
  taps.reserve(seeds.size());
  for (const SeedSink& s : seeds) {
    TapSeed t;
    t.tap.ms = geom::TiltedRect::from_point(s.sink.loc);
    t.tap.delay = 0.0;
    t.tap.cap = s.sink.cap;
    t.mask = s.mask;
    taps.push_back(std::move(t));
  }
  return build_topology_taps(taps, analyzer, opts);
}

BuildResult build_topology(std::span<const ct::Sink> sinks,
                           const activity::ActivityAnalyzer* analyzer,
                           std::span<const int> leaf_module,
                           const BuildOptions& opts) {
  std::vector<SeedSink> seeds;
  seeds.reserve(sinks.size());
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    SeedSink s{sinks[i], activity::ActivationMask()};
    if (analyzer) s.mask = analyzer->module_mask(leaf_module[i]);
    seeds.push_back(std::move(s));
  }
  return build_topology_seeded(seeds, analyzer, opts);
}

std::vector<int> identity_modules(int num_sinks) {
  std::vector<int> ids(static_cast<std::size_t>(num_sinks));
  for (int i = 0; i < num_sinks; ++i) ids[static_cast<std::size_t>(i)] = i;
  return ids;
}

TopologyActivity annotate_topology(const ct::Topology& topo,
                                   const activity::ActivityAnalyzer& analyzer,
                                   std::span<const int> leaf_module) {
  const int n = topo.num_nodes();
  TopologyActivity act;
  act.mask.assign(static_cast<std::size_t>(n),
                  activity::ActivationMask(analyzer.num_instructions()));
  act.p_en.assign(static_cast<std::size_t>(n), 0.0);
  act.p_tr.assign(static_cast<std::size_t>(n), 0.0);
  for (int id = 0; id < n; ++id) {  // ids ascend bottom-up
    const ct::TreeNode& node = topo.node(id);
    auto& mask = act.mask[static_cast<std::size_t>(id)];
    if (node.is_leaf()) {
      mask = analyzer.module_mask(leaf_module[static_cast<std::size_t>(id)]);
    } else {
      mask = act.mask[static_cast<std::size_t>(node.left)] |
             act.mask[static_cast<std::size_t>(node.right)];
    }
    act.p_en[static_cast<std::size_t>(id)] = analyzer.signal_prob(mask);
    act.p_tr[static_cast<std::size_t>(id)] = analyzer.transition_prob(mask);
  }
  return act;
}

}  // namespace gcr::cts
