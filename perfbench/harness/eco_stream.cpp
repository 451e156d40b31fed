// eco_stream: a seeded 16,384-sink base routed in set-up, then seeded
// single-sink edits (~70% moves, 15% adds, 15% removes), each one
// eco::route_incremental call against the base result, in a closed loop
// with one caller. --seconds fixes the number of edits (kEditsPerSecond
// each, at least kMinEdits), never the host's speed. The traced run
// makes exactly kMinEdits. The probe runs before the set-up and between
// blocks of kProbeBlock edits. Each edit is scaled by the samples on
// either side of its block, since this workload's speed follows the
// host's from block to block; setup_s by the median of all samples.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "eco/incremental.h"
#include "obs/metrics.h"
#include "pipeline.h"
#include "verify/invariants.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kSinks = 16384;
constexpr int kStreamLength = 20000;
constexpr int kMinEdits = 300;  // the tail rule gives p95 at this count
constexpr double kEditsPerSecond = 60.0;
constexpr double kLimitMs = 100.0;  // per edit
constexpr std::size_t kProbeBlock = 20;  // edits between probe samples
constexpr std::uint64_t kEditStream = 0xec0;
// The sensitivity that kept the scaled spread lowest over the measured
// sets of runs (README.md).
constexpr double kHostSensitivity = 0.75;

}  // namespace

Outcome run_eco_stream(const Args& a, HostProbe& probe, Tracer* t) {
  const std::string dir = a.out_dir + "/eco_stream";
  std::filesystem::create_directories(dir);
  Outcome o;
  gc::RouterOptions opts;
  opts.num_threads = 1;

  DesignFiles files;
  std::optional<DiskRoute> base;
  probe.sample_ms();
  const double setup_s = timed_setup(3, [&] {
    base.reset();
    files = write_design(generate_design({kSinks, kStreamLength}, a.seed), dir, "base");
    base.emplace(route_from_disk(files, dir + "/base.tree", opts, nullptr));
  });
  if (t != nullptr) {
    // The base once more under spans, with the replay of its flow.
    base.reset();
    base.emplace(route_from_disk(files, dir + "/base.tree", opts, t));
    const Replay rep = replay_route(*base->router, opts, t);
    o.layers.parse_bytes = static_cast<double>(base->bytes_read);
    o.layers.write_bytes = static_cast<double>(base->bytes_written);
    o.layers.gates_before = rep.gates_before;
    o.layers.gates_kept = rep.gates_kept;
    ++o.attempted;
    if (rep.total_swcap != base->result.swcap.total_swcap())
      o.fail("eco_stream: replayed base flow differs from route()");
    gcr::obs::Registry::global().reset();
  }
  const gc::GatedClockRouter& router = *base->router;
  const gc::Design& bd = router.design();

  // The closed loop over the seeded edit stream, in blocks of
  // kProbeBlock edits with a probe sample between blocks. The traced run
  // traces alternate blocks of 10 edits and runs the others untraced, so
  // the overhead share compares edits made over the same minutes.
  struct Edit {
    double ms{0.0};  ///< raw wall time
    bool traced{false};
    bool good{false};
    double w{0.0};
  };
  std::vector<double> apply_ms, full_ms, cone_self_ms, cone_nodes, spine, per_node;
  Rng rng(a.seed ^ kEditStream);
  const int count = t != nullptr ? kMinEdits
                                  : std::max(kMinEdits, static_cast<int>(std::lround(
                                                            kEditsPerSecond * a.seconds)));
  std::vector<Edit> edits;
  std::vector<double> probe_ms;  // before block b is probe_ms[b]
  while (static_cast<int>(edits.size()) < count) {
    if (edits.size() % kProbeBlock == 0) probe_ms.push_back(probe.sample_ms());
    const gcr::eco::DesignDelta delta = random_edit(bd, rng);
    const auto id = static_cast<std::uint64_t>(edits.size() + 1);
    Edit e;
    e.traced = t != nullptr && (id / 10) % 2 == 1;
    Tracer* tr = e.traced ? t : nullptr;
    const Span edit(tr, "eco.edit", id);
    std::optional<gc::Design> next;
    if (t != nullptr)
      apply_ms.push_back(timed_ms(tr, "eco.apply_delta",
                                  [&] { next = gcr::eco::apply_delta(bd, delta); }));
    gcr::eco::EcoInfo info;
    std::optional<gc::RouteOutcome> out;
    gcr::obs::set_metrics_enabled(e.traced);
    e.ms = timed_ms(tr, "eco.route_incremental", [&] {
      out = gcr::eco::route_incremental(router, base->result, delta, opts, &info);
    });
    gcr::obs::set_metrics_enabled(false);
    ++o.attempted;
    if (!out->ok()) {
      o.fail("eco_stream: edit " + std::to_string(id) + " failed: " +
             out->diag.first_error().to_string());
      edits.push_back(e);
      continue;
    }
    e.good = true;
    e.w = out->result->swcap.total_swcap();
    if (edits.size() % 10 == 0) {
      const gcr::verify::Report rep =
          gcr::verify::verify_tree(out->result->tree, opts.tech);
      if (!rep.ok()) {
        o.fail("eco_stream: verify_tree: " + rep.summary());
        e.good = false;
      }
    }
    if (t != nullptr) {
      double w = 0.0;
      const double full = timed_ms(tr, "eco.full_pass", [&] {
        w = replay_full_pass(*next, *out->result, opts, tr);
      });
      if (w != e.w) o.fail("eco_stream: full pass W differs from the edit's");
      const auto cone = static_cast<double>(
          std::count(info.in_cone.begin(), info.in_cone.end(), true));
      full_ms.push_back(full);
      cone_self_ms.push_back(e.ms - full);
      cone_nodes.push_back(cone);
      spine.push_back(info.spine_merges);
      per_node.push_back((e.ms - full) / std::max(1.0, cone));
    }
    edits.push_back(e);
  }
  probe_ms.push_back(probe.sample_ms());
  o.e2e.peak_rss_mb = peak_rss_mb(probe);

  std::vector<double> ms, nominal_ms, traced_ms, untraced_ms;
  int met = 0;
  double w_sum = 0.0;
  for (std::size_t i = 0; i < edits.size(); ++i) {
    const Edit& e = edits[i];
    const std::size_t b = i / kProbeBlock;
    ms.push_back(e.ms);
    nominal_ms.push_back(at_nominal(e.ms, 0.5 * (probe_ms[b] + probe_ms[b + 1]),
                                    kHostSensitivity));
    (e.traced ? traced_ms : untraced_ms).push_back(e.ms);
    met += e.good && e.ms <= kLimitMs ? 1 : 0;
    w_sum += e.w;
  }
  if (t == nullptr) {
    const double tail = tail_percentile(ms.size(), kTailCandidates);
    o.e2e.setup_s = at_nominal(setup_s, probe.median_ms(), kHostSensitivity);
    o.e2e.latency_p50_ms = median(nominal_ms);
    o.e2e.latency_tail_ms = percentile(nominal_ms, tail);
    log_wall_clock(a, median(ms), percentile(ms, tail), probe);
    o.e2e.slo_met_share = static_cast<double>(met) / static_cast<double>(edits.size());
    o.e2e.swcap_pf = w_sum / static_cast<double>(edits.size());
    return o;
  }
  auto& d = o.layers.direct;
  d["eco.apply_delta_ms"] = median(apply_ms);
  d["eco.incremental_ms"] = median(ms);
  d["eco.full_pass_ms"] = median(full_ms);
  d["eco.cone_self_ms"] = median(cone_self_ms);
  d["eco.cone_nodes"] = median(cone_nodes);
  d["eco.spine_merges"] = median(spine);
  d["eco.ms_per_cone_node"] = median(per_node);
  d["cts.merges"] = obs_counter("cts.merges");
  d["cts.index_queries"] = obs_counter("cts.index_queries");
  d["trace.overhead_share"] = median(traced_ms) / median(untraced_ms) - 1.0;
  d["host.probe_ms"] = probe.median_ms();
  return o;
}

}  // namespace perfbench
