// route_flat: seeded 16,384-sink designs, each routed from its three input
// files to a tree file with the gcr_route defaults (GatedReduced, Eq. 3,
// flat) at one thread. --seconds fixes the number of routes
// (kRoutesPerSecond of them, each on its own design), never the host's
// speed, so every host computes the same statistic. The probe runs
// before the set-up and after each route and its checks; the times are
// scaled by the median of those samples (kProbePasses passes each).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "io/tree_io.h"
#include "obs/metrics.h"
#include "pipeline.h"
#include "verify/differential.h"
#include "verify/invariants.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kSinks = 16384;
constexpr int kStreamLength = 20000;
constexpr double kRoutesPerSecond = 2.5;  // 20 routes at 8 s
constexpr double kLimitMs = 5000.0;  // per route
// Too few routes for the tail rule: the tail is the nearest-rank p80, the
// fifth slowest of twenty. The few slowest are one design's draw or one
// slow spell of the host, which the run's median probe sample misses.
constexpr double kTailPercentile = 80.0;
constexpr int kProbePasses = 5;
// The sensitivity that kept the scaled spread lowest over the measured
// sets of runs (README.md).
constexpr double kHostSensitivity = 0.75;

std::uint64_t design_seed(std::uint64_t seed, int i) {
  return Rng(seed * 7919u + static_cast<std::uint64_t>(i)).next();
}

}  // namespace

Outcome run_route_flat(const Args& a, HostProbe& probe, Tracer* t) {
  const std::string dir = a.out_dir + "/route_flat";
  std::filesystem::create_directories(dir);
  const std::string tree_path = dir + "/flat.tree";
  const int routes = t != nullptr ? 1
                                   : std::max(1, static_cast<int>(std::lround(
                                                     kRoutesPerSecond * a.seconds)));
  Outcome o;
  std::vector<DesignFiles> files(static_cast<std::size_t>(routes));
  probe.sample_ms(kProbePasses);
  const double setup_s = timed_setup(3, [&] {
    for (int i = 0; i < routes; ++i)
      files[static_cast<std::size_t>(i)] =
          write_design(generate_design({kSinks, kStreamLength}, design_seed(a.seed, i)),
                       dir, "flat" + std::to_string(i));
  });
  gc::RouterOptions opts;  // the gcr_route defaults
  opts.num_threads = 1;

  // One route and its gates: verify_result, then the tree file read back
  // once the router is gone, so no check holds more memory than a route.
  std::vector<double> ms;
  std::vector<bool> good;
  double w_sum = 0.0;
  const auto one_route = [&](const DesignFiles& in, Tracer* tr, bool last) {
    DiskRoute r = route_from_disk(in, tree_path, opts, tr);
    probe.sample_ms(kProbePasses);
    if (last) o.e2e.peak_rss_mb = peak_rss_mb(probe);
    const long failed_before = o.failed;
    ++o.attempted;
    ms.push_back(r.seconds * 1e3);
    w_sum += r.result.swcap.total_swcap();
    const std::uint64_t h = tree_hash(r.result.tree);
    const gcr::verify::Report rep = gcr::verify::verify_result(*r.router, opts, r.result);
    if (!rep.ok()) o.fail("route_flat: verify_result: " + rep.summary());
    r = DiskRoute{};
    if (file_hash(tree_path) != h) o.fail("route_flat: tree file differs from route()'s tree");
    std::ifstream is(tree_path);
    gcr::guard::Diag diag;
    const auto back = gcr::io::read_routed_tree(is, diag, tree_path);
    if (!back || tree_hash(*back) != h)
      o.fail("route_flat: tree file does not read back equal");
    good.push_back(o.failed == failed_before);
    probe.sample_ms(kProbePasses);
  };

  if (t == nullptr) {
    for (int i = 0; i < routes; ++i)
      one_route(files[static_cast<std::size_t>(i)], nullptr, i + 1 == routes);
    const double wall_p50 = median(ms);
    const double wall_tail = percentile(ms, kTailPercentile);
    const double speed = probe.median_ms();
    o.e2e.setup_s = at_nominal(setup_s, speed, kHostSensitivity);
    o.e2e.latency_p50_ms = at_nominal(wall_p50, speed, kHostSensitivity);
    o.e2e.latency_tail_ms = at_nominal(wall_tail, speed, kHostSensitivity);
    log_wall_clock(a, wall_p50, wall_tail, probe);
    int met = 0;
    for (std::size_t i = 0; i < ms.size(); ++i)
      met += good[i] && ms[i] <= kLimitMs ? 1 : 0;
    o.e2e.slo_met_share = static_cast<double>(met) / static_cast<double>(ms.size());
    o.e2e.swcap_pf = w_sum / static_cast<double>(routes);
    return o;
  }

  // Traced: the traced route with the obs registry on, between two
  // untraced routes of the same design for the overhead baseline, then
  // the replay of its flow.
  one_route(files[0], nullptr, false);
  gcr::obs::Registry::global().reset();
  gcr::obs::set_metrics_enabled(true);
  const DiskRoute r = route_from_disk(files[0], tree_path, opts, t);
  gcr::obs::set_metrics_enabled(false);
  ms.push_back(r.seconds * 1e3);
  one_route(files[0], nullptr, false);
  LayerInputs& L = o.layers;
  L.direct["cts.merges"] = obs_counter("cts.merges");
  L.direct["cts.index_queries"] = obs_counter("cts.index_queries");
  L.direct["trace.overhead_share"] = 2.0 * ms[1] / (ms[0] + ms[2]) - 1.0;
  L.direct["host.probe_ms"] = probe.median_ms();
  L.parse_bytes = static_cast<double>(r.bytes_read);
  L.write_bytes = static_cast<double>(r.bytes_written);

  const Replay rep = replay_route(*r.router, opts, t);
  ++o.attempted;
  if (!gcr::verify::verify_result(*r.router, opts, r.result).ok())
    o.fail("route_flat: verify_result of the traced route");
  L.gates_before = rep.gates_before;
  L.gates_kept = rep.gates_kept;
  if (rep.total_swcap != r.result.swcap.total_swcap() ||
      !gcr::verify::trees_identical(rep.tree, r.result.tree))
    o.fail("route_flat: replayed flow differs from route()");
  return o;
}

}  // namespace perfbench
