// serve_mixed: an open loop into one serve::BatchService (2 lanes, Shed
// policy, default caches, route threads 1). Seeded Poisson arrivals at a
// fixed rate come from the harness thread, which also polls
// take_outcomes(). The requests go to 48 seeded designs (r1..r5 sizes,
// 200k-instruction streams) with Zipf skew, with options among default
// reduced, gated, auto_tune, and reduced plus a .delta. The mix is the
// same for every seed; the seed draws the designs' sinks and the order.
// README.md records why kZipf, kRate and kLimitMs have these values.
// The probe runs only while the lanes are idle: before the set-up, after
// each warm-up batch and on either side of the timed window. The times are
// scaled by the median of those samples.

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "eco/incremental.h"
#include "io/delta_io.h"
#include "obs/metrics.h"
#include "pipeline.h"
#include "serve/service.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace sv = gcr::serve;

constexpr int kDesigns = 48;
constexpr std::array<int, 5> kSizes = {267, 598, 862, 1903, 3101};  // r1..r5
constexpr int kStreamLength = 200000;
constexpr double kZipf = 1.6;
constexpr int kLanes = 2;
constexpr double kRate = 60.0;      // requests/s; lanes ~18% busy
constexpr double kLimitMs = 200.0;  // 2x the median cold r5 lane time
// The tail rule gives p99 from 1000 requests; 2000 put 20 beyond it, since
// the tenth slowest of 1000 moved by up to a fifth from seed to seed.
constexpr int kMinRequests = 2000;
// Per pass of the traced run, which makes two; enough for its per-layer
// medians and p99s, and it keeps that run within its time limit.
constexpr int kTracedRequests = 1000;
constexpr std::size_t kWarmup = 512;
// Lower than the closed-loop workloads', as measured (README.md): a
// request's latency includes polls and wake-ups, which need not slow with
// the host.
constexpr double kHostSensitivity = 0.5;

enum Kind { kReduced, kGated, kAutoTune, kEco };
// A design's requests take their options in this cycle, from a start that
// rotates with the design: 40% reduced, 20% each of the others.
constexpr std::array<Kind, 5> kKindCycle = {kReduced, kGated, kReduced, kAutoTune, kEco};

std::uint64_t design_seed(std::uint64_t seed, int d) {
  return Rng(seed * 1000003u + static_cast<std::uint64_t>(d)).next();
}

struct Pool {
  std::string dir;
  std::vector<DesignFiles> files;
  std::vector<std::string> deltas;
};

Pool make_pool(const std::string& dir, std::uint64_t seed) {
  Pool p{dir, {}, {}};
  for (int d = 0; d < kDesigns; ++d) {
    const std::uint64_t s = design_seed(seed, d);
    const std::string stem = "d" + std::to_string(d);
    const gc::Design design = generate_design(
        {kSizes[static_cast<std::size_t>(d) % kSizes.size()], kStreamLength}, s);
    p.files.push_back(write_design(design, dir, stem));
    Rng rng(s ^ 0xde17a);
    gcr::eco::DesignDelta delta;
    delta.moves.push_back({rng.below(design.num_sinks()),
                           {rng.uniform(0.0, design.die.xhi),
                            rng.uniform(0.0, design.die.yhi)}});
    p.deltas.push_back(dir + "/" + stem + ".delta");
    std::ofstream os(p.deltas.back());
    gcr::io::write_delta(os, delta);
    if (!os) throw std::runtime_error("cannot write " + p.deltas.back());
  }
  return p;
}

struct Draw {
  int design{0};
  Kind kind{kReduced};
};

/// `n` requests: design d gets its Zipf share of them (largest remainder
/// rounding) and its options from kKindCycle, so the mix is fixed; the
/// order is a seeded shuffle.
std::vector<Draw> draw_requests(std::uint64_t seed, std::size_t n) {
  std::vector<double> weight;
  double total = 0.0;
  for (int d = 0; d < kDesigns; ++d) total += weight.emplace_back(std::pow(d + 1.0, -kZipf));
  std::vector<std::size_t> count(kDesigns);
  std::vector<std::pair<double, int>> remainder;
  std::size_t given = 0;
  for (int d = 0; d < kDesigns; ++d) {
    const double share = static_cast<double>(n) * weight[static_cast<std::size_t>(d)] / total;
    count[static_cast<std::size_t>(d)] = static_cast<std::size_t>(share);
    given += count[static_cast<std::size_t>(d)];
    remainder.emplace_back(-(share - std::floor(share)), d);
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t i = 0; given < n; ++i, ++given)
    ++count[static_cast<std::size_t>(remainder[i].second)];
  std::vector<Draw> out;
  for (int d = 0; d < kDesigns; ++d)
    for (std::size_t k = 0; k < count[static_cast<std::size_t>(d)]; ++k)
      out.push_back({d, kKindCycle[(k + static_cast<std::size_t>(d)) % kKindCycle.size()]});
  Rng rng(seed ^ 0x5e77e);
  for (std::size_t i = out.size() - 1; i > 0; --i)
    std::swap(out[i], out[static_cast<std::size_t>(rng.next() % (i + 1))]);
  return out;
}

gcr::io::RouteRequest make_request(const Pool& p, std::size_t i, const Draw& r) {
  gcr::io::RouteRequest q;
  const DesignFiles& f = p.files[static_cast<std::size_t>(r.design)];
  q.id = std::to_string(i);
  q.sinks = f.sinks;
  q.rtl = f.rtl;
  q.stream = f.stream;
  q.style = r.kind == kGated ? "gated" : "reduced";
  q.auto_tune = r.kind == kAutoTune;
  if (r.kind == kEco) q.eco = p.deltas[static_cast<std::size_t>(r.design)];
  return q;
}

gc::RouterOptions router_options(Kind k) {
  gc::RouterOptions o;
  o.style = k == kGated ? gc::TreeStyle::Gated : gc::TreeStyle::GatedReduced;
  o.auto_tune_reduction = k == kAutoTune;
  o.num_threads = 1;
  return o;
}

sv::ServeOptions serve_options(sv::AdmitPolicy policy) {
  sv::ServeOptions o;
  o.workers = kLanes;
  o.policy = policy;
  o.route_threads = 1;
  return o;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// One open-loop pass: every request sent at its due time, outcomes
/// observed by polling, until each request has one.
struct OpenLoop {
  std::vector<RequestTimes> times;
  std::vector<sv::RequestOutcome> outcomes;  ///< by request index
  sv::ServeStats warm;   ///< after the warm-up
  sv::ServeStats stats;  ///< at the end
  std::vector<double> submit_us, lag_ms, poll_gap_ms;
  double window_ms{0.0};
  std::size_t peak_depth{0};  ///< traced: deepest queue seen at a poll
  std::vector<std::string> warmup_failed;
};

OpenLoop run_open_loop(const std::vector<gcr::io::RouteRequest>& warmup,
                       const std::vector<gcr::io::RouteRequest>& reqs,
                       const std::vector<double>& due_s, HostProbe& probe,
                       Tracer* t) {
  const std::size_t n = reqs.size();
  OpenLoop r;
  r.times.resize(n);
  r.outcomes.resize(n);
  sv::BatchService svc(serve_options(sv::AdmitPolicy::Shed));
  svc.start();
  // Fill the caches first, a queue's worth at a time, so the timed window
  // sees the steady state rather than the cold start.
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    (void)svc.submit(warmup[i]);
    if ((i + 1) % 32 == 0 || i + 1 == warmup.size()) {
      svc.wait_idle();
      probe.sample_ms();
    }
  }
  for (const sv::RequestOutcome& out : svc.take_outcomes())
    if (!out.ok()) r.warmup_failed.push_back(out.id + ": " + out.message);
  r.warm = svc.stats();
  const double start = now_us() + 1000.0;
  const auto due_us = [&](std::size_t i) { return start + due_s[i] * 1e6; };
  std::size_t next = 0;
  std::size_t seen = 0;
  double last_poll = -1.0;
  while (seen < n) {
    while (next < n && now_us() >= due_us(next)) {
      gcr::io::RouteRequest q = reqs[next];
      const double sent = now_us();
      r.submit_us.push_back(1e3 * timed_ms(t, "serve.submit", [&] {
        (void)svc.submit(std::move(q));
      }, next + 1));
      r.lag_ms.push_back((sent - due_us(next)) * 1e-3);
      ++next;
    }
    std::vector<sv::RequestOutcome> outs = svc.take_outcomes();
    const double observed = now_us();
    if (t != nullptr) r.peak_depth = std::max(r.peak_depth, svc.stats().queue_depth);
    if (last_poll >= 0.0) r.poll_gap_ms.push_back((observed - last_poll) * 1e-3);
    last_poll = observed;
    for (sv::RequestOutcome& out : outs) {
      const std::size_t i = std::stoul(out.id);
      if (t != nullptr) t->add("serve.request", due_us(i), observed, i + 1);
      r.times[i] = {due_s[i] * 1e3, (observed - start) * 1e-3, out.elapsed_ms,
                    out.ok()};
      r.outcomes[i] = std::move(out);
      ++seen;
    }
    if (seen == n) break;
    const double wake = next < n ? std::min(due_us(next), now_us() + 200.0)
                                 : now_us() + 200.0;
    const double wait = wake - now_us();
    if (wait > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(wait));
  }
  r.window_ms = (last_poll - start) * 1e-3;
  probe.sample_ms();
  svc.drain();
  r.stats = svc.stats();
  return r;
}

/// One-shot references for the Done results: each design routed from
/// disk once (reduced, as gcr_route would), its other option sets routed
/// on the same router, eco requests re-run on the one-shot base. Trees
/// are kept as hashes of their bytes; a design's router is released once
/// its requests are checked. Traced, every route is replayed through the
/// layers.
class References {
 public:
  References(const Pool& pool, Tracer* t, Outcome& o) : pool_(pool), t_(t), o_(o) {}

  std::uint64_t hash(const Draw& r) {
    const auto key = std::make_pair(r.design, static_cast<int>(r.kind));
    if (const auto it = hash_.find(key); it != hash_.end()) return it->second;
    const DiskRoute& base = base_route(r.design);
    if (r.kind == kReduced) return hash_.at(key);  // the one-shot tree file
    std::uint64_t h = 0;
    if (r.kind == kEco) {
      std::istringstream is(slurp(pool_.deltas[static_cast<std::size_t>(r.design)]));
      const gc::RouteOutcome out = gcr::eco::route_incremental(
          *base.router, base.result, gcr::io::read_delta(is), router_options(kReduced));
      if (out.ok()) h = tree_hash(out.result->tree);
    } else {
      const gc::RouterOptions opts = router_options(r.kind);
      gc::RouterResult res;
      {
        const Span s(t_, "core.route");
        res = base.router->route(opts);
      }
      check_replay(*base.router, opts, res);
      h = tree_hash(res.tree);
    }
    return hash_.emplace(key, h).first->second;
  }

  /// Frees design `d`'s one-shot router; its hashes stay.
  void release(int d) { base_.erase(d); }

 private:
  const DiskRoute& base_route(int d) {
    if (const auto it = base_.find(d); it != base_.end()) return it->second;
    const gc::RouterOptions opts = router_options(kReduced);
    const std::string path = pool_.dir + "/ref" + std::to_string(d) + ".tree";
    DiskRoute r = route_from_disk(pool_.files[static_cast<std::size_t>(d)], path,
                                  opts, t_);
    o_.layers.parse_bytes += static_cast<double>(r.bytes_read);
    o_.layers.write_bytes += static_cast<double>(r.bytes_written);
    check_replay(*r.router, opts, r.result);
    hash_.emplace(std::make_pair(d, static_cast<int>(kReduced)), file_hash(path));
    return base_.emplace(d, std::move(r)).first->second;
  }
  void check_replay(const gc::GatedClockRouter& router, const gc::RouterOptions& opts,
                    const gc::RouterResult& res) {
    if (t_ == nullptr) return;
    const Replay rep = replay_route(router, opts, t_);
    o_.layers.gates_before += rep.gates_before;
    o_.layers.gates_kept += rep.gates_kept;
    if (rep.total_swcap != res.swcap.total_swcap())
      o_.fail("serve_mixed: replayed flow differs from route()");
  }

  const Pool& pool_;
  Tracer* t_;
  Outcome& o_;
  std::map<std::pair<int, int>, std::uint64_t> hash_;
  std::map<int, DiskRoute> base_;
};

}  // namespace

Outcome run_serve_mixed(const Args& a, HostProbe& probe, Tracer* t) {
  const std::string dir = a.out_dir + "/serve_mixed";
  std::filesystem::create_directories(dir);
  Outcome o;
  Pool pool;
  probe.sample_ms();
  const double setup_s = timed_setup(3, [&] { pool = make_pool(dir, a.seed); });

  const auto n = static_cast<std::size_t>(
      t != nullptr ? kTracedRequests
                   : std::max<double>(kMinRequests, std::round(kRate * a.seconds)));
  const std::vector<Draw> draws = draw_requests(a.seed, n);
  std::vector<gcr::io::RouteRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) reqs.push_back(make_request(pool, i, draws[i]));
  std::vector<gcr::io::RouteRequest> warmup;
  const std::vector<Draw> warm_draws = draw_requests(a.seed ^ 0x3a4, kWarmup);
  for (std::size_t i = 0; i < kWarmup; ++i)
    warmup.push_back(make_request(pool, n + i, warm_draws[i]));
  const std::vector<double> due = poisson_schedule(a.seed ^ 0xa771, kRate, n);

  References refs(pool, t, o);
  // Checks every outcome of the passes against the one-shot references,
  // design by design; marks a mismatching Done request as not done.
  std::vector<std::vector<std::size_t>> by_design(kDesigns);
  for (std::size_t i = 0; i < n; ++i)
    by_design[static_cast<std::size_t>(draws[i].design)].push_back(i);
  const auto check = [&](std::initializer_list<OpenLoop*> runs) {
    for (const OpenLoop* run : runs)
      for (const std::string& e : run->warmup_failed) o.fail("serve_mixed: warm-up " + e);
    for (int d = 0; d < kDesigns; ++d) {
      for (OpenLoop* run : runs) {
        for (const std::size_t i : by_design[static_cast<std::size_t>(d)]) {
          ++o.attempted;
          const sv::RequestOutcome& out = run->outcomes[i];
          if (!out.ok()) {
            o.fail("serve_mixed: request " + out.id + " ended " +
                   std::string(sv::state_name(out.state)) + ": " + out.message);
            continue;
          }
          if (tree_hash(out.result->tree) != refs.hash(draws[i])) {
            o.fail("serve_mixed: request " + out.id + " differs from its one-shot route");
            run->times[i].done = false;
          }
        }
      }
      refs.release(d);
    }
  };

  if (t == nullptr) {
    OpenLoop run = run_open_loop(warmup, reqs, due, probe, nullptr);
    o.e2e.peak_rss_mb = peak_rss_mb(probe);
    check({&run});
    const LatencySummary s = account(run.times, kLimitMs);
    double w = 0.0;
    for (const sv::RequestOutcome& out : run.outcomes)
      if (out.ok()) w += out.result->swcap.total_swcap();
    const double wall_p50 = median(s.latency_ms);
    const double wall_tail = percentile(s.latency_ms, tail_percentile(n, kTailCandidates));
    const double speed = probe.median_ms();
    o.e2e.setup_s = at_nominal(setup_s, speed, kHostSensitivity);
    o.e2e.latency_p50_ms = at_nominal(wall_p50, speed, kHostSensitivity);
    o.e2e.latency_tail_ms = at_nominal(wall_tail, speed, kHostSensitivity);
    log_wall_clock(a, wall_p50, wall_tail, probe);
    o.e2e.slo_met_share = s.met_share();
    o.e2e.swcap_pf = w / static_cast<double>(std::max<std::size_t>(1, s.latency_ms.size()));
    return o;
  }

  // Traced: the same schedule untraced, then traced with the registry on.
  OpenLoop plain = run_open_loop(warmup, reqs, due, probe, nullptr);
  gcr::obs::Registry::global().reset();
  gcr::obs::set_metrics_enabled(true);
  OpenLoop run = run_open_loop(warmup, reqs, due, probe, t);
  gcr::obs::set_metrics_enabled(false);
  auto& d = o.layers.direct;
  d["cts.merges"] = obs_counter("cts.merges");
  d["cts.index_queries"] = obs_counter("cts.index_queries");
  check({&plain, &run});

  const LatencySummary s = account(run.times, kLimitMs);
  const LatencySummary s0 = account(plain.times, kLimitMs);
  std::vector<double> lane;
  double lane_sum = 0.0;
  int result_hits = 0;
  int design_hits = 0;
  for (const sv::RequestOutcome& out : run.outcomes) {
    lane_sum += out.elapsed_ms;
    result_hits += out.cache_hit ? 1 : 0;
    design_hits += out.design_cache_hit ? 1 : 0;
    if (out.ok()) lane.push_back(out.elapsed_ms);
  }
  const auto share = [&](int k) { return static_cast<double>(k) / static_cast<double>(n); };
  d["serve.submit_us"] = median(run.submit_us);
  d["serve.queue_wait_p50_ms"] = median(s.queue_wait_ms);
  d["serve.queue_wait_p99_ms"] = percentile(s.queue_wait_ms, 99.0);
  d["serve.lane_p50_ms"] = median(lane);
  d["serve.lane_p99_ms"] = percentile(lane, 99.0);
  d["serve.result_hit_share"] = share(result_hits);
  d["serve.design_hit_share"] = share(design_hits);
  d["serve.evictions"] = static_cast<double>(
      run.stats.result_cache.evictions + run.stats.design_cache.evictions -
      run.warm.result_cache.evictions - run.warm.design_cache.evictions);
  d["serve.peak_queue_depth"] = static_cast<double>(run.peak_depth);
  d["serve.shed"] = static_cast<double>(run.stats.shed - run.warm.shed);
  d["serve.lane_busy_share"] = lane_sum / (kLanes * run.window_ms);
  d["loadgen.lag_p99_ms"] = percentile(run.lag_ms, 99.0);
  d["loadgen.poll_resolution_ms"] = median(run.poll_gap_ms);
  const double p50 = median(s.latency_ms);
  const double p50_plain = median(s0.latency_ms);
  d["trace.overhead_share"] = (p50 - p50_plain) / p50_plain;
  d["host.probe_ms"] = probe.median_ms();
  return o;
}

}  // namespace perfbench
