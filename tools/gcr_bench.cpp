/// \file gcr_bench.cpp
/// Statistical benchmark driver for the library's hot paths. Benchmarks are
/// registered under six groups -- activity, topology, zskew, reduction,
/// route, route_par -- and run with warmup plus adaptive repetitions until the median
/// stabilizes (perf/runner.h). The heap hook is on by default, so every
/// result carries allocations/bytes per repetition next to its timing
/// statistics, and each group writes a `BENCH_<group>.json` v2 sidecar
/// (perf/report.h) suitable for `gcr_benchdiff`.
///
/// Usage:
///   gcr_bench [--quick] [--filter SUBSTR] [--out DIR] [--list] [--no-mem]
///             [--threads N] [--profile]
///
///   --quick      small sizes + relaxed stabilization (also via
///                GCR_BENCH_QUICK=1); the CI perf-smoke tier
///   --filter     run only benchmarks whose name contains SUBSTR
///   --out DIR    sidecar directory (created if missing; default ".")
///   --list       print registered benchmark names and exit
///   --no-mem     leave the allocation hook off (timings only)
///   --threads N  route_par sweeps widths {1, N} instead of the default set
///   --profile    also write a `PROF_<group>.json` gcr.profile_report per
///                group (sampling profiler + hw counters + pool telemetry);
///                the PROF_ prefix keeps the sidecars out of gcr_benchdiff's
///                BENCH_*.json directory glob

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "activity/analyzer.h"
#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "clocktree/zskew.h"
#include "core/router.h"
#include "cts/clustered.h"
#include "cts/greedy.h"
#include "eco/delta.h"
#include "eco/incremental.h"
#include "gating/gate_reduction.h"
#include "log/logger.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "io/reqs_io.h"
#include "io/text_io.h"
#include "perf/memhook.h"
#include "perf/report.h"
#include "perf/runner.h"
#include "serve/service.h"
#include "prof/hwcounters.h"
#include "prof/report.h"
#include "prof/sampler.h"
#include "tech/params.h"

using namespace gcr;

namespace {

/// Evaluation workload in the spirit of bench/common.h, sized down so setup
/// does not dwarf the timed section on small instances.
benchdata::Workload make_workload(const benchdata::RBench& rb, int k,
                                  int stream_length, std::uint64_t seed) {
  benchdata::WorkloadSpec w;
  w.num_instructions = k;
  w.num_clusters = std::max(16, rb.spec.num_sinks / 32);
  w.target_activity = 0.4;
  w.in_cluster_use = 0.9;
  w.locality = 0.85;
  w.stream_length = stream_length;
  w.seed = seed;
  return benchdata::generate_workload(w, rb.sinks, rb.die);
}

benchdata::RBench synthetic_rbench(int n, std::uint64_t seed) {
  // Die side tracks sqrt(N) so sink density matches the published r1..r5.
  const double side = 1200.0 * std::sqrt(static_cast<double>(n));
  return benchdata::generate_rbench(
      benchdata::RBenchSpec{"s", n, side, 0.005, 0.08, seed});
}

struct Instance {
  benchdata::RBench rb;
  core::Design design;
};

std::shared_ptr<const Instance> make_instance(int n, std::uint64_t seed) {
  benchdata::RBench rb = synthetic_rbench(n, seed);
  benchdata::Workload wl = make_workload(rb, 32, 8000, seed);
  core::Design d{rb.die, rb.sinks, std::move(wl.rtl), std::move(wl.stream),
                 {}};
  return std::make_shared<Instance>(Instance{std::move(rb), std::move(d)});
}

using Groups = std::map<std::string, perf::Runner>;

// --- activity: table construction and probability queries ------------------

void register_activity(Groups& g, bool quick) {
  for (const int k : quick ? std::vector<int>{32} : std::vector<int>{32, 128}) {
    g["activity"].add(
        "activity/table_build/n=" + std::to_string(k), [k] {
          auto rb = std::make_shared<benchdata::RBench>(synthetic_rbench(64, 3));
          auto wl = std::make_shared<benchdata::Workload>(
              make_workload(*rb, k, 4000, 3));
          return [wl] {
            const activity::ActivityAnalyzer an(wl->rtl, wl->stream);
            perf::do_not_optimize(an);
          };
        });
    for (const bool transition : {false, true}) {
      const char* what = transition ? "transition_prob" : "signal_prob";
      g["activity"].add("activity/" + std::string(what) +
                            "/n=" + std::to_string(k),
                        [k, transition] {
                          auto rb = std::make_shared<benchdata::RBench>(
                              synthetic_rbench(64, 4));
                          auto wl = std::make_shared<benchdata::Workload>(
                              make_workload(*rb, k, 8000, 4));
                          auto an = std::make_shared<activity::ActivityAnalyzer>(
                              wl->rtl, wl->stream);
                          activity::ActivationMask mask(k);
                          for (int i = 0; i < k; i += 2) mask.set(i);
                          // wl stays captured: the analyzer references its
                          // rtl rather than copying it.
                          return [wl, an, mask, transition] {
                            perf::do_not_optimize(
                                transition ? an->transition_prob(mask)
                                           : an->signal_prob(mask));
                          };
                        });
    }
  }
}

// --- topology: the Eq. 3 greedy construction -------------------------------

void register_topology(Groups& g, bool quick) {
  const std::vector<int> sizes =
      quick ? std::vector<int>{64, 128} : std::vector<int>{64, 128, 256, 512};
  for (const int n : sizes) {
    g["topology"].add("topology/build/n=" + std::to_string(n), [n] {
      auto rb = std::make_shared<benchdata::RBench>(synthetic_rbench(n, 9));
      auto wl =
          std::make_shared<benchdata::Workload>(make_workload(*rb, 32, 4000, 9));
      auto an = std::make_shared<activity::ActivityAnalyzer>(wl->rtl,
                                                             wl->stream);
      auto mods = std::make_shared<std::vector<int>>(cts::identity_modules(n));
      cts::BuildOptions opts;
      opts.cost = cts::MergeCost::SwitchedCapacitance;
      opts.control_point = rb->die.center();
      return [rb, wl, an, mods, opts] {
        auto r = cts::build_topology(rb->sinks, an.get(), *mods, opts);
        perf::do_not_optimize(r.topo.root());
      };
    });
  }
  if (!quick) {
    g["topology"].add("topology/clustered/n=2000", [] {
      auto rb = std::make_shared<benchdata::RBench>(synthetic_rbench(2000, 10));
      auto wl = std::make_shared<benchdata::Workload>(
          make_workload(*rb, 32, 4000, 10));
      auto an =
          std::make_shared<activity::ActivityAnalyzer>(wl->rtl, wl->stream);
      auto mods =
          std::make_shared<std::vector<int>>(cts::identity_modules(2000));
      cts::ClusterOptions copts;
      copts.build.cost = cts::MergeCost::SwitchedCapacitance;
      copts.build.control_point = rb->die.center();
      return [rb, wl, an, mods, copts] {
        auto r = cts::build_topology_clustered(rb->sinks, an.get(), *mods,
                                               copts);
        perf::do_not_optimize(r.topo.root());
      };
    });
  }
}

// --- scale: the Eq. 3 greedy on die sizes past the published r1..r5 --------
//
// The topology group pins the small-n regime; this group pins the *growth
// rate* of the partner-indexed build (docs/ALGORITHMS.md): synthetic dies
// at 3101 (r5-class), 10k and 100k sinks, one build per rep, timed with
// the default (indexed) engine. The committed baselines carry three
// n=<size> family members, so gcr_benchdiff and print_results' complexity
// fit can hold the near-linear slope, not just the absolute times. A
// 1M-sink member exists behind GCR_BENCH_SCALE_1M=1: at the runner's
// minimum rep count it costs minutes of single-core time, too much for
// the default full tier or CI's scale-smoke leg (docs/benchmarking.md).

void register_scale(Groups& g, bool quick) {
  std::vector<int> sizes =
      quick ? std::vector<int>{3101, 10000}
            : std::vector<int>{3101, 10000, 100000};
  if (const char* big = std::getenv("GCR_BENCH_SCALE_1M");
      big && *big && std::string_view(big) != "0") {
    sizes.push_back(1000000);
  }
  for (const int n : sizes) {
    g["scale"].add("scale/build/n=" + std::to_string(n), [n] {
      auto rb = std::make_shared<benchdata::RBench>(synthetic_rbench(n, 21));
      auto wl = std::make_shared<benchdata::Workload>(
          make_workload(*rb, 32, 4000, 21));
      auto an =
          std::make_shared<activity::ActivityAnalyzer>(wl->rtl, wl->stream);
      auto mods = std::make_shared<std::vector<int>>(cts::identity_modules(n));
      cts::BuildOptions opts;
      opts.cost = cts::MergeCost::SwitchedCapacitance;
      opts.control_point = rb->die.center();
      return [rb, wl, an, mods, opts] {
        auto r = cts::build_topology(rb->sinks, an.get(), *mods, opts);
        perf::do_not_optimize(r.topo.root());
      };
    });
  }
}

// --- zskew: one exact zero-skew merge (micro; the runner batches it) -------

void register_zskew(Groups& g, bool /*quick*/) {
  for (const bool gated : {false, true}) {
    g["zskew"].add(std::string("zskew/merge_") + (gated ? "gated" : "ungated"),
                   [gated] {
                     const tech::TechParams t;
                     ct::SubtreeTap a, b;
                     a.ms = geom::TiltedRect::from_point({1000.0, 2000.0});
                     a.delay = 120.0;
                     a.cap = 0.8;
                     b.ms = geom::TiltedRect::from_point({9000.0, 5000.0});
                     b.delay = 80.0;
                     b.cap = 1.1;
                     return [a, b, gated, t] {
                       const ct::MergeResult m =
                           ct::zero_skew_merge(a, gated, b, gated, t);
                       perf::do_not_optimize(m.delay);
                     };
                   });
  }
}

// --- reduction: the section 4.3 gate-removal pass --------------------------

void register_reduction(Groups& g, bool quick) {
  const std::vector<int> sizes =
      quick ? std::vector<int>{267} : std::vector<int>{267, 598};
  for (const int n : sizes) {
    g["reduction"].add("reduction/reduce_gates/n=" + std::to_string(n), [n] {
      auto inst = make_instance(n, 11);
      const core::GatedClockRouter router(inst->design);
      core::RouterOptions opts;
      opts.style = core::TreeStyle::Gated;  // fully-gated input tree
      auto res =
          std::make_shared<const core::RouterResult>(router.route(opts));
      const tech::TechParams tech;
      const gating::GateReductionParams params;
      return [res, tech, params] {
        auto gates =
            gating::reduce_gates(res->tree, res->activity.p_en, tech, params);
        perf::do_not_optimize(gates);
      };
    });
  }
}

// --- route: the full PROCEDURE GatedClockRouting flow ----------------------

void register_route(Groups& g, bool quick) {
  const std::vector<int> flat =
      quick ? std::vector<int>{64, 128} : std::vector<int>{64, 128, 267, 598};
  for (const int n : flat) {
    g["route"].add("route/reduced/n=" + std::to_string(n), [n] {
      auto inst = make_instance(n, 13);
      auto router =
          std::make_shared<const core::GatedClockRouter>(inst->design);
      return [router] {
        core::RouterOptions opts;
        opts.style = core::TreeStyle::GatedReduced;
        const core::RouterResult r = router->route(opts);
        perf::do_not_optimize(r.swcap.total_swcap());
      };
    });
  }
  if (!quick) {
    // r4/r5-scale designs route through the two-level clustered flow, as a
    // real large design would.
    for (const int n : {1903, 3101}) {
      g["route"].add("route/clustered/n=" + std::to_string(n), [n] {
        auto inst = make_instance(n, 17);
        auto router =
            std::make_shared<const core::GatedClockRouter>(inst->design);
        return [router] {
          core::RouterOptions opts;
          opts.style = core::TreeStyle::GatedReduced;
          opts.clustered = true;
          const core::RouterResult r = router->route(opts);
          perf::do_not_optimize(r.swcap.total_swcap());
        };
      });
    }
  }
}

// --- route_par: thread scaling of the parallel topology build --------------

void register_route_par(Groups& g, bool quick, int threads_override) {
  // Routed gated (no reduction pass, so the timed section is dominated by
  // the Eq. 3 greedy); the thread sweep makes the scaling visible in one
  // sidecar. The routed tree is identical at every width -- only the time
  // may differ. The flat build's only sharded construct is the indexed
  // engine's initial best-partner pass (64 queries per chunk), so the
  // rows mostly pin that t>1 costs no more than t=1; the n=16384 rows are
  // where that pass spreads over the pool.
  const std::vector<int> sizes =
      quick ? std::vector<int>{512} : std::vector<int>{2048, 16384};
  std::vector<int> widths = quick ? std::vector<int>{1, 4}
                                  : std::vector<int>{1, 2, 4};
  if (threads_override > 0) widths = {1, threads_override};
  for (const int n : sizes) {
    for (const int t : widths) {
      g["route_par"].add(
          "route_par/gated/n=" + std::to_string(n) + "/t=" + std::to_string(t),
          [n, t] {
            auto inst = make_instance(n, 19);
            auto router =
                std::make_shared<const core::GatedClockRouter>(inst->design);
            return [router, t] {
              core::RouterOptions opts;
              opts.style = core::TreeStyle::Gated;
              opts.num_threads = t;
              const core::RouterResult r = router->route(opts);
              perf::do_not_optimize(r.swcap.total_swcap());
            };
          });
    }
  }
}

// --- eco: incremental ECO re-route vs a full rebuild -----------------------

void register_eco(Groups& g, bool quick) {
  // Single-sink move: the canonical ECO. Setup routes the base design
  // once; the `move1` rows time eco::route_incremental (invalidation cone
  // + spine re-merge + re-embed) and the `rebuild` rows time a
  // from-scratch route of the *applied* design -- the cost the
  // incremental path avoids. Both use the fully-gated style so the timed
  // sections compare the same pipeline.
  const std::vector<int> sizes =
      quick ? std::vector<int>{512} : std::vector<int>{2048, 16384};
  for (const int n : sizes) {
    const auto make_delta = [](const core::Design& d) {
      eco::DesignDelta delta;
      const geom::Point c = d.die.center();
      delta.moves.push_back({0, {c.x * 0.75, c.y * 1.25}});
      return delta;
    };
    g["eco"].add("eco/move1/n=" + std::to_string(n), [n, make_delta] {
      auto inst = make_instance(n, 23);
      auto router =
          std::make_shared<const core::GatedClockRouter>(inst->design);
      core::RouterOptions opts;
      opts.style = core::TreeStyle::Gated;
      auto prev =
          std::make_shared<const core::RouterResult>(router->route(opts));
      auto delta = std::make_shared<const eco::DesignDelta>(
          make_delta(router->design()));
      return [router, prev, delta, opts] {
        const core::RouteOutcome out =
            eco::route_incremental(*router, *prev, *delta, opts);
        perf::do_not_optimize(out.result->swcap.total_swcap());
      };
    });
    g["eco"].add("eco/rebuild/n=" + std::to_string(n), [n, make_delta] {
      auto inst = make_instance(n, 23);
      const core::GatedClockRouter base(inst->design);
      auto router = std::make_shared<const core::GatedClockRouter>(
          eco::apply_delta(base.design(), make_delta(base.design())));
      return [router] {
        core::RouterOptions opts;
        opts.style = core::TreeStyle::Gated;
        const core::RouterResult r = router->route(opts);
        perf::do_not_optimize(r.swcap.total_swcap());
      };
    });
  }
}

// --- serve: batch service throughput, cache effect, admission -------------

/// Write `inst`'s design under a bench scratch dir and return a request
/// naming the files. File content is deterministic per (n, seed), so the
/// serve content-hash cache behaves identically run to run.
io::RouteRequest write_serve_design(const Instance& inst, int n,
                                    std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "gcr_bench_serve";
  fs::create_directories(dir);
  const std::string stem =
      "d" + std::to_string(n) + "_" + std::to_string(seed);
  {
    std::ofstream os(dir / (stem + ".sinks"));
    io::write_sinks(os, inst.design.die, inst.design.sinks);
  }
  {
    std::ofstream os(dir / (stem + ".rtl"));
    io::write_rtl(os, inst.design.rtl);
  }
  {
    std::ofstream os(dir / (stem + ".stream"));
    io::write_stream(os, inst.design.stream);
  }
  io::RouteRequest req;
  req.id = stem;
  req.sinks = (dir / (stem + ".sinks")).string();
  req.rtl = (dir / (stem + ".rtl")).string();
  req.stream = (dir / (stem + ".stream")).string();
  return req;
}

/// One timed serve op: submit `batch` requests of the same design and
/// wait for all outcomes. `cold` disables the caches, so every request
/// pays file load + parse + route; warm requests pay hash + lookup only
/// (the cache-warm >= 2x cache-cold acceptance line in docs/serving.md).
void register_serve(Groups& g, bool quick) {
  const std::vector<int> sizes =
      quick ? std::vector<int>{256} : std::vector<int>{512, 2048};
  constexpr int kBatch = 8;
  for (const int n : sizes) {
    for (const bool cold : {true, false}) {
      const std::string name = std::string("serve/") +
                               (cold ? "cold" : "warm") +
                               "/n=" + std::to_string(n);
      g["serve"].add(name, [n, cold] {
        auto inst = make_instance(n, 31);
        const io::RouteRequest req = write_serve_design(*inst, n, 31);
        serve::ServeOptions sopts;
        sopts.workers = 2;
        if (cold) {
          sopts.design_cache_capacity = 0;
          sopts.result_cache_capacity = 0;
        }
        auto service = std::make_shared<serve::BatchService>(sopts);
        service->start();
        if (!cold) {  // pre-warm outside the timed section
          (void)service->submit(req);
          service->wait_idle();
          (void)service->take_outcomes();
        }
        return [service, req] {
          for (int i = 0; i < kBatch; ++i) (void)service->submit(req);
          service->wait_idle();
          perf::do_not_optimize(service->take_outcomes().size());
        };
      });
    }
  }

  // Admission-path ops/sec: a full queue with no lanes draining it, so
  // every timed submit walks the whole shed path (seq assignment, outcome
  // record, GCR_E_OVERLOAD event) and none routes.
  g["serve"].add("serve/shed/submit64", [] {
    auto inst = make_instance(64, 33);
    const io::RouteRequest req = write_serve_design(*inst, 64, 33);
    serve::ServeOptions sopts;
    sopts.queue_capacity = 1;
    auto service = std::make_shared<serve::BatchService>(sopts);
    (void)service->submit(req);  // plug the queue; lanes never start
    return [service, req] {
      for (int i = 0; i < 64; ++i) (void)service->submit(req);
      perf::do_not_optimize(service->take_outcomes().size());
    };
  });

  // Concurrent-submit stress: 4 racing submitters against 2 lanes on a
  // warm cache -- admission lock traffic plus cache lookups under real
  // contention, the --race shape of the CLI.
  const int race_n = quick ? 256 : 512;
  g["serve"].add("serve/race/n=" + std::to_string(race_n), [race_n] {
    auto inst = make_instance(race_n, 35);
    const io::RouteRequest req = write_serve_design(*inst, race_n, 35);
    serve::ServeOptions sopts;
    sopts.workers = 2;
    auto service = std::make_shared<serve::BatchService>(sopts);
    service->start();
    (void)service->submit(req);
    service->wait_idle();
    (void)service->take_outcomes();
    return [service, req] {
      std::vector<std::thread> racers;
      racers.reserve(4);
      for (int t = 0; t < 4; ++t)
        racers.emplace_back([&service, &req] {
          for (int i = 0; i < kBatch; ++i) (void)service->submit(req);
        });
      for (std::thread& t : racers) t.join();
      service->wait_idle();
      perf::do_not_optimize(service->take_outcomes().size());
    };
  });
}

void usage() {
  std::cerr << "usage: gcr_bench [--quick] [--filter SUBSTR] [--out DIR]"
               " [--list] [--no-mem] [--threads N] [--profile]\n"
               "exit codes: 0 ok, 1 usage/empty filter, 2 i/o error\n";
}

/// The bench driver runs the logger at a Warn floor by default: the
/// route benchmarks fire route.start/route.done per repetition, and
/// admitting them would put event construction inside the timed section.
/// GCR_LOG_LEVEL / GCR_LOG still opt a debugging run in.
struct LogScope {
  LogScope() {
    gcr::log::Options lopts;
    lopts.level = gcr::log::Level::Warn;
    if (const char* env = std::getenv("GCR_LOG_LEVEL"))
      if (const auto l = gcr::log::parse_level(env)) lopts.level = *l;
    lopts.stderr_level = gcr::log::Level::Warn;
    if (const char* env = std::getenv("GCR_LOG")) lopts.json_path = env;
    (void)gcr::log::Logger::instance().init(std::move(lopts));
    gcr::log::install_guard_bridge();
  }
  ~LogScope() {
    gcr::log::remove_guard_bridge();
    gcr::log::Logger::instance().shutdown();
  }
};

}  // namespace

int main(int argc, char** argv) {
  LogScope log_scope;
  perf::RunnerOptions opts = perf::RunnerOptions::from_env();
  std::string out_dir = ".";
  bool list = false;
  bool mem = true;
  bool profile = false;
  int threads_override = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      opts = perf::RunnerOptions::quick_tier();
    } else if (flag == "--filter" && i + 1 < argc) {
      opts.filter = argv[++i];
    } else if (flag == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (flag == "--list") {
      list = true;
    } else if (flag == "--no-mem") {
      mem = false;
    } else if (flag == "--threads" && i + 1 < argc) {
      threads_override = std::atoi(argv[++i]);
    } else if (flag == "--profile") {
      profile = true;
    } else {
      usage();
      return 1;
    }
  }

  Groups groups;
  register_activity(groups, opts.quick);
  register_topology(groups, opts.quick);
  register_zskew(groups, opts.quick);
  register_reduction(groups, opts.quick);
  register_route(groups, opts.quick);
  register_route_par(groups, opts.quick, threads_override);
  register_eco(groups, opts.quick);
  register_scale(groups, opts.quick);
  register_serve(groups, opts.quick);

  if (list) {
    for (const auto& [group, runner] : groups)
      for (const auto& name : runner.names()) std::cout << name << '\n';
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    GCR_LOG_ERROR("bench.io").msg("cannot create " + out_dir + ": " +
                                  ec.message());
    return 2;
  }

  if (mem && perf::memhook::available()) perf::memhook::enable();
  obs::set_metrics_enabled(true);

  int written = 0;
  for (auto& [group, runner] : groups) {
    // Fresh session + metrics per group so each sidecar's phase tree and
    // counters describe exactly that group's run.
    obs::Registry::global().reset();
    obs::Session session;
    obs::Bind bind(&session);

    prof::Sampler sampler;
    prof::HwInfo hw;
    if (profile) {
      hw = prof::enable_hw_counters();
      sampler.start();
    }

    std::cerr << "== " << group << " ==\n";
    const std::vector<perf::BenchResult> results = runner.run(opts, &std::cerr);
    if (results.empty()) {
      if (profile) {
        (void)sampler.stop();
        prof::disable_hw_counters();
      }
      continue;  // filter matched nothing in this group
    }
    perf::print_results(std::cout, results);

    const std::string path = out_dir + "/BENCH_" + group + ".json";
    std::ofstream os(path);
    if (!os) {
      GCR_LOG_ERROR("bench.io").msg("cannot open " + path);
      return 2;
    }
    perf::write_bench_report(os, group, results, opts, &session);
    std::cout << "wrote " << path << '\n';
    ++written;

    if (profile) {
      const prof::Sampler::Profile p = sampler.stop();
      const std::string ppath = out_dir + "/PROF_" + group + ".json";
      std::ofstream pos(ppath);
      if (!pos) {
        GCR_LOG_ERROR("bench.io").msg("cannot open " + ppath);
        return 2;
      }
      prof::ProfileReportOptions po;
      po.tool = "gcr_bench/" + group;
      po.profile = &p;
      po.session = &session;
      po.hw = hw;
      prof::write_profile_report(pos, po);
      prof::disable_hw_counters();
      std::cout << "wrote " << ppath << '\n';
    }
  }
  if (written == 0) {
    GCR_LOG_ERROR("bench.empty_filter")
        .msg("no benchmarks matched filter '" + opts.filter + "'");
    return 1;
  }
  return 0;
}
