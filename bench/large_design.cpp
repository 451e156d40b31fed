/// \file large_design.cpp
/// Scale demonstration beyond the paper's r5 (3101 sinks): synthetic
/// designs up to 12k sinks routed end-to-end with the clustered
/// constructor. Shows the full gated flow (activity analysis, clustered
/// Eq. 3 topology, auto-tuned reduction, zero-skew embedding, exact
/// evaluation) stays interactive at these sizes, and that the paper's
/// qualitative result (gated+reduced < buffered) persists at scale. The
/// flat greedy is not O(N^2) either: with its partner index it grows
/// about N^1.3 (gcr_bench's `scale` group fits a log-log slope of
/// 1.28-1.30 up to 100k sinks); the clustered build is faster still.

#include <chrono>
#include <iostream>
#include <memory>

#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "common.h"
#include "core/router.h"
#include "eval/table.h"

using namespace gcr;

namespace {

core::Design make_design(int n, double die_side) {
  benchdata::RBenchSpec spec{"big", n, die_side, 0.005, 0.10,
                             0xabcdef12345ull + static_cast<unsigned>(n)};
  benchdata::RBench rb = benchdata::generate_rbench(spec);
  benchdata::WorkloadSpec w;
  w.num_instructions = 32;
  w.num_clusters = std::max(16, n / 32);
  w.target_activity = 0.4;
  w.locality = 0.85;
  w.stream_length = 20000;
  benchdata::Workload wl = benchdata::generate_workload(w, rb.sinks, rb.die);
  return core::Design{rb.die, rb.sinks, std::move(wl.rtl),
                      std::move(wl.stream), {}};
}

void print_report() {
  std::cout << "=== Large designs: clustered gated flow beyond r5 ===\n";
  eval::Table t({"sinks", "style", "W total pF", "vs buffered", "gates",
                 "skew", "flow seconds"});
  for (const auto& [n, die] : {std::pair{6000, 90000.0}, {12000, 128000.0}}) {
    const core::GatedClockRouter router(make_design(n, die));
    double buffered_w = 0.0;
    for (const auto& [style, label] :
         {std::pair{core::TreeStyle::Buffered, "buffered"},
          std::pair{core::TreeStyle::GatedReduced, "gated+red"}}) {
      core::RouterOptions opts;
      opts.style = style;
      opts.clustered = true;
      opts.auto_tune_reduction = style == core::TreeStyle::GatedReduced;
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = router.route(opts);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (style == core::TreeStyle::Buffered) buffered_w = r.swcap.total_swcap();
      t.add_row({std::to_string(n), label,
                 eval::Table::num(r.swcap.total_swcap(), 1),
                 eval::Table::num(r.swcap.total_swcap() / buffered_w, 3),
                 std::to_string(r.swcap.num_cells),
                 eval::Table::num(r.delays.skew(), 6),
                 eval::Table::num(secs, 2)});
    }
  }
  t.print(std::cout);
  std::cout << '\n';
}

const perf::Registrar reg_large{"large_design/route_clustered/n=6000", [] {
  // Construct the router in place from a Design: moving a finished router
  // would leave its internal analyzer pointing at the moved-from design.
  auto router = std::make_shared<const core::GatedClockRouter>(
      make_design(6000, 90000.0));
  return [router] {
    core::RouterOptions opts;
    opts.style = core::TreeStyle::GatedReduced;
    opts.clustered = true;
    auto r = router->route(opts);
    perf::do_not_optimize(r.swcap.total_swcap());
  };
}};

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, print_report);
}
