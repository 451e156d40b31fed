#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.h"
#include "stats.h"
#include "tracer.h"

/// \file workload.h
/// What main.cpp hands a workload and what it gets back.

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string out_dir;  ///< scratch space for inputs, trees and the trace
};

/// End-to-end figures of one untraced run. The times are at the nominal
/// host speed (probe.h).
struct EndToEnd {
  double setup_s{0.0};          ///< median of the run's set-ups
  double latency_p50_ms{0.0};   ///< median per-operation latency
  double latency_tail_ms{0.0};  ///< the workload's tail percentile
  double slo_met_share{0.0};    ///< ops Done, correct, within the limit / sent
  double swcap_pf{0.0};         ///< mean W of the produced trees
  /// Process peak RSS [MB], sampled when the timed work ends and before
  /// the correctness checks allocate anything of their own.
  double peak_rss_mb{0.0};
};

/// Inputs to the per-layer metrics of a traced run besides the spans.
struct LayerInputs {
  double parse_bytes{0.0};
  double write_bytes{0.0};
  int gates_before{0};  ///< summed over replays
  int gates_kept{0};
  /// Metrics the workload measured itself (eco.*, serve.*, loadgen.*,
  /// cts counters, trace.overhead_share), by their BENCHMARK.json names.
  std::map<std::string, double> direct;
};

struct Outcome {
  EndToEnd e2e;
  LayerInputs layers;
  long attempted{0};
  long failed{0};  ///< failed or incorrect operations
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
};

/// Each workload samples `probe` between its timed operations.
Outcome run_route_flat(const Args& a, HostProbe& probe, Tracer* t);
Outcome run_eco_stream(const Args& a, HostProbe& probe, Tracer* t);
Outcome run_serve_mixed(const Args& a, HostProbe& probe, Tracer* t);

/// Median of `reps` timed calls of `setup`, wall time [s].
template <class F>
double timed_setup(int reps, F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_us();
    setup();
    s.push_back((now_us() - t0) * 1e-6);
  }
  return median(std::move(s));
}

/// Counter value from the global obs registry (0 when never registered).
double obs_counter(const char* name);

/// The process's peak resident set so far, less the probe's tree, which
/// stays resident all run [MB].
double peak_rss_mb(const HostProbe& probe);

/// Logs a workload's wall-clock latencies and the probe's median to
/// standard error, beside the scaled figures of the result line.
void log_wall_clock(const Args& a, double p50_ms, double tail_ms,
                    const HostProbe& probe);

}  // namespace perfbench
