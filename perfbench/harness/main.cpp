// perfbench_harness -- runs one workload of the end-to-end benchmark and
// prints its result as one JSON line (see ../README.md).
//
//   perfbench_harness --workload route_flat|eco_stream|serve_mixed
//                     --seed N --seconds S --trace 0|1 --out DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant, prints the per-layer metrics and writes the spans to
// DIR/trace-<workload>-<seed>.json. Exit 0 when every operation succeeded
// and every output checked correct, 1 when a correctness gate failed (the
// result line still prints), 2 on a usage or set-up error (no result).

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "workload.h"

namespace pb = perfbench;

double pb::obs_counter(const char* name) {
  return static_cast<double>(gcr::obs::Registry::global().counter(name).value());
}

double pb::peak_rss_mb(const HostProbe& probe) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // ru_maxrss is in KiB.
  return (static_cast<double>(ru.ru_maxrss) * 1024.0 -
          static_cast<double>(probe.bytes())) / 1e6;
}

void pb::log_wall_clock(const Args& a, double p50_ms, double tail_ms,
                        const HostProbe& probe) {
  std::cerr << "perfbench: " << a.workload << ": wall-clock latency p50 " << p50_ms
            << " ms, tail " << tail_ms << " ms; host probe median "
            << probe.median_ms() << " ms (nominal " << HostProbe::kNominalMs
            << ")\n";
}

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::optional<pb::Args> parse_args(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = v == "1";
      else if (flag == "--out") a.out_dir = v;
      else return std::nullopt;
    } catch (const std::exception&) {  // stoull / stod on a bad number
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.out_dir.empty() || a.seconds <= 0)
    return std::nullopt;
  return a;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> end_to_end(const pb::Outcome& o) {
  const pb::EndToEnd& e = o.e2e;
  return {{"setup_s", e.setup_s, "s"},
          {"latency_p50_ms", e.latency_p50_ms, "ms"},
          {"latency_tail_ms", e.latency_tail_ms, "ms"},
          {"slo_met_share", e.slo_met_share, "ratio"},
          {"swcap_pf", e.swcap_pf, "pF"},
          {"peak_rss_mb", e.peak_rss_mb, "MB"}};
}

/// The per-layer metrics: span totals plus what the workload measured.
/// A layer the workload never calls reports 0.
std::vector<Metric> per_layer(const pb::Outcome& o, const pb::Tracer& t) {
  const auto totals = pb::totals_by_name(t.spans());
  const auto self_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const auto calls = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second.calls;
  };
  // Layer calls made inside a replay of route()'s flow, against the
  // core.route calls they replay.
  double replayed_s = 0.0;
  for (const pb::SpanRec& s : t.spans())
    if (s.parent >= 0 && t.spans()[static_cast<std::size_t>(s.parent)].name == "replay")
      replayed_s += s.dur_us() * 1e-6;
  const pb::LayerInputs& in = o.layers;
  const auto direct = [&](const char* name) {
    const auto it = in.direct.find(name);
    return it == in.direct.end() ? 0.0 : it->second;
  };

  const double parse_s = self_s("io.read_sinks") + self_s("io.read_rtl") +
                         self_s("io.read_stream");
  const double write_s = self_s("io.write_routed_tree");
  const double topo_s = self_s("cts.build_topology");
  const double route_s = self_s("core.route");
  // The file-to-file path: parse, construct, route, write.
  const double path_s = parse_s + self_s("activity.build") + route_s + write_s;
  const double merges = direct("cts.merges");
  const double queries = direct("cts.index_queries");
  return {
      {"io.parse_s", parse_s, "s"},
      {"io.parse_mb_per_s", ratio(in.parse_bytes / 1e6, parse_s), "MB/s"},
      {"io.write_s", write_s, "s"},
      {"io.write_mb_per_s", ratio(in.write_bytes / 1e6, write_s), "MB/s"},
      {"activity.build_s", self_s("activity.build"), "s"},
      {"cts.topology_s", topo_s, "s"},
      {"cts.topology_share", ratio(topo_s, path_s), "ratio"},
      {"cts.merges", merges, "count"},
      {"cts.index_queries", queries, "count"},
      {"cts.index_queries_per_merge", ratio(queries, merges), "ratio"},
      {"clocktree.embed_s", self_s("clocktree.embed"), "s"},
      {"clocktree.embed_calls", static_cast<double>(calls("clocktree.embed")), "count"},
      {"clocktree.delays_s", self_s("clocktree.elmore_delays"), "s"},
      {"gating.reduce_s", self_s("gating.reduce_gates"), "s"},
      {"gating.swcap_s", self_s("gating.evaluate_swcap"), "s"},
      {"gating.gates_kept_share", ratio(in.gates_kept, in.gates_before), "ratio"},
      {"core.route_s", route_s, "s"},
      {"core.unattributed_share", route_s > 0.0 ? 1.0 - replayed_s / route_s : 0.0,
       "ratio"},
      {"eco.apply_delta_ms", direct("eco.apply_delta_ms"), "ms"},
      {"eco.incremental_ms", direct("eco.incremental_ms"), "ms"},
      {"eco.full_pass_ms", direct("eco.full_pass_ms"), "ms"},
      {"eco.cone_self_ms", direct("eco.cone_self_ms"), "ms"},
      {"eco.cone_nodes", direct("eco.cone_nodes"), "count"},
      {"eco.spine_merges", direct("eco.spine_merges"), "count"},
      {"eco.ms_per_cone_node", direct("eco.ms_per_cone_node"), "ms"},
      {"serve.submit_us", direct("serve.submit_us"), "us"},
      {"serve.queue_wait_p50_ms", direct("serve.queue_wait_p50_ms"), "ms"},
      {"serve.queue_wait_p99_ms", direct("serve.queue_wait_p99_ms"), "ms"},
      {"serve.lane_p50_ms", direct("serve.lane_p50_ms"), "ms"},
      {"serve.lane_p99_ms", direct("serve.lane_p99_ms"), "ms"},
      {"serve.result_hit_share", direct("serve.result_hit_share"), "ratio"},
      {"serve.design_hit_share", direct("serve.design_hit_share"), "ratio"},
      {"serve.evictions", direct("serve.evictions"), "count"},
      {"serve.peak_queue_depth", direct("serve.peak_queue_depth"), "count"},
      {"serve.shed", direct("serve.shed"), "count"},
      {"serve.lane_busy_share", direct("serve.lane_busy_share"), "ratio"},
      {"loadgen.lag_p99_ms", direct("loadgen.lag_p99_ms"), "ms"},
      {"loadgen.poll_resolution_ms", direct("loadgen.poll_resolution_ms"), "ms"},
      {"trace.overhead_share", direct("trace.overhead_share"), "ratio"},
      {"host.probe_ms", direct("host.probe_ms"), "ms"},
  };
}

void print_result(const pb::Outcome& o, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              o.failed == 0 ? "true" : "false", o.attempted, o.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<pb::Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench_harness --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR\n";
    return 2;
  }
  const pb::Args& a = *args;
  pb::Tracer tracer;
  pb::Tracer* t = a.trace ? &tracer : nullptr;
  pb::Outcome o;
  try {
    std::filesystem::create_directories(a.out_dir);
    pb::HostProbe probe;
    if (a.workload == "route_flat") o = pb::run_route_flat(a, probe, t);
    else if (a.workload == "eco_stream") o = pb::run_eco_stream(a, probe, t);
    else if (a.workload == "serve_mixed") o = pb::run_serve_mixed(a, probe, t);
    else {
      std::cerr << "unknown workload: " << a.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.workload << " failed: " << e.what() << "\n";
    return 2;
  }
  for (const std::string& e : o.errors) std::cerr << "perfbench: " << e << "\n";

  std::vector<Metric> metrics = a.trace ? per_layer(o, tracer) : end_to_end(o);
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      o.fail(m.name + " is not finite");
      m.value = 0.0;
    }
  }
  if (a.trace) {
    const std::string path = a.out_dir + "/trace-" + a.workload + "-" +
                             std::to_string(a.seed) + ".json";
    if (!tracer.write(path)) o.fail("cannot write " + path);
  }
  print_result(o, metrics);
  return o.failed == 0 ? 0 : 1;
}
