#include "obs/report.h"

#include <ostream>

#include "obs/metrics.h"
#include "obs/report_util.h"
#include "prof/hwcounters.h"

namespace gcr::obs {

namespace {

const char* style_name(core::TreeStyle s) {
  switch (s) {
    case core::TreeStyle::Buffered: return "buffered";
    case core::TreeStyle::Gated: return "gated";
    case core::TreeStyle::GatedReduced: return "reduced";
  }
  return "?";
}

const char* topology_name(core::TopologyScheme t) {
  switch (t) {
    case core::TopologyScheme::MinSwitchedCap: return "swcap";
    case core::TopologyScheme::NearestNeighbor: return "nn";
    case core::TopologyScheme::ActivityOnly: return "activity";
    case core::TopologyScheme::Mmm: return "mmm";
  }
  return "?";
}

void write_options(json::Writer& w, const core::RouterOptions& o) {
  w.key("options").begin_object();
  w.field("style", style_name(o.style));
  w.field("topology", topology_name(o.topology));
  w.field("clustered", o.clustered);
  w.field("auto_tune_reduction", o.auto_tune_reduction);
  w.field("gate_sizing",
          o.gate_sizing == ct::GateSizing::Unit ? "unit" : "min_wirelength");
  w.field("skew_bound", o.skew_bound);
  w.field("controller_partitions", o.controller_partitions);
  w.field("num_threads", o.num_threads);
  w.key("reduction").begin_object();
  w.field("theta_activity", o.reduction.theta_activity);
  w.field("theta_swcap", o.reduction.theta_swcap);
  w.field("theta_parent", o.reduction.theta_parent);
  w.field("force_cap_multiple", o.reduction.force_cap_multiple);
  w.end_object();
  w.key("tech").begin_object();
  w.field("unit_res", o.tech.unit_res);
  w.field("unit_cap", o.tech.unit_cap);
  w.field("wire_width", o.tech.wire_width);
  w.field("gate_input_cap", o.tech.gate_input_cap);
  w.field("gate_enable_cap", o.tech.gate_enable_cap);
  w.field("gate_output_res", o.tech.gate_output_res);
  w.field("gate_delay", o.tech.gate_delay);
  w.field("gate_area", o.tech.gate_area);
  w.field("or_gate_area", o.tech.or_gate_area);
  w.field("or_output_cap", o.tech.or_output_cap);
  w.end_object();
  w.end_object();
}

void write_result(json::Writer& w, const core::RouterResult& r) {
  w.key("result").begin_object();
  w.field("sinks", r.tree.num_leaves);
  w.field("nodes", r.tree.num_nodes());
  w.field("num_gates", r.tree.num_gates());
  w.field("gates_before_reduction", r.gates_before_reduction);
  w.field("gate_reduction_pct", r.gate_reduction_pct());
  w.key("swcap").begin_object();
  w.field("clock_swcap", r.swcap.clock_swcap);
  w.field("ctrl_swcap", r.swcap.ctrl_swcap);
  w.field("total_swcap", r.swcap.total_swcap());
  w.field("ungated_swcap", r.swcap.ungated_swcap);
  w.field("clock_wirelength", r.swcap.clock_wirelength);
  w.field("star_wirelength", r.swcap.star_wirelength);
  w.field("wire_area", r.swcap.wire_area);
  w.field("cell_area", r.swcap.cell_area);
  w.field("total_area", r.swcap.total_area());
  w.field("num_cells", r.swcap.num_cells);
  w.end_object();
  w.key("delays").begin_object();
  w.field("max_delay", r.delays.max_delay);
  w.field("min_delay", r.delays.min_delay);
  w.field("skew", r.delays.skew());
  w.end_object();
  w.end_object();
}

void write_hw(json::Writer& w) {
  const prof::HwInfo hw = prof::hw_info();
  w.field("hw", hw.perf_event ? "perf_event" : "unavailable");
  w.field("hw_source", hw.source);
  w.key("hw_counters").begin_array();
  for (const char* name : hw.names) w.value(name);
  w.end_array();
}

}  // namespace

void write_run_report(std::ostream& os, const core::RouterOptions& opts,
                      const core::RouterResult& result,
                      const Session& session) {
  json::Writer w(os);
  w.begin_object();
  w.field("schema", "gcr.run_report");
  w.field("version", kReportVersion);
  w.key("generated").begin_object();
  w.field("timestamp_utc", utc_timestamp());
  w.field("hostname", host_name());
  w.end_object();
  write_options(w, opts);
  write_phase_forest(w, session);
  write_metrics(w);
  write_hw(w);
  write_result(w, result);
  w.end_object();
  os << '\n';
}

std::vector<std::string> validate_run_report(const json::Value& doc) {
  using json::has;
  using json::require;
  std::vector<std::string> problems;
  if (!json::check_header(problems, doc, "gcr.run_report", "version",
                          kReportVersion))
    return problems;
  for (const char* key : {"generated", "options", "counters", "gauges",
                          "histograms", "result"})
    if (!has(doc, key, &json::Value::is_object))
      problems.push_back(std::string("missing ") + key + " object");
  require(problems, has(doc, "phases", &json::Value::is_array),
          "missing phases array");

  const json::Value* hw = doc.find("hw");
  require(problems,
          hw && hw->is_string() &&
              (hw->as_string() == "perf_event" ||
               hw->as_string() == "unavailable"),
          "hw must be \"perf_event\" or \"unavailable\"");
  require(problems, json::has_string(doc, "hw_source"),
          "missing hw_source string");
  const json::Value* hw_counters = doc.find("hw_counters");
  if (hw_counters && hw_counters->is_array()) {
    require(problems, hw_counters->as_array().size() ==
                              static_cast<std::size_t>(kHwSlots),
            "hw_counters must have 4 slots");
    for (const json::Value& n : hw_counters->as_array())
      if (!n.is_string()) {
        problems.emplace_back("hw_counters entries must be strings");
        break;
      }
  } else {
    problems.emplace_back("missing hw_counters array");
  }
  return problems;
}
}  // namespace gcr::obs
