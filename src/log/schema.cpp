#include "log/schema.h"

#include "log/logger.h"

namespace gcr::log {

namespace {

using obs::json::has_number;
using obs::json::has_string;
using obs::json::require;
using obs::json::Value;

/// The `metrics.snapshot` payload (log/telemetry.h).
void validate_snapshot_data(std::vector<std::string>& problems,
                            const Value& data) {
  require(problems, has_number(data, "seq"), "missing seq");
  require(problems, has_number(data, "interval_ms"), "missing interval_ms");
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const Value* section = data.find(key);
    if (!section || !section->is_object()) {
      problems.push_back(std::string("missing ") + key + " object");
      continue;
    }
    const bool histograms = std::string_view(key) == "histograms";
    for (const auto& [name, val] : section->as_object()) {
      if (!histograms && !val.is_number()) {
        problems.push_back(std::string(key) + "." + name + " is not a number");
        break;
      }
      if (histograms && !(has_number(val, "count") && has_number(val, "sum"))) {
        problems.push_back("histograms." + name + " must carry count and sum");
        break;
      }
    }
  }
  require(problems, has_number(data, "rss_bytes"), "missing rss_bytes");
}

}  // namespace

std::vector<std::string> validate_line(const Value& doc) {
  std::vector<std::string> problems;
  if (!obs::json::check_header(problems, doc, "gcr.event", "v",
                               kEventSchemaVersion))
    return problems;
  require(problems, has_string(doc, "run"), "missing run id");
  require(problems, has_number(doc, "t_ms"), "missing t_ms");
  require(problems, has_string(doc, "wall"), "missing wall timestamp");
  const Value* level = doc.find("level");
  require(problems,
          level && level->is_string() &&
              parse_level(level->as_string()).has_value() &&
              level->as_string() != "off",
          "level missing or not trace/debug/info/warn/error");
  const Value* event = doc.find("event");
  require(problems,
          event && event->is_string() && !event->as_string().empty(),
          "missing event name");
  require(problems, has_string(doc, "phase"), "missing phase");
  require(problems, has_number(doc, "tid"), "missing tid");
  require(problems, has_number(doc, "worker"), "missing worker");
  const Value* sup = doc.find("suppressed");
  require(problems, sup == nullptr || sup->is_number(),
          "suppressed must be a number");
  const Value* data = doc.find("data");
  if (!data || !data->is_object())
    problems.emplace_back("missing data object");
  else if (event && event->is_string() &&
           event->as_string() == "metrics.snapshot")
    validate_snapshot_data(problems, *data);
  return problems;
}

std::optional<LineInfo> parse_line(const Value& doc) {
  const Value* schema = doc.find("schema");
  if (!schema || !schema->is_string() || schema->as_string() != "gcr.event")
    return std::nullopt;
  LineInfo info;
  info.t_ms = doc.number_or("t_ms", 0.0);
  if (const Value* level = doc.find("level"))
    if (level->is_string()) info.level = level->as_string();
  if (const Value* event = doc.find("event"))
    if (event->is_string()) info.event = event->as_string();
  if (const Value* phase = doc.find("phase"))
    if (phase->is_string()) info.phase = phase->as_string();
  info.suppressed =
      static_cast<std::uint64_t>(doc.number_or("suppressed", 0.0));
  return info;
}

}  // namespace gcr::log
