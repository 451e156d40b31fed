#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"

/// \file schema.h
/// Validation and field extraction for the one JSONL line schema the
/// logger emits -- `gcr.event` v1, including the `metrics.snapshot`
/// payload -- shared by the `gcr_events` tool and log_test so "the tool
/// accepts it" and "the test accepts it" can never drift apart.
/// docs/observability.md documents the layout field by field.

namespace gcr::log {

/// The fields a consumer filters or aggregates on, pulled out of one
/// validated line.
struct LineInfo {
  std::string level;
  std::string event;
  std::string phase;
  double t_ms{0.0};
  std::uint64_t suppressed{0};
};

/// Schema problems of one parsed JSONL line; empty = valid. Any schema
/// other than `gcr.event` is a problem (the stream is ours end to end).
[[nodiscard]] std::vector<std::string> validate_line(
    const obs::json::Value& doc);

/// Extract LineInfo from a `gcr.event` line.
[[nodiscard]] std::optional<LineInfo> parse_line(const obs::json::Value& doc);

}  // namespace gcr::log
