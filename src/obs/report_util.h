#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/json.h"

/// \file report_util.h
/// JSON fragments shared by every report writer: the phase-timing forest
/// and the metrics-registry snapshot. Lives in the base `gcr_obs` target
/// (no core dependency) so both `gcr_obs_report` (run reports, needs
/// `core` types) and `gcr_perf` (bench reports, must not link `core`'s
/// serialization) emit byte-identical sections.

namespace gcr::obs {

class Session;

/// `"phases": [...]` — the session's phase tree as nested objects with
/// name/calls/total_ms/children, plus alloc_count/alloc_bytes when an
/// allocation sampler attributed heap traffic to the phase.
void write_phase_forest(json::Writer& w, const Session& session);

/// `"counters": {...}, "gauges": {...}, "histograms": {...}` — snapshot of
/// the global metrics registry.
void write_metrics(json::Writer& w);

/// Human-readable phase tree + non-zero counters (the CLI's --verbose
/// output, written to stderr there). Phases with attributed allocations
/// get an `allocs / bytes` column.
void print_session_summary(std::ostream& os, const Session& session);

/// Wall clock, nanoseconds since the Unix epoch.
[[nodiscard]] std::int64_t wall_now_ns();

/// ISO-8601 UTC of `wall_ns`: "2026-08-09T12:34:56Z", or with `millis`
/// "2026-08-09T12:34:56.789Z". Report fingerprints stamp seconds (the
/// provenance for longitudinal tracking); event lines stamp milliseconds.
[[nodiscard]] std::string utc_timestamp(std::int64_t wall_ns = wall_now_ns(),
                                        bool millis = false);

/// gethostname(), "unknown" when unavailable.
[[nodiscard]] std::string host_name();

}  // namespace gcr::obs
