#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/router.h"
#include "obs/json.h"
#include "obs/session.h"

/// \file report.h
/// Versioned JSON run reports: one document per routing run carrying the
/// options, the phase-timing tree, every metric in the global registry,
/// the hardware-counter source, the thread pool's telemetry and the final
/// switched-capacitance / delay numbers.
/// Schema: `{"schema": "gcr.run_report", "version": 2, ...}` -- bump
/// `kReportVersion` on breaking layout changes and note it in
/// docs/observability.md.
///
/// Version 2 added `hw` ("perf_event" | "unavailable"), `hw_source` and
/// `hw_counters` (the four slot names of the per-phase `"hw"` objects),
/// and the `pool` section (par/pool.h). `"hw": "unavailable"` is the
/// explicit fallback marker: the slots then hold rusage deltas, or nothing
/// when counters were never enabled (`hw_source` "none"), not PMU counts.
///
/// Bench reports (`gcr.bench_report`, now at v2 with statistics and memory
/// sections) moved to `perf/report.h`: they are produced by the
/// statistical bench runner, not by a routed run.
///
/// This is the only observability component that knows about the router's
/// types, which is why it lives in its own library target (`gcr_obs_report`
/// links `gcr_core`; the base `gcr_obs` has no dependencies so every layer
/// of the library can link it).

namespace gcr::obs {

inline constexpr int kReportVersion = 2;

/// Full run report for one routed design.
void write_run_report(std::ostream& os, const core::RouterOptions& opts,
                      const core::RouterResult& result, const Session& session);

/// Shape-check a parsed run report; one human-readable problem per
/// violation, empty when valid (the contract of validate_bench_report).
/// `gcr_benchdiff --validate` dispatches `gcr.run_report` documents here.
[[nodiscard]] std::vector<std::string> validate_run_report(
    const json::Value& doc);

/// Human-readable phase tree + non-zero counters (the CLI's --verbose
/// output, written to stderr there).
void print_run_summary(std::ostream& os, const Session& session);

}  // namespace gcr::obs
