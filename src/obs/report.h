#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/router.h"
#include "obs/json.h"
#include "obs/session.h"

/// \file report.h
/// Versioned JSON run reports: one document per routing run carrying the
/// options, the phase-timing tree, every metric in the global registry
/// (pool work included, as the `par.*` counters), the hardware-counter
/// source and the final switched-capacitance / delay numbers.
/// Schema: `{"schema": "gcr.run_report", "version": 3, ...}` -- bump
/// `kReportVersion` on breaking layout changes and note it in
/// docs/observability.md.
///
/// Version 2 added `hw` ("perf_event" | "unavailable"), `hw_source` and
/// `hw_counters` (the four slot names of the per-phase `"hw"` objects).
/// `"hw": "unavailable"` is the explicit fallback marker: the slots then
/// hold rusage deltas, or nothing when counters were never enabled
/// (`hw_source` "none"), not PMU counts. Version 3 dropped version 2's
/// `pool` section: its job and overhead totals repeated the `par.jobs` and
/// `par.dispatch_overhead_ns` counters, and chunk time is `par.busy_ns`.
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

inline constexpr int kReportVersion = 3;

/// Full run report for one routed design.
void write_run_report(std::ostream& os, const core::RouterOptions& opts,
                      const core::RouterResult& result, const Session& session);

/// Shape-check a parsed run report; one human-readable problem per
/// violation, empty when valid (the contract of validate_bench_report).
/// `gcr_benchdiff --validate` dispatches `gcr.run_report` documents here.
[[nodiscard]] std::vector<std::string> validate_run_report(
    const json::Value& doc);

}  // namespace gcr::obs
