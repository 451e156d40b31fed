#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "perf/runner.h"

/// \file report.h
/// The `gcr.bench_report` v2 sidecar writer -- the machine-readable output
/// of the statistical bench runner, one document per bench binary (or per
/// `gcr_bench` group).
///
/// v2 replaces PR 1's v1 (a bare phase tree + counters snapshot) with:
///   * `benchmarks`: per-benchmark statistics blocks (median/min/max/mean/
///     p90/MAD over >= min_reps repetitions) and a memory section
///     (allocs/bytes per rep, peak live bytes),
///   * `fingerprint`: git SHA, compiler, flags and build type, so a diff
///     tool can refuse to compare apples to oranges,
///   * `memory`: process-level hook state and peak RSS,
///   * the v1 phase tree and metrics snapshot, unchanged (phases now carry
///     `alloc_count`/`alloc_bytes` when the hook attributed heap traffic,
///     and an `hw` object when hardware counters were attached),
///   * `pool`: the thread pool's telemetry over the run (par/pool.h),
///     optional so reports written before it existed stay valid.
///
/// Readers: `perf/diff.h` (schema validation + regression diffing) and
/// anything that can parse JSON. Bump `kBenchReportVersion` on breaking
/// layout changes and note it in docs/benchmarking.md.

namespace gcr::obs {
class Session;
}  // namespace gcr::obs

namespace gcr::par {
struct PoolTelemetry;
}  // namespace gcr::par

namespace gcr::perf {

inline constexpr int kBenchReportVersion = 2;

/// Build/host provenance baked into every report at compile/configure
/// time. `git_sha` is the configure-time HEAD (suffixed "-dirty" when the
/// tree had local changes) -- good enough to name a baseline, not a
/// substitute for committing the report next to the code it measured.
/// `timestamp_utc`/`hostname` are captured at emission time; validators
/// accept fingerprints without them (pre-stamp baselines stay loadable).
struct Fingerprint {
  std::string git_sha;
  std::string compiler;
  std::string flags;
  std::string build_type;
  std::string os;
  std::string timestamp_utc;  ///< "2026-08-09T12:34:56Z"
  std::string hostname;

  [[nodiscard]] static Fingerprint current();
};

/// Write one complete bench report. `session` may be null (no phase tree
/// was collected); the metrics snapshot is global and always included.
/// `pool` is the pool telemetry accrued over the run (omitted when null).
void write_bench_report(std::ostream& os, std::string_view bench_name,
                        const std::vector<BenchResult>& results,
                        const RunnerOptions& opts,
                        const obs::Session* session,
                        const par::PoolTelemetry* pool = nullptr);

}  // namespace gcr::perf
