#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "log/logger.h"

/// \file telemetry.h
/// Continuous metrics telemetry: a dedicated thread ticks on drift-free
/// absolute steady-clock deadlines and emits, per tick, one ordinary
/// `gcr.event` v1 record named `metrics.snapshot` whose `data` carries
///
///   * `seq` and `interval_ms`,
///   * counter and histogram *deltas* since the previous tick (non-zero
///     entries only, so an idle process emits near-empty snapshots),
///   * current gauge values (gauges are levels, not rates),
///   * `rss_bytes`: current RSS from /proc/self/statm,
///
/// through the logger's ring, turning the metrics registry into the
/// time-series a gcr_serve dashboard or an activity drift detector
/// consumes. stop() wakes the thread at once and emits a final snapshot,
/// so the tail of a run is never lost to tick phase.

namespace gcr::log {

class TelemetryEmitter {
 public:
  struct Options {
    int interval_ms{1000};  ///< clamped to >= 1
  };

  TelemetryEmitter();
  ~TelemetryEmitter();  ///< stops implicitly if still running
  TelemetryEmitter(const TelemetryEmitter&) = delete;
  TelemetryEmitter& operator=(const TelemetryEmitter&) = delete;

  /// Launch the tick thread. Requires a running Logger (snapshots travel
  /// its ring); no-op when already running.
  void start(const Options& opts);

  /// Emit one final snapshot, join the tick thread. No-op when not
  /// running. Returns the number of snapshots emitted.
  std::uint64_t stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The one logger bring-up every command-line tool uses, torn down on
/// every exit path out of main. The runtime floor is GCR_LOG_LEVEL when
/// set, else `floor`; `verbose` lowers it and the human stderr floor
/// (otherwise Warn) to Debug. The JSONL sink is `log_json`, or GCR_LOG
/// when that is empty; while it is open a TelemetryEmitter runs at the
/// default 1000 ms cadence, and its tail snapshot at teardown leaves the
/// final metrics at the end of the log. A JSONL path that cannot be
/// opened is reported as a `cli.log_open_failed` error event. Also
/// installs the guard::Diag bridge for the scope's lifetime.
class CliScope {
 public:
  CliScope(std::string log_json, bool verbose, Level floor);
  ~CliScope();
  CliScope(const CliScope&) = delete;
  CliScope& operator=(const CliScope&) = delete;

 private:
  TelemetryEmitter telemetry_;
};

}  // namespace gcr::log
