#pragma once

#include <chrono>

#include "obs/timer.h"
#include "obs/trace.h"

/// \file session.h
/// A `Session` is one observed run: it owns the phase-timing tree, carries
/// the (optional, non-owned) trace sink, and fixes the time epoch trace
/// timestamps are relative to. Metrics stay in the process-global
/// `Registry` (see metrics.h); a session does not duplicate them.
///
/// Instrumented library code never receives a session explicitly -- the
/// caller binds one to the current thread around the work:
///
///   obs::Session session;
///   obs::MemoryTraceSink trace;
///   session.set_trace(&trace);
///   {
///     obs::Bind bind(&session);
///     ... construct router, route ...   // timers/trace land in `session`
///   }
///   obs::write_run_report(os, opts, result, session);
///
/// This keeps every public algorithm signature unchanged and makes the
/// disabled path (no session bound, the default) a thread-local null check.
/// A session is single-threaded by construction: bind it on the thread
/// doing the work.

namespace gcr::obs {

class Session {
 public:
  Session() : epoch_(std::chrono::steady_clock::now()) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Pool-worker view of `parent`: shares its time epoch and trace sink
  /// (sinks are thread-safe; see trace.h) but owns an independent phase
  /// tree, because PhaseTimers is single-threaded by construction.
  /// `par::ThreadPool` binds one of these on each worker for the duration
  /// of a job, so trace events emitted inside worker chunks land in the
  /// run's sink with timestamps on the parent's axis instead of being
  /// silently dropped. Worker-side ScopedTimers aggregate into the view
  /// and are discarded with it -- pool *time* attribution is the
  /// `par.busy_ns` counter's job, not the phase tree's.
  struct WorkerViewTag {};
  Session(WorkerViewTag, const Session& parent)
      : epoch_(parent.epoch_), trace_(parent.trace_) {}

  [[nodiscard]] PhaseTimers& timers() { return timers_; }
  [[nodiscard]] const PhaseTimers& timers() const { return timers_; }

  /// Attach a trace sink (not owned; nullptr detaches).
  void set_trace(TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] TraceSink* trace() const { return trace_; }

  /// Microseconds since the session was created (steady clock).
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  PhaseTimers timers_;
  TraceSink* trace_{nullptr};
};

/// The session bound to the current thread, or nullptr (the default).
[[nodiscard]] Session* current();

/// The bound session's trace sink, or nullptr. The one-line guard for
/// decision-event emitters.
[[nodiscard]] inline TraceSink* active_trace() {
  Session* s = current();
  return s ? s->trace() : nullptr;
}

/// RAII thread-local binding; restores the previous binding on scope exit
/// so sessions can nest (e.g. a test observing a helper that observes).
class Bind {
 public:
  explicit Bind(Session* s);
  ~Bind();
  Bind(const Bind&) = delete;
  Bind& operator=(const Bind&) = delete;

 private:
  Session* prev_;
};

}  // namespace gcr::obs
