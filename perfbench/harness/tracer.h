#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file tracer.h
/// In-memory spans for the traced run. The harness opens a span around
/// each public library call it makes (name = "<layer>.<call>"), keeps them
/// in memory, and writes them out when the run ends. Single-threaded: only
/// the harness thread records; work inside the library's own threads is
/// seen through the spans of the calls that wait for it.

namespace perfbench {

/// Microseconds on the steady clock since process start.
double now_us();

struct SpanRec {
  std::string name;
  double start_us{0.0};
  double end_us{0.0};
  int parent{-1};          ///< index of the enclosing span, -1 at top level
  std::uint64_t rid{0};    ///< request id shared by one request's spans
  [[nodiscard]] double dur_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  int open(std::string name, std::uint64_t rid = 0);
  void close(int idx);
  /// Record a finished span after the fact (e.g. a request's due-to-
  /// observed interval); it nests under the innermost open span.
  void add(std::string name, double start_us, double end_us,
           std::uint64_t rid = 0);
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  /// JSON array of {name, start_us, end_us, parent, rid}; false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

/// RAII span; inert when `t` is null (the untraced run).
class Span {
 public:
  Span(Tracer* t, std::string name, std::uint64_t rid = 0)
      : t_(t), idx_(t ? t->open(std::move(name), rid) : -1) {}
  ~Span() {
    if (t_) t_->close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

/// Run `f` under a span named `name`; returns its wall time [ms].
template <class F>
double timed_ms(Tracer* t, std::string name, F&& f, std::uint64_t rid = 0) {
  const double t0 = now_us();
  {
    const Span s(t, std::move(name), rid);
    f();
  }
  return (now_us() - t0) * 1e-3;
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<double> self_times_us(const std::vector<SpanRec>& spans);

struct NameTotals {
  double self_s{0.0};
  int calls{0};
};
/// Per span name: summed self time and call count.
std::map<std::string, NameTotals> totals_by_name(const std::vector<SpanRec>& spans);

}  // namespace perfbench
