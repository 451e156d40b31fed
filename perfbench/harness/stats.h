#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// \file stats.h
/// The benchmark's own arithmetic: its seeded generator, percentiles and
/// the tail rule, the open-loop arrival schedule, and due-time latency
/// accounting. Header-only so tests/helpers_test.cpp pins each piece.

namespace perfbench {

/// splitmix64: a tiny, fully specified generator, so a seed yields the
/// same inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform in [0, n); n > 0.
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

/// 1-based nearest rank of the p-th percentile of n samples (the slack
/// keeps 99.9% of 10000 at rank 9990 despite rounding).
inline std::size_t nearest_rank(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

/// Nearest-rank percentile (a real sample, never interpolated) of
/// unsorted values; p in (0, 100]. Empty input gives 0.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::clamp<std::size_t>(nearest_rank(v.size(), p), 1, v.size()) - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - std::min(nearest_rank(n, p), n);
}

/// The tail rule: the highest of `candidates` (ascending) that leaves at
/// least `min_beyond` samples beyond it, or 0 when none does.
inline double tail_percentile(std::size_t n, std::span<const double> candidates,
                              std::size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : candidates)
    if (samples_beyond(n, p) >= min_beyond) best = p;
  return best;
}

inline constexpr double kTailCandidates[] = {50.0, 90.0, 95.0, 99.0, 99.9};

/// Open-loop arrivals: `n` due times [s] of a Poisson process at `rate`
/// per second, starting after the first exponential gap.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            std::size_t n) {
  Rng rng(seed);
  std::vector<double> due;
  due.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.uniform()) / rate;
    due.push_back(t);
  }
  return due;
}

/// One open-loop request as the load generator saw it. Times in ms on
/// the generator's clock.
struct RequestTimes {
  double due_ms{0.0};       ///< when the schedule said to send it
  double observed_ms{0.0};  ///< when its outcome was first seen
  double lane_ms{0.0};      ///< time inside a worker lane (0 if none)
  bool done{false};         ///< ended Done with a verified result
};

struct LatencySummary {
  std::vector<double> latency_ms;     ///< observed - due, Done requests only
  std::vector<double> queue_wait_ms;  ///< observed - due - lane, Done only
  std::size_t sent{0};
  std::size_t met{0};  ///< Done within the limit
  [[nodiscard]] double met_share() const {
    return sent == 0 ? 0.0 : static_cast<double>(met) / static_cast<double>(sent);
  }
};

/// Latency from the due time, so a stall charges every request it delays.
/// A request that did not end Done (shed, expired, invalid, errored)
/// misses the limit and adds no latency sample.
inline LatencySummary account(std::span<const RequestTimes> reqs,
                              double limit_ms) {
  LatencySummary s;
  s.sent = reqs.size();
  for (const RequestTimes& r : reqs) {
    if (!r.done) continue;
    const double lat = r.observed_ms - r.due_ms;
    s.latency_ms.push_back(lat);
    s.queue_wait_ms.push_back(lat - r.lane_ms);
    if (lat <= limit_ms) ++s.met;
  }
  return s;
}

}  // namespace perfbench
