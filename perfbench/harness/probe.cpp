#include "probe.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "stats.h"
#include "tracer.h"

namespace perfbench {

namespace {

constexpr int kLeaves = 1 << 17;
constexpr std::uint64_t kTreeSeed = 0x9b0be;

}  // namespace

HostProbe::HostProbe()
    : leaves_(kLeaves),
      left_(2 * kLeaves - 1, -1),
      right_(2 * kLeaves - 1, -1),
      cap_(2 * kLeaves - 1),
      len_(2 * kLeaves - 1),
      delay_(2 * kLeaves - 1),
      x_(2 * kLeaves - 1),
      y_(2 * kLeaves - 1) {
  Rng rng(kTreeSeed);
  for (int i = 0; i < leaves_; ++i) {
    cap_[i] = rng.uniform(0.005, 0.08);
    x_[i] = rng.uniform();
    y_[i] = rng.uniform();
  }
  // Merge two random roots at a time, so children sit far apart in memory.
  std::vector<int> roots(static_cast<std::size_t>(leaves_));
  std::iota(roots.begin(), roots.end(), 0);
  const auto take = [&] {
    const std::size_t k = rng.next() % roots.size();
    const int v = roots[k];
    roots[k] = roots.back();
    roots.pop_back();
    return v;
  };
  for (int v = leaves_; roots.size() > 1; ++v) {
    left_[v] = take();
    right_[v] = take();
    roots.push_back(v);
  }
  (void)pass_ms();
}

std::size_t HostProbe::bytes() const {
  return left_.size() * (2 * sizeof(int) + 5 * sizeof(double));
}

double HostProbe::pass_ms() {
  const double t0 = now_us();
  const int n = static_cast<int>(left_.size());
  for (int v = leaves_; v < n; ++v) {
    const int a = left_[v];
    const int b = right_[v];
    const double d = std::fabs(x_[a] - x_[b]) + std::fabs(y_[a] - y_[b]);
    len_[v] = d;
    cap_[v] = cap_[a] + cap_[b] + 0.1 * d;
    delay_[v] = std::max(delay_[a] + d * cap_[a], delay_[b] + d * cap_[b]);
    x_[v] = 0.5 * (x_[a] + x_[b]);
    y_[v] = 0.5 * (y_[a] + y_[b]);
  }
  double s = 0.0;
  for (int v = n - 1; v >= leaves_; --v) s += 0.5 * (delay_[left_[v]] + delay_[right_[v]]);
  sink_ += s;
  return (now_us() - t0) * 1e-3;
}

double HostProbe::sample_ms(int reps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(pass_ms());
  samples_.push_back(median(std::move(ms)));
  return samples_.back();
}

double HostProbe::median_ms() const { return median(samples_); }

}  // namespace perfbench
