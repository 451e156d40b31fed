#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

/// \file probe.h
/// The host-speed probe. On a shared VM the same build runs the same
/// operations up to ~2x slower while co-tenants load the caches and
/// memory, in episodes of seconds to minutes. So the harness times a fixed
/// kernel of its own next to the workload's operations: one bottom-up pass
/// over a fixed random merge tree of 128k leaves, the shape of the router's
/// embed and delay passes (each internal node reads its two children,
/// scattered in memory as a greedy merge order leaves them, and writes its
/// wire length, load, delay and position; ~12 MB, beyond a core's L2). No
/// change to the library can change the kernel. A time metric is then
/// reported at the nominal host speed, the one at which a pass takes
/// kNominalMs: raw time x (kNominalMs / the pass's time while the work
/// ran)^s, where s is the workload's sensitivity: how much its operations
/// slow, in log, per unit the pass slows. The probe runs only between
/// timed operations, never during one.

namespace perfbench {

class HostProbe {
 public:
  /// A round figure within the 4-8 ms a pass took on the 4-vCPU VM of
  /// README.md; a convention that keeps scaled times near wall times.
  static constexpr double kNominalMs = 6.0;

  /// Builds the tree (seeded, the same in every run) and runs one pass.
  HostProbe();

  /// Median time of `reps` passes [ms].
  double sample_ms(int reps = 5);

  /// Median of every sample taken so far [ms]; 0 before the first.
  [[nodiscard]] double median_ms() const;

  /// The tree's size, which the process's peak RSS carries on top of the
  /// workload's own.
  [[nodiscard]] std::size_t bytes() const;

 private:
  double pass_ms();

  int leaves_;
  std::vector<int> left_, right_;  ///< children of internal nodes
  std::vector<double> cap_, len_, delay_, x_, y_;
  double sink_{0.0};  ///< keeps the passes' results live
  std::vector<double> samples_;
};

/// `raw` (any unit) at the nominal host speed, given the probe's time
/// [ms] while the work ran and the workload's sensitivity.
inline double at_nominal(double raw, double probe_ms, double sensitivity) {
  return raw * std::pow(HostProbe::kNominalMs / probe_ms, sensitivity);
}

}  // namespace perfbench
