#pragma once

#include <cstdint>
#include <string>

#include "core/design.h"
#include "eco/delta.h"
#include "stats.h"

/// \file gen.h
/// Seeded synthetic designs and edits. The benchmark makes every input
/// itself; the library only ever sees the files and objects made here.
///
/// A design is the repository's own synthetic instance, seeded: the sinks
/// of benchdata::generate_rbench (uniform over a square die of side
/// 1200*sqrt(N) lambda, the density of the scale group; load caps uniform
/// in [0.005, 0.08] pF) and the workload of benchdata::generate_workload
/// with the evaluation settings of the paper-table benches (K=32
/// instructions over max(16, N/32) spatial clusters, 40% activity, 0.9
/// in-cluster use, 0.85 stream locality).

namespace perfbench {

struct DesignSpec {
  int sinks{0};
  int stream_length{0};
};

[[nodiscard]] gcr::core::Design generate_design(const DesignSpec& spec,
                                                std::uint64_t seed);

struct DesignFiles {
  std::string sinks, rtl, stream;
};

/// Write `d` as `<dir>/<stem>.{sinks,rtl,stream}`; returns the paths.
/// Throws std::runtime_error when a file cannot be written.
DesignFiles write_design(const gcr::core::Design& d, const std::string& dir,
                         const std::string& stem);

/// One single-sink edit against `base`: a move to a uniform point of the
/// die (~70%), an added sink driven by an existing sink's module (~15%),
/// or a removal (~15%).
[[nodiscard]] gcr::eco::DesignDelta random_edit(const gcr::core::Design& base,
                                                Rng& rng);

}  // namespace perfbench
