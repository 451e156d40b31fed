#include "gen.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "io/text_io.h"

namespace perfbench {

namespace gc = gcr::core;

gc::Design generate_design(const DesignSpec& spec, std::uint64_t seed) {
  const int n = spec.sinks;
  gcr::benchdata::RBench rb = gcr::benchdata::generate_rbench(
      {"perfbench", n, 1200.0 * std::sqrt(static_cast<double>(n)), 0.005, 0.08, seed});
  gcr::benchdata::WorkloadSpec w;
  w.num_instructions = 32;
  w.num_clusters = std::max(16, n / 32);
  w.target_activity = 0.4;
  w.in_cluster_use = 0.9;
  w.locality = 0.85;
  w.stream_length = spec.stream_length;
  w.seed = seed;
  gcr::benchdata::Workload wl = gcr::benchdata::generate_workload(w, rb.sinks, rb.die);
  return {rb.die, std::move(rb.sinks), std::move(wl.rtl), std::move(wl.stream), {}};
}

DesignFiles write_design(const gc::Design& d, const std::string& dir,
                         const std::string& stem) {
  DesignFiles f{dir + "/" + stem + ".sinks", dir + "/" + stem + ".rtl",
                dir + "/" + stem + ".stream"};
  const auto put = [](const std::string& path, const auto& write) {
    std::ofstream os(path);
    write(os);
    if (!os) throw std::runtime_error("cannot write " + path);
  };
  put(f.sinks, [&](std::ostream& os) { gcr::io::write_sinks(os, d.die, d.sinks); });
  put(f.rtl, [&](std::ostream& os) { gcr::io::write_rtl(os, d.rtl); });
  put(f.stream, [&](std::ostream& os) { gcr::io::write_stream(os, d.stream); });
  return f;
}

gcr::eco::DesignDelta random_edit(const gc::Design& base, Rng& rng) {
  gcr::eco::DesignDelta delta;
  const int n = base.num_sinks();
  const double u = rng.uniform();
  const gcr::geom::Point to{rng.uniform(base.die.xlo, base.die.xhi),
                            rng.uniform(base.die.ylo, base.die.yhi)};
  if (u < 0.70) {
    delta.moves.push_back({rng.below(n), to});
  } else if (u < 0.85) {
    const std::vector<int> mods = base.resolved_sink_modules();
    delta.adds.push_back({{to, rng.uniform(0.005, 0.08)},
                          mods[static_cast<std::size_t>(rng.below(n))]});
  } else {
    delta.removes.push_back(rng.below(n));
  }
  return delta;
}

}  // namespace perfbench
