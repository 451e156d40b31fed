#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/router.h"
#include "gen.h"
#include "tracer.h"

/// \file pipeline.h
/// The library calls the workloads share, each under its span:
///   io.read_sinks / io.read_rtl / io.read_stream   parse the input files
///   activity.build        GatedClockRouter construction (the activity
///                         engine built from the design's stream)
///   core.route            GatedClockRouter::route
///   io.write_routed_tree  write the tree file
/// and the traced replay of route()'s flow through the layers' public
/// calls (cts.build_topology, clocktree.embed, gating.reduce_gates,
/// gating.evaluate_swcap, clocktree.elmore_delays).

namespace perfbench {

namespace gc = gcr::core;

/// One route from the three input files on disk to the tree file on disk.
struct DiskRoute {
  std::unique_ptr<gc::GatedClockRouter> router;
  gc::RouterResult result;
  double seconds{0.0};           ///< read .. written, wall
  std::uint64_t bytes_read{0};   ///< the three input files
  std::uint64_t bytes_written{0};
};

/// Throws std::runtime_error when an input does not parse or the route
/// fails.
[[nodiscard]] DiskRoute route_from_disk(const DesignFiles& in,
                                        const std::string& tree_out,
                                        const gc::RouterOptions& opts,
                                        Tracer* t);

/// What the replay of route()'s flow produced.
struct Replay {
  gcr::ct::RoutedTree tree;
  double total_swcap{0.0};
  int gates_before{0};  ///< gates of the fully gated tree
  int gates_kept{0};    ///< gates of the final tree
};

/// Re-run route()'s flow for `opts` through the layers' public calls, one
/// span each. Supports the flat Eq. 3 gated styles (with or without
/// auto-tune) at zero skew with unit gates; throws std::invalid_argument
/// for anything else.
[[nodiscard]] Replay replay_route(const gc::GatedClockRouter& router,
                                  const gc::RouterOptions& opts, Tracer* t);

/// An ECO result's O(N) tail, re-run on its own tree: embed with the
/// tree's gate set, evaluate_swcap and elmore_delays. Returns W.
double replay_full_pass(const gc::Design& design, const gc::RouterResult& r,
                        const gc::RouterOptions& opts, Tracer* t);

/// FNV-1a (64 bit) of the tree as write_routed_tree prints it, streamed.
[[nodiscard]] std::uint64_t tree_hash(const gcr::ct::RoutedTree& tree);

/// FNV-1a (64 bit) of a file's bytes, read in chunks; throws
/// std::runtime_error when the file cannot be opened.
[[nodiscard]] std::uint64_t file_hash(const std::string& path);

}  // namespace perfbench
