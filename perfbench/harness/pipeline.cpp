#include "pipeline.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <streambuf>
#include <vector>

#include "clocktree/elmore.h"
#include "clocktree/embed.h"
#include "cts/greedy.h"
#include "gating/controller.h"
#include "gating/gate_reduction.h"
#include "gating/swcap.h"
#include "io/text_io.h"
#include "io/tree_io.h"

namespace perfbench {

namespace {

template <class Reader>
auto parse(const std::string& path, Tracer* t, const char* span, Reader read) {
  const Span s(t, span);
  std::ifstream is(path);
  gcr::guard::Diag diag;
  auto v = is ? read(is, diag, path) : std::nullopt;
  if (!v)
    throw std::runtime_error(is ? diag.first_error().to_string()
                                : "cannot open " + path);
  return std::move(*v);
}

std::uint64_t file_bytes(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

gcr::ct::Topology topology_of(const gcr::ct::RoutedTree& tree) {
  gcr::ct::Topology topo(tree.num_leaves);
  for (int id = tree.num_leaves; id < tree.num_nodes(); ++id) {
    const gcr::ct::RoutedNode& n = tree.nodes[static_cast<std::size_t>(id)];
    if (topo.merge(n.left, n.right) != id)
      throw std::runtime_error("routed tree is not in merge order");
  }
  return topo;
}

}  // namespace

DiskRoute route_from_disk(const DesignFiles& in, const std::string& tree_out,
                          const gc::RouterOptions& opts, Tracer* t) {
  namespace io = gcr::io;
  DiskRoute r;
  const Span whole(t, "route_from_disk");
  const double t0 = now_us();
  io::SinksFile sinks = parse(in.sinks, t, "io.read_sinks",
                              [](auto& is, auto& diag, const auto& p) {
                                return io::read_sinks(is, diag, p);
                              });
  gcr::activity::RtlDescription rtl =
      parse(in.rtl, t, "io.read_rtl", [](auto& is, auto& diag, const auto& p) {
        return io::read_rtl(is, diag, p);
      });
  gcr::activity::InstructionStream stream = parse(
      in.stream, t, "io.read_stream", [](auto& is, auto& diag, const auto& p) {
        return io::read_stream(is, diag, p);
      });
  {
    const Span s(t, "activity.build");
    r.router = std::make_unique<gc::GatedClockRouter>(
        gc::Design{sinks.die, std::move(sinks.sinks), std::move(rtl),
                   std::move(stream), {}});
  }
  {
    const Span s(t, "core.route");
    r.result = r.router->route(opts);
  }
  {
    const Span s(t, "io.write_routed_tree");
    std::ofstream os(tree_out);
    io::write_routed_tree(os, r.result.tree);
    os.close();
    if (!os) throw std::runtime_error("cannot write " + tree_out);
  }
  r.seconds = (now_us() - t0) * 1e-6;
  r.bytes_read = file_bytes(in.sinks) + file_bytes(in.rtl) + file_bytes(in.stream);
  r.bytes_written = file_bytes(tree_out);
  return r;
}

Replay replay_route(const gc::GatedClockRouter& router,
                    const gc::RouterOptions& opts, Tracer* t) {
  if (opts.style == gc::TreeStyle::Buffered ||
      opts.topology != gc::TopologyScheme::MinSwitchedCap || opts.clustered ||
      opts.skew_bound != 0.0 || opts.gate_sizing != gcr::ct::GateSizing::Unit)
    throw std::invalid_argument("replay_route: unsupported options");
  const Span whole(t, "replay");
  const gc::Design& design = router.design();
  const std::vector<int> leaf_module = design.resolved_sink_modules();
  const gcr::geom::Point cp = design.die.center();
  const gcr::tech::TechParams& tech = opts.tech;

  gcr::cts::BuildResult built = [&] {
    const Span s(t, "cts.build_topology");
    gcr::cts::BuildOptions b;
    b.cost = gcr::cts::MergeCost::SwitchedCapacitance;
    b.gated_edges = true;
    b.control_point = cp;
    b.num_threads = opts.num_threads;
    b.partner_index = opts.partner_index;
    b.tech = tech;
    return gcr::cts::build_topology(design.sinks, &router.analyzer(),
                                    leaf_module, b);
  }();
  const gcr::gating::NodeActivity act{built.mask, built.p_en, built.p_tr};
  const gcr::gating::ControllerPlacement ctrl(design.die,
                                              opts.controller_partitions);
  gcr::ct::EmbedOptions eopts;
  eopts.root_hint = cp;
  const auto embed = [&](const std::vector<bool>& gates) {
    const Span s(t, "clocktree.embed");
    return gcr::ct::embed(built.topo, design.sinks, gates, tech, eopts);
  };
  const auto swcap = [&](const gcr::ct::RoutedTree& tree) {
    const Span s(t, "gating.evaluate_swcap");
    return gcr::gating::evaluate_swcap(tree, act, ctrl, tech,
                                       gcr::gating::CellStyle::MaskingGate);
  };
  const auto reduce = [&](const gcr::ct::RoutedTree& full,
                          const gcr::gating::GateReductionParams& p) {
    const Span s(t, "gating.reduce_gates");
    return gcr::gating::reduce_gates(full, built.p_en, tech, p);
  };

  std::vector<bool> gated(static_cast<std::size_t>(built.topo.num_nodes()), true);
  gated[static_cast<std::size_t>(built.topo.root())] = false;
  Replay out;
  if (opts.style == gc::TreeStyle::Gated) {
    out.tree = embed(gated);
    out.total_swcap = swcap(out.tree).total_swcap();
    out.gates_before = out.tree.num_gates();
  } else {
    const gcr::ct::RoutedTree full = embed(gated);
    out.gates_before = full.num_gates();
    if (opts.auto_tune_reduction) {
      out.total_swcap = std::numeric_limits<double>::infinity();
      for (int step = 0; step <= 10; ++step) {
        gcr::ct::RoutedTree cand = embed(reduce(
            full, gcr::gating::GateReductionParams::from_strength(0.1 * step)));
        const double w = swcap(cand).total_swcap();
        if (w < out.total_swcap) {
          out.total_swcap = w;
          out.tree = std::move(cand);
        }
      }
    } else {
      out.tree = embed(reduce(full, opts.reduction));
      out.total_swcap = swcap(out.tree).total_swcap();
    }
  }
  out.gates_kept = out.tree.num_gates();
  {
    const Span s(t, "clocktree.elmore_delays");
    (void)gcr::ct::elmore_delays(out.tree, tech);
  }
  return out;
}

double replay_full_pass(const gc::Design& design, const gc::RouterResult& r,
                        const gc::RouterOptions& opts, Tracer* t) {
  const gcr::ct::Topology topo = topology_of(r.tree);
  std::vector<bool> gates(r.tree.nodes.size());
  for (std::size_t i = 0; i < gates.size(); ++i) gates[i] = r.tree.nodes[i].gated;
  gcr::ct::EmbedOptions eopts;
  eopts.root_hint = design.die.center();
  gcr::ct::RoutedTree tree = [&] {
    const Span s(t, "clocktree.embed");
    return gcr::ct::embed(topo, design.sinks, gates, opts.tech, eopts);
  }();
  double w = 0.0;
  {
    const Span s(t, "gating.evaluate_swcap");
    const gcr::gating::ControllerPlacement ctrl(design.die,
                                                opts.controller_partitions);
    w = gcr::gating::evaluate_swcap(tree, r.activity, ctrl, opts.tech,
                                    gcr::gating::CellStyle::MaskingGate)
            .total_swcap();
  }
  {
    const Span s(t, "clocktree.elmore_delays");
    (void)gcr::ct::elmore_delays(tree, opts.tech);
  }
  return w;
}

namespace {

/// FNV-1a, 64 bit, over everything written to it: a tree's bytes are
/// compared without holding them.
class HashBuf : public std::streambuf {
 public:
  void add(const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= static_cast<unsigned char>(p[i]);
      h_ *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    add(&ch, 1);
    return c;
  }
  std::streamsize xsputn(const char* p, std::streamsize n) override {
    add(p, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::uint64_t h_{14695981039346656037ull};
};

}  // namespace

std::uint64_t tree_hash(const gcr::ct::RoutedTree& tree) {
  HashBuf buf;
  std::ostream os(&buf);
  gcr::io::write_routed_tree(os, tree);
  return buf.value();
}

std::uint64_t file_hash(const std::string& path) {
  HashBuf buf;
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::vector<char> chunk(1 << 16);
  while (is.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
         is.gcount() > 0)
    buf.add(chunk.data(), static_cast<std::size_t>(is.gcount()));
  return buf.value();
}

}  // namespace perfbench
