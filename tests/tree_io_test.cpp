#include <gtest/gtest.h>

#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "benchdata/rbench.h"
#include "clocktree/elmore.h"
#include "clocktree/embed.h"
#include "cts/greedy.h"
#include "io/tree_io.h"

namespace gcr::io {
namespace {

ct::RoutedTree sample_tree(int n, std::uint64_t seed) {
  benchdata::RBenchSpec spec{"t", n, 5000.0, 0.005, 0.06, seed};
  const auto bench = benchdata::generate_rbench(spec);
  cts::BuildOptions opts;
  const auto built = cts::build_topology(bench.sinks, nullptr, {}, opts);
  std::vector<bool> gates(static_cast<std::size_t>(built.topo.num_nodes()),
                          true);
  gates[static_cast<std::size_t>(built.topo.root())] = false;
  return ct::embed(built.topo, bench.sinks, gates, opts.tech);
}

TEST(TreeIo, RoundTripPreservesEverything) {
  const ct::RoutedTree tree = sample_tree(20, 44);
  std::stringstream ss;
  write_routed_tree(ss, tree);
  const ct::RoutedTree back = read_routed_tree(ss);

  ASSERT_EQ(back.num_nodes(), tree.num_nodes());
  EXPECT_EQ(back.num_leaves, tree.num_leaves);
  EXPECT_EQ(back.root, tree.root);
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const ct::RoutedNode& a = tree.node(id);
    const ct::RoutedNode& b = back.node(id);
    EXPECT_DOUBLE_EQ(a.loc.x, b.loc.x);
    EXPECT_DOUBLE_EQ(a.loc.y, b.loc.y);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_DOUBLE_EQ(a.edge_len, b.edge_len);
    EXPECT_EQ(a.gated, b.gated);
    EXPECT_DOUBLE_EQ(a.down_cap, b.down_cap);
    EXPECT_DOUBLE_EQ(a.delay, b.delay);
  }
}

TEST(TreeIo, RoundTripRebuildChildLinks) {
  const ct::RoutedTree tree = sample_tree(12, 45);
  std::stringstream ss;
  write_routed_tree(ss, tree);
  const ct::RoutedTree back = read_routed_tree(ss);
  // Child sets must match (order of left/right may swap).
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const auto& a = tree.node(id);
    const auto& b = back.node(id);
    const auto set_a = std::minmax(a.left, a.right);
    const auto set_b = std::minmax(b.left, b.right);
    EXPECT_EQ(set_a, set_b) << "node " << id;
  }
  // A reloaded tree is still a measurable tree: the Elmore referee runs.
  const tech::TechParams tech;
  const ct::DelayReport ra = ct::elmore_delays(tree, tech);
  const ct::DelayReport rb = ct::elmore_delays(back, tech);
  EXPECT_NEAR(ra.max_delay, rb.max_delay, 1e-9);
  EXPECT_NEAR(ra.skew(), rb.skew(), 1e-9);
}

TEST(TreeIo, RejectsMalformedHeaders) {
  {
    std::stringstream ss("");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    std::stringstream ss("wrong 3 2 2\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    std::stringstream ss("tree 3 2 7\n");  // root out of range
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    std::stringstream ss("tree -1 2 0\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
}

TEST(TreeIo, RejectsCorruptNodeLines) {
  {
    // Truncated node line.
    std::stringstream ss("tree 1 1 0\n0 1.0 2.0 -1\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    // Node id out of range.
    std::stringstream ss("tree 1 1 0\n5 1 2 -1 0 0 0.1 0\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    // Missing node.
    std::stringstream ss("tree 2 1 1\n0 1 2 1 10 0 0.1 0\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    // Parent out of range.
    std::stringstream ss(
        "tree 2 1 1\n0 1 2 9 10 0 0.1 0\n1 0 0 -1 0 0 0.2 1\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
}

TEST(TreeIo, SingleNodeTree) {
  std::stringstream ss("tree 1 1 0\n0 5.5 6.5 -1 0 0 0.05 0\n");
  const ct::RoutedTree t = read_routed_tree(ss);
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_TRUE(t.node(0).is_leaf());
  EXPECT_DOUBLE_EQ(t.node(0).loc.x, 5.5);
}

/// "%.17g" / "%d", the reference the writer's text must match byte for
/// byte.
std::string g17(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

TEST(TreeIo, WriterPrintsShortestRoundTripText) {
  // Hand-picked values: zero, integers, 1e-15-scale caps, 1e5-scale
  // coordinates, negatives, and the long 17-digit expansions of values
  // like 0.1 that a shorter format would round.
  ct::RoutedTree tree;
  tree.num_leaves = 2;
  tree.root = 2;
  tree.nodes.resize(3);
  const double v[3][5] = {
      {0.0, 42.0, 0.1, 1.2345678901234e-15, 3e-15},
      {123456.78901234567, -99999.5, 1.0 / 3.0, 2.5e-16, 98765.432109876543},
      {-0.0, 1e5, 0.0, 7.0, -1e-15},
  };
  for (int i = 0; i < 3; ++i) {
    ct::RoutedNode& n = tree.nodes[static_cast<std::size_t>(i)];
    n.loc = {v[i][0], v[i][1]};
    n.edge_len = v[i][2];
    n.down_cap = v[i][3];
    n.delay = v[i][4];
    n.parent = i == 2 ? -1 : 2;
    n.gated = i == 1;
  }
  std::string want =
      "# gcr routed clock tree\ntree 3 2 2\n"
      "# id x y parent edge_len gated down_cap delay\n";
  for (int i = 0; i < 3; ++i) {
    const ct::RoutedNode& n = tree.nodes[static_cast<std::size_t>(i)];
    want += std::to_string(i) + ' ' + g17(n.loc.x) + ' ' + g17(n.loc.y) +
            ' ' + std::to_string(n.parent) + ' ' + g17(n.edge_len) + ' ' +
            (n.gated ? "1" : "0") + ' ' + g17(n.down_cap) + ' ' +
            g17(n.delay) + '\n';
  }
  std::ostringstream os;
  write_routed_tree(os, tree);
  EXPECT_EQ(os.str(), want);
}

TEST(TreeIo, WriterMatchesStreamFormattingAcrossChunks) {
  // A routed tree large enough to span several of the writer's output
  // chunks, against the same lines formatted through an ostream at
  // max_digits10 precision.
  const ct::RoutedTree tree = sample_tree(1500, 46);
  std::ostringstream want;
  want << std::setprecision(std::numeric_limits<double>::max_digits10);
  want << "# gcr routed clock tree\ntree " << tree.num_nodes() << ' '
       << tree.num_leaves << ' ' << tree.root << '\n'
       << "# id x y parent edge_len gated down_cap delay\n";
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const ct::RoutedNode& n = tree.node(id);
    want << id << ' ' << n.loc.x << ' ' << n.loc.y << ' ' << n.parent << ' '
         << n.edge_len << ' ' << (n.gated ? 1 : 0) << ' ' << n.down_cap
         << ' ' << n.delay << '\n';
  }
  std::ostringstream got;
  write_routed_tree(got, tree);
  ASSERT_GT(got.str().size(), std::size_t{3} << 16);
  EXPECT_EQ(got.str(), want.str());
}

}  // namespace
}  // namespace gcr::io
