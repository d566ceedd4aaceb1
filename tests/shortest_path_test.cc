// Tests for the CSR arc graph and the pooled Dijkstra, multi-source, and
// BFS workspaces.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>

#include "graph/algorithms.h"
#include "graph/shortest_path.h"
#include "topo/random_regular.h"
#include "util/rng.h"

namespace topo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ArcGraph, CsrMatchesAdjacency) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 5.0);
  const ArcGraph arcs(g);
  ASSERT_EQ(arcs.num_nodes, 4);
  ASSERT_EQ(arcs.num_arcs, 8);
  // Arc 2e is u->v, 2e+1 is v->u; partner arc is a^1.
  EXPECT_EQ(arcs.head[0], 1);
  EXPECT_EQ(arcs.head[1], 0);
  EXPECT_EQ(arcs.tail(0), 0);
  EXPECT_EQ(arcs.tail(1), 1);
  EXPECT_DOUBLE_EQ(arcs.capacity[6], 5.0);
  EXPECT_DOUBLE_EQ(arcs.capacity[7], 5.0);
  // CSR slices cover each node's out-arcs in increasing arc id.
  ASSERT_EQ(arcs.first_out.size(), 5u);
  EXPECT_EQ(arcs.first_out[4], 8);
  std::vector<std::vector<int>> expected(4);
  expected[0] = {0, 4};
  expected[1] = {1, 2};
  expected[2] = {3, 5, 6};
  expected[3] = {7};
  for (NodeId n = 0; n < 4; ++n) {
    std::vector<int> got(
        arcs.out_arc.begin() + arcs.first_out[static_cast<std::size_t>(n)],
        arcs.out_arc.begin() + arcs.first_out[static_cast<std::size_t>(n) + 1]);
    EXPECT_EQ(got, expected[static_cast<std::size_t>(n)]) << "node " << n;
  }
}

// Reference Dijkstra: the lazy binary-heap formulation the workspace
// replaced; ties pop in increasing node id via pair comparison.
std::vector<double> reference_dijkstra(const ArcGraph& arcs,
                                       const std::vector<double>& length,
                                       NodeId src,
                                       std::vector<int>* parent_out = nullptr) {
  std::vector<double> dist(static_cast<std::size_t>(arcs.num_nodes), kInf);
  std::vector<int> parent(static_cast<std::size_t>(arcs.num_nodes), -1);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (int i = arcs.first_out[static_cast<std::size_t>(u)];
         i < arcs.first_out[static_cast<std::size_t>(u) + 1]; ++i) {
      const int a = arcs.out_arc[static_cast<std::size_t>(i)];
      const NodeId v = arcs.head[static_cast<std::size_t>(a)];
      const double nd = d + length[static_cast<std::size_t>(a)];
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        parent[static_cast<std::size_t>(v)] = a;
        heap.emplace(nd, v);
      }
    }
  }
  if (parent_out != nullptr) *parent_out = parent;
  return dist;
}

TEST(DijkstraWorkspace, MatchesReferenceIncludingParentTree) {
  const Graph g = random_regular_graph(60, 6, 11);
  const ArcGraph arcs(g);
  Rng rng(5);
  std::vector<double> length(static_cast<std::size_t>(arcs.num_arcs));
  // Mix of distinct and deliberately tied lengths to exercise tie-breaks.
  for (double& l : length) l = rng.chance(0.3) ? 1.0 : rng.uniform(0.5, 2.0);
  DijkstraWorkspace ws;
  for (NodeId src : {0, 7, 59}) {
    std::vector<int> ref_parent;
    const auto ref = reference_dijkstra(arcs, length, src, &ref_parent);
    ws.run(arcs, length, src);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_DOUBLE_EQ(ws.dist(v), ref[static_cast<std::size_t>(v)]);
      EXPECT_EQ(ws.parent_arc(v), ref_parent[static_cast<std::size_t>(v)])
          << "parent mismatch at " << v << " from " << src;
    }
  }
}

TEST(DijkstraWorkspace, ReuseAcrossGraphsOfDifferentSize) {
  DijkstraWorkspace ws;
  const Graph big = random_regular_graph(80, 4, 3);
  const ArcGraph big_arcs(big);
  std::vector<double> big_len(static_cast<std::size_t>(big_arcs.num_arcs), 1.0);
  ws.run(big_arcs, big_len, 0);
  EXPECT_EQ(ws.dist(0), 0.0);

  Graph small(3);
  small.add_edge(0, 1, 1.0);
  const ArcGraph small_arcs(small);
  std::vector<double> small_len(2, 4.0);
  ws.run(small_arcs, small_len, 0);
  EXPECT_DOUBLE_EQ(ws.dist(1), 4.0);
  EXPECT_EQ(ws.dist(2), kInf);  // stale big-graph state must not leak
  EXPECT_EQ(ws.parent_arc(2), -1);
}

TEST(DijkstraWorkspace, ExtractPathAndScaleDistances) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);  // arcs 0, 1
  g.add_edge(1, 2, 1.0);  // arcs 2, 3
  g.add_edge(2, 3, 1.0);  // arcs 4, 5
  const ArcGraph arcs(g);
  std::vector<double> length = {1.0, 1.0, 2.0, 2.0, 3.0, 3.0};
  DijkstraWorkspace ws;
  ws.run(arcs, length, 0);
  std::vector<int> path;
  ASSERT_TRUE(ws.extract_path(arcs, 0, 3, path));
  EXPECT_EQ(path, (std::vector<int>{4, 2, 0}));  // dst -> src order
  EXPECT_DOUBLE_EQ(ws.dist(3), 6.0);
  ws.scale_distances(0.5);
  EXPECT_DOUBLE_EQ(ws.dist(3), 3.0);
  EXPECT_DOUBLE_EQ(ws.dist(0), 0.0);
}

TEST(DijkstraWorkspace, DagRestrictionLimitsArcs) {
  // Square with a diagonal shortcut of high length: unrestricted Dijkstra
  // prefers 0-1-3; restricting to hop-shortest arcs from 0 still allows
  // it, but forbids the 3->... backward arcs.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.0);
  const ArcGraph arcs(g);
  std::vector<double> length(8, 1.0);
  const std::vector<int> hops = bfs_distances(g, 0);
  DijkstraWorkspace ws;
  ws.run(arcs, length, 0, &hops);
  EXPECT_DOUBLE_EQ(ws.dist(3), 2.0);
  // Restrict from node 1's perspective instead: node 0 is at hop 1 from 1,
  // so arcs into 0 from 2 (hop 1 -> hop 1) are not relaxed.
  const std::vector<int> hops1 = bfs_distances(g, 1);
  ws.run(arcs, length, 1, &hops1);
  EXPECT_DOUBLE_EQ(ws.dist(2), 2.0);  // via 0 or 3, both hop-increasing
}

// Random multigraph: parallel edges allowed (no self-loops), and the last
// `isolated` nodes get no edges at all so some distances stay +inf.
Graph random_multigraph(int n, int m, int isolated, std::uint64_t seed) {
  Graph g(n);
  Rng rng(seed);
  const int connected = n - isolated;
  for (int e = 0; e < m; ++e) {
    const int u = rng.uniform_int(0, connected - 1);
    int v = rng.uniform_int(0, connected - 2);
    if (v >= u) ++v;
    g.add_edge(u, v, 1.0);
    if (rng.chance(0.2)) g.add_edge(u, v, 1.0);  // parallel twin
  }
  return g;
}

// Per-slot lengths spanning 1e-150..1e200 on a log scale, salted with
// zeros, subnormals, and near-overflow values (sums of which hit +inf).
std::vector<double> extreme_slot_lengths(int num_arcs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> length(static_cast<std::size_t>(num_arcs));
  for (double& l : length) {
    const double pick = rng.uniform();
    if (pick < 0.05) {
      l = 0.0;
    } else if (pick < 0.15) {
      l = std::numeric_limits<double>::denorm_min() *
          static_cast<double>(rng.uniform_int(1, 1 << 20));
    } else if (pick < 0.20) {
      l = std::numeric_limits<double>::max() * rng.uniform(0.3, 0.9);
    } else {
      l = std::pow(10.0, rng.uniform(-150.0, 200.0));
    }
  }
  return length;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// Runs `sources` through one MultiSourceWorkspace call per block of
// `block` lanes and checks every lane's distance to every node bit for bit
// against DijkstraWorkspace::run_distances from that source.
void expect_multi_source_matches_dijkstra(
    const ArcGraph& arcs, const std::vector<double>& slot_length,
    const std::vector<NodeId>& sources, int block,
    const std::vector<std::vector<int>>* hops = nullptr) {
  MultiSourceWorkspace multi;
  DijkstraWorkspace single;
  const auto n = static_cast<std::size_t>(arcs.num_nodes);
  for (std::size_t first = 0; first < sources.size();
       first += static_cast<std::size_t>(block)) {
    const int lanes = static_cast<int>(
        std::min(sources.size() - first, static_cast<std::size_t>(block)));
    std::vector<const std::vector<int>*> lane_hops;
    if (hops != nullptr) {
      for (int g = 0; g < lanes; ++g) {
        lane_hops.push_back(&(*hops)[first + static_cast<std::size_t>(g)]);
      }
    }
    multi.run(arcs, slot_length.data(), sources.data() + first, lanes,
              hops != nullptr ? lane_hops.data() : nullptr);
    for (int g = 0; g < lanes; ++g) {
      const std::size_t idx = first + static_cast<std::size_t>(g);
      single.run_distances(arcs, slot_length.data(), sources[idx],
                           hops != nullptr ? &(*hops)[idx] : nullptr);
      for (std::size_t v = 0; v < n; ++v) {
        const auto node = static_cast<NodeId>(v);
        if (bits(single.dist(node)) != bits(multi.dist(g, node))) {
          ADD_FAILURE() << "source " << sources[idx] << " (lane " << g
                        << " of " << lanes << ") node " << v << ": dijkstra "
                        << single.dist(node) << ", multi-source "
                        << multi.dist(g, node);
          break;
        }
      }
    }
  }
}

std::vector<NodeId> all_nodes(int n) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

TEST(MultiSourceWorkspace, BitIdenticalToDijkstraOnExtremeLengths) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Graph g = random_multigraph(70, 160, 5, seed);
    const ArcGraph arcs(g);
    const auto length = extreme_slot_lengths(arcs.num_arcs, seed + 100);
    // Lane counts that are neither a multiple of the solver's block nor of
    // the SIMD width, plus a single lane and everything in one block.
    for (int block : {1, 3, 7, 16, 70}) {
      expect_multi_source_matches_dijkstra(arcs, length, all_nodes(70), block);
    }
  }
}

TEST(MultiSourceWorkspace, BitIdenticalToDijkstraOnRingWithTwinEdges) {
  // A ring's shortest paths run against the node order half the time, so
  // the pass needs many sweeps, including the reverse-order ones.
  Graph g(120);
  for (NodeId v = 0; v < 120; ++v) {
    g.add_edge(v, (v + 1) % 120, 1.0);
    if (v % 7 == 0) g.add_edge(v, (v + 1) % 120, 1.0);
  }
  const ArcGraph arcs(g);
  const auto length = extreme_slot_lengths(arcs.num_arcs, 31);
  for (int block : {5, 16}) {
    expect_multi_source_matches_dijkstra(arcs, length, all_nodes(120), block);
  }
}

TEST(MultiSourceWorkspace, BitIdenticalToDijkstraOnSolverLikeLengths) {
  // Lengths as the solver grows them: 1/capacity times products of
  // (1 + step * x) factors, so many sums tie or differ in the last ulp.
  const Graph g = random_regular_graph(90, 6, 41);
  const ArcGraph arcs(g);
  Rng rng(17);
  std::vector<double> length(static_cast<std::size_t>(arcs.num_arcs), 0.1);
  for (double& l : length) {
    for (int k = rng.uniform_int(0, 40); k > 0; --k) l *= 1.0 + 0.025 * 0.5;
  }
  const std::vector<NodeId> sources = {5, 88, 0, 41, 17, 63, 29, 74, 11};
  expect_multi_source_matches_dijkstra(arcs, length, sources, 16);
  expect_multi_source_matches_dijkstra(arcs, length, sources, 4);
}

TEST(MultiSourceWorkspace, BitIdenticalToDijkstraUnderDagRestriction) {
  const Graph g = random_multigraph(60, 140, 4, 9);
  const ArcGraph arcs(g);
  const auto length = extreme_slot_lengths(arcs.num_arcs, 77);
  const std::vector<NodeId> sources = all_nodes(60);
  std::vector<std::vector<int>> hops;
  for (NodeId s : sources) hops.push_back(bfs_distances(g, s));
  for (int block : {1, 5, 16, 60}) {
    expect_multi_source_matches_dijkstra(arcs, length, sources, block, &hops);
  }
}

TEST(MultiSourceWorkspace, TargetBoundedDijkstraAgreesOnTargets) {
  // The solver's former dual pass bounded each Dijkstra by the group's
  // destinations; those finalized distances are the same fixpoint.
  const Graph g = random_regular_graph(50, 5, 3);
  const ArcGraph arcs(g);
  const auto length = extreme_slot_lengths(arcs.num_arcs, 5);
  const std::vector<NodeId> sources = {3, 30, 49};
  const std::vector<NodeId> targets = {7, 12, 40};
  MultiSourceWorkspace multi;
  multi.run(arcs, length.data(), sources.data(),
            static_cast<int>(sources.size()));
  DijkstraWorkspace single;
  for (std::size_t g = 0; g < sources.size(); ++g) {
    single.run_distances(arcs, length.data(), sources[g], nullptr,
                         targets.data(), static_cast<int>(targets.size()));
    for (NodeId t : targets) {
      EXPECT_EQ(bits(multi.dist(static_cast<int>(g), t)), bits(single.dist(t)))
          << "source " << sources[g] << " target " << t;
    }
  }
}

TEST(MultiSourceWorkspace, UnreachedNodesStayInfiniteAndWorkspaceReuses) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 1.0);
  const ArcGraph arcs(g);
  const std::vector<double> length(static_cast<std::size_t>(arcs.num_arcs),
                                   2.0);
  MultiSourceWorkspace ws;
  const std::vector<NodeId> sources = {0, 4};
  ws.run(arcs, length.data(), sources.data(), 2);
  EXPECT_EQ(ws.dist(0, 2), 4.0);
  EXPECT_EQ(ws.dist(0, 3), kInf);
  EXPECT_EQ(ws.dist(1, 3), 2.0);
  EXPECT_EQ(ws.dist(1, 0), kInf);
  // A narrower rerun must not see the wider run's labels.
  ws.run(arcs, length.data(), sources.data() + 1, 1);
  EXPECT_EQ(ws.dist(0, 4), 0.0);
  EXPECT_EQ(ws.dist(0, 1), kInf);
}

TEST(BfsWorkspace, MatchesBfsDistancesAndReuses) {
  const Graph g = random_regular_graph(50, 4, 23);
  BfsWorkspace ws;
  for (NodeId src : {0, 13, 49}) {
    const auto expected = bfs_distances(g, src);
    ws.run(g, src);
    std::vector<int> exported;
    ws.export_distances(exported);
    EXPECT_EQ(exported, expected);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(ws.dist(v), expected[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(BfsWorkspace, RunCustomFiltersArcs) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  BfsWorkspace ws;
  // Forbid entering node 2: nodes 2 and 3 must stay unreached.
  ws.run_custom(4, 0, [&](NodeId u, auto&& emit) {
    for (const Adjacency& a : g.neighbors(u)) {
      if (a.to != 2) emit(a.to);
    }
  });
  EXPECT_EQ(ws.dist(1), 1);
  EXPECT_EQ(ws.dist(2), -1);
  EXPECT_EQ(ws.dist(3), -1);
}

}  // namespace
}  // namespace topo
