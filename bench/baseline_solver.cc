#include "baseline_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>

#include "graph/algorithms.h"
#include "util/error.h"

namespace topo::bench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Directed-arc view of the undirected graph: arc 2e is u->v, 2e+1 is v->u.
struct ArcGraph {
  explicit ArcGraph(const Graph& g)
      : num_nodes(g.num_nodes()), num_arcs(2 * g.num_edges()) {
    capacity.resize(static_cast<std::size_t>(num_arcs));
    head.resize(static_cast<std::size_t>(num_arcs));
    out_arcs.resize(static_cast<std::size_t>(num_nodes));
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      capacity[static_cast<std::size_t>(2 * e)] = edge.capacity;
      capacity[static_cast<std::size_t>(2 * e + 1)] = edge.capacity;
      head[static_cast<std::size_t>(2 * e)] = edge.v;
      head[static_cast<std::size_t>(2 * e + 1)] = edge.u;
      out_arcs[static_cast<std::size_t>(edge.u)].push_back(2 * e);
      out_arcs[static_cast<std::size_t>(edge.v)].push_back(2 * e + 1);
    }
  }

  int num_nodes;
  int num_arcs;
  std::vector<double> capacity;
  std::vector<NodeId> head;
  std::vector<std::vector<int>> out_arcs;
};

// Shortest-path tree under the current arc lengths.
struct SpTree {
  std::vector<double> dist;
  std::vector<int> parent_arc;  // arc entering each node; -1 at the root
};

SpTree dijkstra(const ArcGraph& arcs, const std::vector<double>& length,
                NodeId src, const std::vector<int>* dag_hops = nullptr) {
  SpTree tree;
  tree.dist.assign(static_cast<std::size_t>(arcs.num_nodes), kInf);
  tree.parent_arc.assign(static_cast<std::size_t>(arcs.num_nodes), -1);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  tree.dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > tree.dist[static_cast<std::size_t>(u)]) continue;
    for (int a : arcs.out_arcs[static_cast<std::size_t>(u)]) {
      const NodeId v = arcs.head[static_cast<std::size_t>(a)];
      if (dag_hops != nullptr &&
          (*dag_hops)[static_cast<std::size_t>(v)] !=
              (*dag_hops)[static_cast<std::size_t>(u)] + 1) {
        continue;  // not on a hop-shortest path from the source
      }
      const double nd = d + length[static_cast<std::size_t>(a)];
      if (nd < tree.dist[static_cast<std::size_t>(v)]) {
        tree.dist[static_cast<std::size_t>(v)] = nd;
        tree.parent_arc[static_cast<std::size_t>(v)] = a;
        heap.emplace(nd, v);
      }
    }
  }
  return tree;
}

bool tree_path(const ArcGraph& arcs, const SpTree& tree, NodeId src,
               NodeId dst, std::vector<int>& path) {
  path.clear();
  if (tree.dist[static_cast<std::size_t>(dst)] == kInf) return false;
  NodeId node = dst;
  while (node != src) {
    const int a = tree.parent_arc[static_cast<std::size_t>(node)];
    if (a < 0) return false;
    path.push_back(a);
    node = arcs.head[static_cast<std::size_t>(a ^ 1)];
    if (static_cast<int>(path.size()) > arcs.num_nodes) return false;
  }
  return true;
}

struct SourceGroup {
  NodeId src = 0;
  std::vector<std::pair<NodeId, double>> demands;  // (dst, demand)
};

}  // namespace

ThroughputResult max_concurrent_flow_baseline(
    const Graph& graph, const std::vector<Commodity>& commodities,
    const FlowOptions& options) {
  require(!commodities.empty(), "max_concurrent_flow requires commodities");
  require(options.epsilon > 0.0 && options.epsilon < 1.0,
          "epsilon must lie in (0, 1)");
  require(options.max_phases >= 1, "max_phases must be >= 1");

  ThroughputResult result;
  result.arc_flow.assign(static_cast<std::size_t>(2 * graph.num_edges()), 0.0);

  double total_demand = 0.0;
  std::map<NodeId, SourceGroup> by_source;
  for (const Commodity& c : commodities) {
    require(c.src >= 0 && c.src < graph.num_nodes() && c.dst >= 0 &&
                c.dst < graph.num_nodes(),
            "commodity endpoint out of range");
    require(c.src != c.dst, "commodity endpoints must differ");
    require(c.demand > 0.0, "commodity demand must be positive");
    auto& group = by_source[c.src];
    group.src = c.src;
    group.demands.emplace_back(c.dst, c.demand);
    total_demand += c.demand;
  }
  result.total_demand = total_demand;

  if (graph.num_edges() == 0) return result;  // no network: infeasible
  const ArcGraph arcs(graph);

  std::map<NodeId, std::vector<int>> hops_from_source;
  for (const auto& [src, group] : by_source) {
    auto dist = bfs_distances(graph, src);
    for (const auto& [dst, demand] : group.demands) {
      if (dist[static_cast<std::size_t>(dst)] < 0) return result;
    }
    if (options.restrict_to_shortest_paths) {
      hops_from_source.emplace(src, std::move(dist));
    }
  }
  const auto dag_for = [&](NodeId src) -> const std::vector<int>* {
    if (!options.restrict_to_shortest_paths) return nullptr;
    return &hops_from_source.at(src);
  };

  {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    std::vector<double> weights;
    for (const Commodity& c : commodities) {
      pairs.emplace_back(c.src, c.dst);
      weights.push_back(c.demand);
    }
    result.demand_weighted_spl = mean_pair_distance(graph, pairs, &weights);
  }

  std::vector<double> length(static_cast<std::size_t>(arcs.num_arcs));
  for (int a = 0; a < arcs.num_arcs; ++a) {
    length[static_cast<std::size_t>(a)] =
        1.0 / arcs.capacity[static_cast<std::size_t>(a)];
  }
  const double step = options.epsilon / 2.0;  // length-update granularity
  const double stale_factor = 1.5;  // tree reuse tolerance

  auto rescale_if_needed = [&]() {
    const double max_len = *std::max_element(length.begin(), length.end());
    if (max_len > 1e200) {
      for (double& l : length) l *= 1e-150;
    }
  };

  double best_dual = kInf;
  double last_primal = 0.0;
  double best_gap = 1.0;
  int phases_since_improvement = 0;
  std::vector<int> path;

  int phase = 0;
  for (; phase < options.max_phases; ++phase) {
    for (auto& [src, group] : by_source) {
      SpTree tree = dijkstra(arcs, length, src, dag_for(src));
      for (const auto& [dst, demand] : group.demands) {
        double remaining = demand;
        const double tol = 1e-12 * demand;
        while (remaining > tol) {
          if (!tree_path(arcs, tree, src, dst, path)) {
            return result;  // should not happen after the pre-check
          }
          double current_len = 0.0;
          double bottleneck = kInf;
          for (int a : path) {
            current_len += length[static_cast<std::size_t>(a)];
            bottleneck =
                std::min(bottleneck, arcs.capacity[static_cast<std::size_t>(a)]);
          }
          if (current_len >
              stale_factor * tree.dist[static_cast<std::size_t>(dst)]) {
            tree = dijkstra(arcs, length, src, dag_for(src));
            continue;
          }
          const double pushed = std::min(remaining, bottleneck);
          for (int a : path) {
            result.arc_flow[static_cast<std::size_t>(a)] += pushed;
            length[static_cast<std::size_t>(a)] *=
                1.0 + step * pushed / arcs.capacity[static_cast<std::size_t>(a)];
          }
          remaining -= pushed;
        }
      }
      rescale_if_needed();
    }

    double congestion = 0.0;
    for (int a = 0; a < arcs.num_arcs; ++a) {
      congestion = std::max(congestion,
                            result.arc_flow[static_cast<std::size_t>(a)] /
                                arcs.capacity[static_cast<std::size_t>(a)]);
    }
    last_primal =
        congestion > 0.0 ? static_cast<double>(phase + 1) / congestion : 0.0;

    if (phase % 1 == 0 || phase + 1 == options.max_phases) {
      double d_l = 0.0;
      for (int a = 0; a < arcs.num_arcs; ++a) {
        d_l += length[static_cast<std::size_t>(a)] *
               arcs.capacity[static_cast<std::size_t>(a)];
      }
      double alpha = 0.0;
      for (const auto& [src, group] : by_source) {
        const SpTree tree = dijkstra(arcs, length, src, dag_for(src));
        for (const auto& [dst, demand] : group.demands) {
          alpha += demand * tree.dist[static_cast<std::size_t>(dst)];
        }
      }
      if (alpha > 0.0) best_dual = std::min(best_dual, d_l / alpha);
    }

    const double gap =
        best_dual > 0.0 && best_dual < kInf ? 1.0 - last_primal / best_dual : 1.0;
    if (gap < best_gap - 1e-6) {
      best_gap = gap;
      phases_since_improvement = 0;
    } else {
      ++phases_since_improvement;
    }
    if (gap <= options.epsilon) {
      ++phase;
      break;
    }
    if (phases_since_improvement >= options.stagnation_phases) {
      ++phase;
      break;
    }
  }

  result.phases = phase;
  result.feasible = true;
  double congestion = 0.0;
  for (int a = 0; a < arcs.num_arcs; ++a) {
    congestion = std::max(congestion,
                          result.arc_flow[static_cast<std::size_t>(a)] /
                              arcs.capacity[static_cast<std::size_t>(a)]);
  }
  result.lambda =
      congestion > 0.0 ? static_cast<double>(result.phases) / congestion : 0.0;
  result.dual_bound = best_dual == kInf ? result.lambda : best_dual;
  result.gap = result.dual_bound > 0.0
                   ? std::max(0.0, 1.0 - result.lambda / result.dual_bound)
                   : 0.0;
  if (congestion > 0.0) {
    const double scale =
        result.lambda / static_cast<double>(std::max(result.phases, 1));
    double total_flow_hops = 0.0;
    for (int a = 0; a < arcs.num_arcs; ++a) {
      result.arc_flow[static_cast<std::size_t>(a)] *= scale;
      total_flow_hops += result.arc_flow[static_cast<std::size_t>(a)];
    }
    const double delivered = result.lambda * total_demand;
    result.utilization = total_flow_hops / graph.total_directed_capacity();
    result.mean_routed_path_length =
        delivered > 0.0 ? total_flow_hops / delivered : 0.0;
    result.stretch = result.demand_weighted_spl > 0.0
                         ? result.mean_routed_path_length /
                               result.demand_weighted_spl
                         : 1.0;
  }
  return result;
}

}  // namespace topo::bench
