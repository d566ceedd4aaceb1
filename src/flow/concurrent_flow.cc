#include "flow/concurrent_flow.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "graph/algorithms.h"
#include "graph/shortest_path.h"
#include "util/error.h"
#include "util/parallel.h"

namespace topo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Exact mode re-routes a tree path once it is 1.5x its tree distance; approx
// mode uses the much tighter 1 + epsilon/2, which is where most of its
// phase savings come from (factors much above 1 + epsilon stall the
// certified gap).
constexpr double kExactStaleFactor = 1.5;
// Approx mode routes source groups in rounds of this many against one
// length snapshot. The round partition depends on this value alone, so
// results are identical for any thread count.
constexpr int kApproxRoundSize = 32;

// Commodities grouped by source, flattened into parallel arrays so the
// phase loop walks contiguous memory: group g's destinations/demands are
// the slice [groups[g].begin, groups[g].end) of dsts/demands.
struct GroupedCommodities {
  struct Group {
    NodeId src = 0;
    int begin = 0;
    int end = 0;
  };
  std::vector<Group> groups;
  std::vector<NodeId> dsts;
  std::vector<double> demands;
};

GroupedCommodities group_by_source(const std::vector<Commodity>& commodities) {
  // Stable sort by source: groups ordered by source id, commodities inside
  // a group in input order — the same iteration order as the std::map of
  // per-source vectors this replaces.
  std::vector<int> order(commodities.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return commodities[static_cast<std::size_t>(a)].src <
           commodities[static_cast<std::size_t>(b)].src;
  });
  GroupedCommodities grouped;
  grouped.dsts.reserve(commodities.size());
  grouped.demands.reserve(commodities.size());
  for (int idx : order) {
    const Commodity& c = commodities[static_cast<std::size_t>(idx)];
    if (grouped.groups.empty() || grouped.groups.back().src != c.src) {
      grouped.groups.push_back(
          {c.src, static_cast<int>(grouped.dsts.size()), 0});
    }
    grouped.dsts.push_back(c.dst);
    grouped.demands.push_back(c.demand);
    grouped.groups.back().end = static_cast<int>(grouped.dsts.size());
  }
  return grouped;
}

// Shared congestion scan (the primal certificate and the final feasibility
// scaling both divide by the same worst congestion; sharing the scan keeps
// them from drifting). After `routings` full routings of the demand the
// feasible concurrent-flow value is routings / max_a flow_a / cap_a; when
// `scale_to_feasible` is set, arc_flow is rescaled in place so it carries
// lambda * demand exactly once.
double feasible_lambda(const ArcGraph& arcs, std::vector<double>& arc_flow,
                       int routings, bool scale_to_feasible) {
  double congestion = 0.0;
  for (int a = 0; a < arcs.num_arcs; ++a) {
    congestion = std::max(congestion,
                          arc_flow[static_cast<std::size_t>(a)] /
                              arcs.capacity[static_cast<std::size_t>(a)]);
  }
  if (congestion <= 0.0) return 0.0;
  const double lambda = static_cast<double>(routings) / congestion;
  if (scale_to_feasible) {
    const double scale = lambda / static_cast<double>(std::max(routings, 1));
    for (double& f : arc_flow) f *= scale;
  }
  return lambda;
}

}  // namespace

ThroughputResult max_concurrent_flow(const Graph& graph,
                                     const std::vector<Commodity>& commodities,
                                     const FlowOptions& options) {
  require(!commodities.empty(), "max_concurrent_flow requires commodities");
  require(options.epsilon > 0.0 && options.epsilon < 1.0,
          "epsilon must lie in (0, 1)");
  require(options.max_phases >= 1, "max_phases must be >= 1");

  ThroughputResult result;
  result.arc_flow.assign(static_cast<std::size_t>(2 * graph.num_edges()), 0.0);

  double total_demand = 0.0;
  for (const Commodity& c : commodities) {
    require(c.src >= 0 && c.src < graph.num_nodes() && c.dst >= 0 &&
                c.dst < graph.num_nodes(),
            "commodity endpoint out of range");
    require(c.src != c.dst, "commodity endpoints must differ");
    require(c.demand > 0.0, "commodity demand must be positive");
    total_demand += c.demand;
  }
  result.total_demand = total_demand;

  if (graph.num_edges() == 0) return result;  // no network: infeasible
  const ArcGraph arcs(graph);
  const GroupedCommodities grouped = group_by_source(commodities);
  const int num_groups = static_cast<int>(grouped.groups.size());

  // Reachability pre-pass (hop-based), one BFS per source group, run in
  // parallel: any unreachable commodity means throughput zero. The hop
  // maps double as the shortest-path DAGs when routing is restricted to
  // shortest paths.
  std::vector<std::vector<int>> hops_per_group(
      static_cast<std::size_t>(num_groups));
  std::vector<char> group_reachable(static_cast<std::size_t>(num_groups), 1);
  {
    std::vector<BfsWorkspace> bfs_ws(
        static_cast<std::size_t>(parallel_slots()));
    parallel_for_slots(num_groups, [&](int slot, int gi) {
      const auto& group = grouped.groups[static_cast<std::size_t>(gi)];
      BfsWorkspace& ws = bfs_ws[static_cast<std::size_t>(slot)];
      ws.run(graph, group.src);
      for (int i = group.begin; i < group.end; ++i) {
        if (ws.dist(grouped.dsts[static_cast<std::size_t>(i)]) < 0) {
          group_reachable[static_cast<std::size_t>(gi)] = 0;
          return;
        }
      }
      if (options.restrict_to_shortest_paths) {
        ws.export_distances(hops_per_group[static_cast<std::size_t>(gi)]);
      }
    });
  }
  for (char reachable : group_reachable) {
    if (!reachable) return result;
  }
  const auto dag_for = [&](int gi) -> const std::vector<int>* {
    if (!options.restrict_to_shortest_paths) return nullptr;
    return &hops_per_group[static_cast<std::size_t>(gi)];
  };

  // Demand-weighted shortest-path length (hops) for the stretch metric.
  {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    std::vector<double> weights;
    for (const Commodity& c : commodities) {
      pairs.emplace_back(c.src, c.dst);
      weights.push_back(c.demand);
    }
    result.demand_weighted_spl = mean_pair_distance(graph, pairs, &weights);
  }

  // Exponential arc lengths, initialized inversely to capacity. Lengths
  // only grow inside a phase, so a running maximum is enough to catch the
  // overflow guard without rescanning all arcs. slot_length mirrors
  // `length` in CSR-slot order so the Dijkstra relaxation loop reads one
  // sequential stream; every update below writes both.
  std::vector<double> length(static_cast<std::size_t>(arcs.num_arcs));
  double max_length = 0.0;
  for (int a = 0; a < arcs.num_arcs; ++a) {
    length[static_cast<std::size_t>(a)] =
        1.0 / arcs.capacity[static_cast<std::size_t>(a)];
    max_length = std::max(max_length, length[static_cast<std::size_t>(a)]);
  }
  std::vector<double> slot_length;
  fill_slot_lengths(arcs, length, slot_length);
  const double step = options.epsilon / 2.0;  // length-update granularity
  // Overflow guard: once the running maximum passes 1e200, rescales every
  // length by 1e-150 (the certificate is scale-free). Returns true if so.
  const auto guard_overflow = [&] {
    if (max_length <= 1e200) return false;
    for (double& l : length) l *= 1e-150;
    for (double& l : slot_length) l *= 1e-150;
    max_length *= 1e-150;
    return true;
  };

  std::vector<double> dual_terms(commodities.size());
  double best_dual = kInf;
  double last_primal = 0.0;
  double best_gap = 1.0;
  int phases_since_improvement = 0;

  // ---- The router (both modes) ----
  //
  // Routes every commodity of group `gi` once against the lengths `len`
  // (by arc) and `slot_len` (by CSR slot), multiplying each pushed-on arc's
  // length in both, and calls on_push(path, pushed) after every push. `ws`
  // holds the group's shortest-path tree, valid on entry iff `has_tree`.
  // A tree path is re-routed once its current length exceeds `stale` times
  // the tree distance; the tree distance lower-bounds the current shortest
  // distance (lengths only grow), so `stale` bounds the path quality.
  // Returns false if a destination is unreachable, which the reachability
  // pre-pass rules out.
  const auto route_group = [&](int gi, DijkstraWorkspace& ws, double* len,
                               double* slot_len, bool has_tree, double stale,
                               std::vector<int>& path, auto&& on_push) {
    const auto& group = grouped.groups[static_cast<std::size_t>(gi)];
    // Each Dijkstra is bounded by the destinations the group still has to
    // serve: a tree built at destination `from` covers [from, end).
    const auto refresh = [&](int from) {
      ws.run_slots(arcs, slot_len, group.src, dag_for(gi),
                   grouped.dsts.data() + from, group.end - from);
      has_tree = true;
    };
    for (int i = group.begin; i < group.end; ++i) {
      const NodeId dst = grouped.dsts[static_cast<std::size_t>(i)];
      const double demand = grouped.demands[static_cast<std::size_t>(i)];
      double remaining = demand;
      const double tol = 1e-12 * demand;
      // The tree only changes on refresh, so the path and its (static)
      // bottleneck capacity are cached across saturation steps; only the
      // path's current length must be re-summed after each push.
      bool path_valid = false;
      double bottleneck = kInf;
      while (remaining > tol) {
        // A warm tree from an earlier bounded run may simply not have
        // finalized this destination; that means refresh, not infeasible.
        if (!has_tree || ws.dist(dst) == kInf) {
          refresh(i);
          path_valid = false;
        }
        if (!path_valid) {
          if (!ws.extract_path(arcs, group.src, dst, path)) {
            refresh(i);
            if (!ws.extract_path(arcs, group.src, dst, path)) return false;
          }
          bottleneck = kInf;
          for (int a : path) {
            bottleneck =
                std::min(bottleneck, arcs.capacity[static_cast<std::size_t>(a)]);
          }
          path_valid = true;
        }
        double current_len = 0.0;
        for (int a : path) current_len += len[static_cast<std::size_t>(a)];
        if (current_len > stale * ws.dist(dst)) {
          refresh(i);
          path_valid = false;
          continue;
        }
        const double pushed = std::min(remaining, bottleneck);
        for (int a : path) {
          const auto as = static_cast<std::size_t>(a);
          double& l = len[as];
          l *= 1.0 + step * pushed / arcs.capacity[as];
          slot_len[static_cast<std::size_t>(arcs.slot_of_arc[as])] = l;
        }
        on_push(path, pushed);
        remaining -= pushed;
      }
    }
    return true;
  };

  // ---- Approx-mode state (SolverMode::kApprox only; empty otherwise) ----
  //
  // Phases route source groups in fixed-size rounds. Within a round every
  // group sees the same snapshot of the length function (the global
  // `length`/`slot_length` arrays, which are not mutated during a round)
  // plus its own pushes, staged in a per-slot overlay and recorded as
  // (arc, pushed) entries. After the round the overlays are reverted and
  // the entries applied serially in group order — so the merged lengths,
  // flows, and overflow rescales are identical for any thread count, the
  // same discipline as the dual pass below. Each group additionally keeps
  // its shortest-path tree across phases (warm start) and only re-runs
  // Dijkstra when the cached tree goes stale or misses a destination.
  const bool approx = options.mode == SolverMode::kApprox;
  const double approx_stale = 1.0 + options.epsilon / 2.0;
  const int num_slots = parallel_slots();
  // Warm per-group trees cost O(nodes) each; past this many total label
  // entries fall back to per-slot workspaces rebuilt on first use.
  const bool warm_trees =
      approx && static_cast<double>(num_groups) *
                        static_cast<double>(arcs.num_nodes) <=
                    5e7;
  std::vector<DijkstraWorkspace> group_ws(
      warm_trees ? static_cast<std::size_t>(num_groups) : 0);
  std::vector<DijkstraWorkspace> slot_routing_ws(
      approx && !warm_trees ? static_cast<std::size_t>(num_slots) : 0);
  // The rescale epoch each warm tree's distances are in; -1 before the
  // group's first tree.
  std::vector<int> group_epoch(
      warm_trees ? static_cast<std::size_t>(num_groups) : 0, -1);
  int rescale_epoch = 0;  // bumped by the overflow guard; trees sync lazily
  std::vector<std::vector<std::pair<int, double>>> group_entries(
      approx ? static_cast<std::size_t>(num_groups) : 0);
  std::vector<std::vector<double>> slot_local_len(
      approx ? static_cast<std::size_t>(num_slots) : 0);
  std::vector<std::vector<double>> slot_local_slot_len(
      approx ? static_cast<std::size_t>(num_slots) : 0);
  std::vector<std::vector<int>> slot_path(
      approx ? static_cast<std::size_t>(num_slots) : 0);
  std::vector<long> slot_round_stamp(
      approx ? static_cast<std::size_t>(num_slots) : 0, -1);
  long round_counter = 0;
  std::atomic<bool> routing_failed{false};

  // ---- Dual state ----
  //
  // The dual pass runs the source groups kDualLanes at a time through one
  // multi-source sweep (MultiSourceWorkspace). Each lane's distances are
  // bit-identical to a per-group Dijkstra whatever the blocking, so the
  // fixed block size only bounds memory (num_nodes * kDualLanes doubles per
  // slot) and sets the parallel grain.
  constexpr int kDualLanes = 16;
  const int num_dual_blocks = (num_groups + kDualLanes - 1) / kDualLanes;
  std::vector<MultiSourceWorkspace> dual_ws(
      static_cast<std::size_t>(num_slots));
  std::vector<NodeId> group_src;
  std::vector<const std::vector<int>*> group_hops;  // restricted runs only
  for (int gi = 0; gi < num_groups; ++gi) {
    group_src.push_back(grouped.groups[static_cast<std::size_t>(gi)].src);
    if (options.restrict_to_shortest_paths) group_hops.push_back(dag_for(gi));
  }

  // Approx mode halves the dual-bound cadence: the bound is valid for any
  // lengths, so this trades only certificate tightness for time.
  const int dual_cadence = approx ? 2 : 1;

  // Exact mode routes every group cold, in order, on the global lengths.
  DijkstraWorkspace routing_ws;
  std::vector<int> path;
  const auto exact_push = [&](const std::vector<int>& pushed_path,
                              double pushed) {
    for (int a : pushed_path) {
      result.arc_flow[static_cast<std::size_t>(a)] += pushed;
      max_length = std::max(max_length, length[static_cast<std::size_t>(a)]);
    }
    // The guard runs inside the routing loop so a long source group cannot
    // drive lengths to infinity mid-group. The cached tree distances are
    // sums of the same lengths, so they rescale by the same factor and the
    // staleness ratio stays meaningful.
    if (guard_overflow()) routing_ws.scale_distances(1e-150);
  };

  int phase = 0;
  for (; phase < options.max_phases; ++phase) {
    if (approx) {
      for (int round_begin = 0; round_begin < num_groups;
           round_begin += kApproxRoundSize) {
        const int round_end =
            std::min(num_groups, round_begin + kApproxRoundSize);
        const long round_id = round_counter++;
        parallel_for_slots(round_end - round_begin, [&](int slot, int idx) {
          const int gi = round_begin + idx;
          const auto ss = static_cast<std::size_t>(slot);
          const auto gs = static_cast<std::size_t>(gi);
          std::vector<double>& local_len = slot_local_len[ss];
          std::vector<double>& local_slot_len = slot_local_slot_len[ss];
          if (slot_round_stamp[ss] != round_id) {
            local_len = length;  // this round's snapshot
            local_slot_len = slot_length;
            slot_round_stamp[ss] = round_id;
          }
          DijkstraWorkspace& ws =
              warm_trees ? group_ws[gs] : slot_routing_ws[ss];
          const bool has_tree = warm_trees && group_epoch[gs] >= 0;
          // A cached tree's distances are sums of pre-rescale lengths;
          // bring them into the current scale before comparing against
          // fresh sums.
          if (has_tree && group_epoch[gs] != rescale_epoch) {
            double factor = 1.0;
            for (int e = group_epoch[gs]; e < rescale_epoch; ++e) {
              factor *= 1e-150;
            }
            ws.scale_distances(factor);
          }
          if (warm_trees) group_epoch[gs] = rescale_epoch;
          auto& entries = group_entries[gs];
          if (!route_group(gi, ws, local_len.data(), local_slot_len.data(),
                           has_tree, approx_stale, slot_path[ss],
                           [&](const std::vector<int>& pushed_path,
                               double pushed) {
                             for (int a : pushed_path) {
                               entries.emplace_back(a, pushed);
                             }
                           })) {
            routing_failed.store(true, std::memory_order_relaxed);
          }
          // Revert the overlay to the round snapshot (the globals are
          // immutable during a round), leaving it clean for the slot's
          // next group.
          for (const auto& entry : entries) {
            const auto a = static_cast<std::size_t>(entry.first);
            const auto s = static_cast<std::size_t>(arcs.slot_of_arc[a]);
            local_len[a] = length[a];
            local_slot_len[s] = slot_length[s];
          }
        });
        if (routing_failed.load(std::memory_order_relaxed)) return result;
        // Serial merge in group order: flows, multiplicative length
        // updates, and the overflow guard all replay deterministically.
        for (int gi = round_begin; gi < round_end; ++gi) {
          auto& entries = group_entries[static_cast<std::size_t>(gi)];
          for (const auto& [a, pushed] : entries) {
            const auto as = static_cast<std::size_t>(a);
            result.arc_flow[as] += pushed;
            double& len = length[as];
            len *= 1.0 + step * pushed / arcs.capacity[as];
            slot_length[static_cast<std::size_t>(arcs.slot_of_arc[as])] = len;
            max_length = std::max(max_length, len);
            if (guard_overflow()) ++rescale_epoch;
          }
          entries.clear();
        }
      }
    } else {
      for (int gi = 0; gi < num_groups; ++gi) {
        if (!route_group(gi, routing_ws, length.data(), slot_length.data(),
                         /*has_tree=*/false, kExactStaleFactor, path,
                         exact_push)) {
          return result;
        }
      }
    }

    // Primal value: every commodity has been routed (phase+1) times its
    // demand; scaling by the worst congestion yields feasibility.
    // Primal is not tracked as a running max: feasibility scaling below
    // pairs the final flows with the final phase count, so the reported
    // lambda must be the final primal value (monotone in practice).
    last_primal = feasible_lambda(arcs, result.arc_flow, phase + 1,
                                  /*scale_to_feasible=*/false);

    // Dual bound D(l)/alpha(l), valid for any lengths. The distance
    // computations are independent, so they run on the pool; each
    // commodity's term lands in dual_terms and the sum is taken serially in
    // group order, keeping the result identical for any thread count.
    // Both modes run blocks of groups through the multi-source sweep.
    if (phase % dual_cadence == 0 || phase + 1 == options.max_phases) {
      double d_l = 0.0;
      for (int a = 0; a < arcs.num_arcs; ++a) {
        d_l += length[static_cast<std::size_t>(a)] *
               arcs.capacity[static_cast<std::size_t>(a)];
      }
      parallel_for_slots(num_dual_blocks, [&](int slot, int block) {
        MultiSourceWorkspace& ws = dual_ws[static_cast<std::size_t>(slot)];
        const int first = block * kDualLanes;
        const int lanes = std::min(kDualLanes, num_groups - first);
        ws.run(arcs, slot_length.data(), group_src.data() + first, lanes,
               options.restrict_to_shortest_paths ? group_hops.data() + first
                                                  : nullptr);
        for (int lane = 0; lane < lanes; ++lane) {
          const auto& group =
              grouped.groups[static_cast<std::size_t>(first + lane)];
          for (int i = group.begin; i < group.end; ++i) {
            dual_terms[static_cast<std::size_t>(i)] =
                grouped.demands[static_cast<std::size_t>(i)] *
                ws.dist(lane, grouped.dsts[static_cast<std::size_t>(i)]);
          }
        }
      });
      double alpha = 0.0;
      for (double term : dual_terms) alpha += term;
      if (alpha > 0.0) best_dual = std::min(best_dual, d_l / alpha);
    }

    const double gap = best_dual > 0.0 && best_dual < kInf
                           ? 1.0 - last_primal / best_dual
                           : 1.0;
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
  // Scale flows to the feasible solution and derive the decomposition
  // metrics (utilization, routed path length, stretch).
  result.lambda = feasible_lambda(arcs, result.arc_flow, result.phases,
                                  /*scale_to_feasible=*/true);
  result.dual_bound = best_dual == kInf ? result.lambda : best_dual;
  result.gap = result.dual_bound > 0.0
                   ? std::max(0.0, 1.0 - result.lambda / result.dual_bound)
                   : 0.0;
  if (result.lambda > 0.0) {
    double total_flow_hops = 0.0;
    for (int a = 0; a < arcs.num_arcs; ++a) {
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

}  // namespace topo
