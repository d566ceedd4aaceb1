// Maximum concurrent multi-commodity flow (throughput) solver.
//
// The paper defines throughput as the optimum of the max concurrent flow
// LP: the largest lambda such that lambda * d_i units can be routed
// simultaneously for every commodity i (fluid, splittable, optimally
// routed). The paper solves the LP with CPLEX; we use the
// Garg-Konemann/Fleischer multiplicative-weights scheme with an explicit
// primal-dual optimality certificate:
//
//  * primal: route every commodity's demand once per phase along
//    approximately-shortest paths under exponential arc lengths; after P
//    phases, scaling all flow by the worst congestion max_a x_a/c_a yields
//    a feasible concurrent flow of value P / scale;
//  * dual: for ANY arc lengths l, OPT <= sum_a c_a l_a / alpha(l) where
//    alpha(l) = sum_i d_i * dist_l(src_i, dst_i). We track the minimum over
//    phases, giving a certified upper bound.
//
// The solver iterates until primal >= (1 - epsilon) * dual (a certified
// (1-epsilon)-approximation) or the phase budget is exhausted; the achieved
// gap is reported either way. Commodities are grouped by source so each
// Dijkstra serves many commodities, and shortest-path trees are reused
// until their paths go stale — the two classic practical accelerations.
//
// The hot path runs on a flat CSR arc graph with pooled workspaces
// (src/graph/shortest_path.h): no per-call allocation, and routing
// Dijkstras bounded by each group's destinations. In both modes the dual
// bound's distances come from one multi-source sweep per fixed-size block
// of source groups (MultiSourceWorkspace), which is bit-identical to a
// Dijkstra per group; the blocks and the reachability pre-pass are
// distributed over the shared thread pool (src/util/parallel.h). All
// reductions are ordered, so results are identical for any thread count —
// and agree with the original reference formulation's lambda/dual bound
// to 1e-9 on fixed seeds (bench/baseline_solver.cc + perf_microbench guard
// this; the only intended divergence is the in-loop overflow rescale,
// which the reference applied per group).
#ifndef TOPODESIGN_FLOW_CONCURRENT_FLOW_H
#define TOPODESIGN_FLOW_CONCURRENT_FLOW_H

#include <vector>

#include "graph/graph.h"
#include "traffic/traffic.h"

namespace topo {

/// How the solver runs its phases. Both modes route each source group
/// through one router (extract a tree path, re-route it once stale, push
/// its bottleneck, raise its arc lengths) and certify with one dual pass;
/// they differ only in tree warm-start, stale factor, round batching and
/// dual cadence.
enum class SolverMode {
  /// The bit-exact reference path: groups routed serially on cold trees,
  /// stale factor 1.5, the dual bound every phase. Results frozen by the
  /// perf_microbench baseline guard and the golden tables. Default.
  kExact,
  /// The approximate path: per-group shortest-path trees carried across
  /// phases (warm start), stale factor 1 + epsilon/2, source groups routed
  /// in deterministic rounds of 32 against a snapshot of the length
  /// function (parallel across the thread pool, applied in group order),
  /// and the dual bound on every second phase. Still a certified
  /// (1-epsilon)-approximation — the primal is feasible by construction
  /// and the dual bound holds for any lengths — but the phase trajectory
  /// differs from exact mode, so lambda may differ within the epsilon
  /// tolerance. Deterministic for any thread count. Not reliably faster
  /// than exact: its gain comes from routing rounds spread over the pool,
  /// so on one thread it can be the slower mode (README, "Solver modes",
  /// has measurements).
  kApprox,
};

/// Options for the concurrent-flow solver.
struct FlowOptions {
  /// Target certified relative gap between primal and dual.
  double epsilon = 0.08;
  /// Hard cap on phases (each phase routes every commodity once).
  int max_phases = 3000;
  /// Stop early if the certified gap has not improved for this many phases.
  int stagnation_phases = 200;
  /// Restrict every commodity to hop-shortest paths (the ECMP/K-shortest
  /// routing model of §8): flow from source s may only use arcs (u,v) with
  /// hop(s,v) == hop(s,u) + 1. The result (and its certificate) then refer
  /// to the optimum over shortest-path routing, not unrestricted routing.
  bool restrict_to_shortest_paths = false;
  /// Solver mode; kApprox is opt-in and changes cache cell identity (see
  /// scenario/cache.h, kSolverApproxVersionTag).
  SolverMode mode = SolverMode::kExact;
};

/// Result of a throughput computation. All capacity-consumption metrics
/// (utilization, path lengths, stretch) refer to the scaled feasible flow.
struct ThroughputResult {
  /// Certified feasible throughput (the paper's T): every commodity ships
  /// lambda * demand concurrently within capacities.
  double lambda = 0.0;
  /// Certified upper bound on the optimal lambda.
  double dual_bound = 0.0;
  /// Achieved relative gap: 1 - lambda / dual_bound.
  double gap = 1.0;
  /// False when some commodity's endpoints are disconnected (lambda = 0).
  bool feasible = false;

  int phases = 0;

  /// U: fraction of total directed capacity carried by the scaled flow.
  double utilization = 0.0;
  /// Mean hops traversed per unit of delivered flow (flow-weighted).
  double mean_routed_path_length = 0.0;
  /// Demand-weighted mean shortest-path distance over commodities.
  double demand_weighted_spl = 0.0;
  /// Stretch AS = mean_routed_path_length / demand_weighted_spl (>= ~1).
  double stretch = 1.0;
  /// Total commodity demand (the f in the paper's T = C*U/(<D>*AS*f)).
  double total_demand = 0.0;

  /// Scaled feasible flow per directed arc: arc 2e is edge e's u->v
  /// direction, arc 2e+1 the reverse.
  std::vector<double> arc_flow;

  /// Packet-level co-simulation metrics (core/evaluate.h, packet_sim).
  /// The flow solver never touches these; they ride on the result as
  /// plain scalars so the experiment, sweep, and cache layers carry
  /// packet metrics through the same per-cell machinery as the fluid
  /// ones without depending on the simulator.
  bool packet_sim_run = false;          ///< True when the co-sim executed.
  double packet_mean_normalized = 0.0;  ///< Mean goodput / server rate.
  double packet_p05_normalized = 0.0;   ///< 5th pct goodput / server rate.
  double packet_min_normalized = 0.0;   ///< Worst flow goodput / rate.
  double packet_retransmits = 0.0;      ///< Total retransmitted segments.
  double packet_drops = 0.0;            ///< Total packets dropped.

  /// Finite-flow workload metrics (core/evaluate.h, packet_sim.fct):
  /// flow-completion-time percentiles and goodput from a Poisson arrival
  /// process of empirically sized flows. Same plain-scalar ride-along
  /// pattern as the packet_* block above.
  bool fct_run = false;        ///< True when the FCT workload executed.
  double fct_p50_ns = 0.0;     ///< Median flow-completion time (ns).
  double fct_p95_ns = 0.0;     ///< 95th-percentile FCT (ns).
  double fct_p99_ns = 0.0;     ///< 99th-percentile FCT (ns).
  double fct_mean_ns = 0.0;    ///< Mean FCT over completed flows (ns).
  double fct_goodput = 0.0;    ///< Aggregate goodput / total line rate.
  double fct_flows = 0.0;      ///< Flows that arrived in the horizon.
  double fct_completed = 0.0;  ///< Flows fully ACKed before the end.
  /// Per-flow slowdown percentiles: FCT / ideal FCT, where the ideal is
  /// the flow's serialized transmission time at server line rate.
  double fct_slowdown_p50 = 0.0;  ///< Median slowdown.
  double fct_slowdown_p99 = 0.0;  ///< 99th-percentile slowdown.
};

/// Computes the maximum concurrent flow for the commodities on `graph`.
/// Raises InvalidArgument for malformed commodities; disconnected
/// commodities yield feasible=false, lambda=0 rather than an exception.
[[nodiscard]] ThroughputResult max_concurrent_flow(
    const Graph& graph, const std::vector<Commodity>& commodities,
    const FlowOptions& options = {});

}  // namespace topo

#endif  // TOPODESIGN_FLOW_CONCURRENT_FLOW_H
