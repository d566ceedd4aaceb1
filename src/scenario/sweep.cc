#include "scenario/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <utility>

#include "scenario/cache.h"
#include "scenario/spec_io.h"
#include "scenario/topo_registry.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace topo::scenario {
namespace {

const std::vector<double>& axis_values(const SweepAxis& axis, bool full) {
  return full && !axis.full_values.empty() ? axis.full_values : axis.values;
}

// The resolved inputs of one (point, run) cell — exactly what its result
// is a function of, so it doubles as the cache identity (cache.h).
struct CellPlan {
  ParamMap params;
  EvalOptions options;
  std::uint64_t topo_seed = 0;
  std::uint64_t traffic_seed = 0;
};

std::vector<std::shared_ptr<const ScenarioSpec>>& spec_registry() {
  static auto* specs = new std::vector<std::shared_ptr<const ScenarioSpec>>();
  return *specs;
}

// Progress heartbeat for supervised shard workers (kHeartbeatEnvVar):
// rewrites the file with the number of cells completed so far. The
// payload is diagnostic; supervision reads only the mtime. Concurrent
// beats from pool threads interleave harmlessly — every write refreshes
// the mtime, which is all that matters.
class Heartbeat {
 public:
  Heartbeat() {
    const char* path = std::getenv(kHeartbeatEnvVar);
    if (path != nullptr && path[0] != '\0') path_ = path;
  }

  void beat() const {
    if (path_.empty()) return;
    std::ofstream out(path_, std::ios::trunc);
    out << cells_done_.load() << "\n";
  }

  void cell_done() {
    cells_done_.fetch_add(1);
    beat();
  }

 private:
  std::string path_;
  mutable std::atomic<int> cells_done_{0};
};

}  // namespace

bool cell_in_shard(int cell_index, int shard_index, int shard_count) {
  // Round-robin striping: cheap, independent of the grid shape, and an
  // exact partition for any (cells, shard_count) pair. Striding by cell
  // rather than by point also balances shards when a single point's runs
  // dominate the grid.
  return cell_index % shard_count == shard_index;
}

bool range_in_shard(int rank, int num_cells, int shard_index,
                    int shard_count) {
  // Balanced contiguous blocks over whatever ranking the caller chose:
  // shard i owns [floor(i*C/N), floor((i+1)*C/N)). Exact partition for
  // any (C, N), block sizes differing by at most one.
  const long long c = num_cells;
  const long long lo = c * shard_index / shard_count;
  const long long hi = c * (shard_index + 1) / shard_count;
  return rank >= lo && rank < hi;
}

StripeMode stripe_mode_from_name(const std::string& name) {
  if (name == "round-robin") return StripeMode::kRoundRobin;
  if (name == "range") return StripeMode::kRange;
  throw InvalidArgument("unknown stripe mode: " + name +
                        " (expected round-robin or range)");
}

std::vector<std::vector<double>> SweepRunner::enumerate_points() const {
  std::vector<std::vector<double>> points{{}};
  for (const SweepAxis& axis : spec_->axes) {
    const std::vector<double>& values = axis_values(axis, config_.full);
    require(!values.empty(), "sweep axis " + axis.param + " has no values");
    std::vector<std::vector<double>> next;
    next.reserve(points.size() * values.size());
    for (const std::vector<double>& prefix : points) {
      for (double v : values) {
        std::vector<double> point = prefix;
        point.push_back(v);
        next.push_back(std::move(point));
      }
    }
    points = std::move(next);
  }
  return points;
}

SweepResult SweepRunner::run() const {
  const ScenarioSpec& spec = *spec_;
  require(config_.runs >= 1, "sweep requires runs >= 1");
  require(config_.shard_count >= 1, "shard_count must be >= 1");
  require(config_.shard_index >= 0 &&
              config_.shard_index < config_.shard_count,
          "shard_index must be in [0, shard_count)");
  // A shard's only output channel is the shared cache: without one its
  // stripe would be computed and thrown away.
  require(config_.shard_count == 1 || !config_.cache_dir.empty(),
          "sharded sweeps require a cache dir (the coordinator merges "
          "shards through it)");
  // Merge-only evaluates nothing, so the cache is its only input.
  require(!config_.merge_only || !config_.cache_dir.empty(),
          "merge_only requires a cache dir (there is nothing else to "
          "merge from)");
  // One validator for file-parsed and programmatic specs alike: known
  // family, known parameter/axis names (a typo'd axis would otherwise
  // sweep nothing and report identical cells without an error), sane
  // ranges. Messages name the offending key.
  validate_spec(spec);
  const FamilyInfo* family = find_family(spec.topology.family);

  // Liveness signal for supervised workers (kHeartbeatEnvVar): one beat
  // up front — before the cache preload and any reuse-topology builds,
  // which can themselves take a while — then one per completed cell.
  Heartbeat heartbeat;
  heartbeat.beat();

  const std::vector<std::vector<double>> points = enumerate_points();
  const int runs = config_.runs;
  const int num_points = static_cast<int>(points.size());
  const int num_cells = num_points * runs;
  // This run's stripe of the cell grid. Sharding restricts EVALUATION
  // only — plans, seeds, and cache keys are shard-agnostic, so every
  // shard and the coordinator address identical cells. A merge_only run
  // owns no stripe at all: it reduces what the cache holds and reports
  // the rest as missing.
  // Range striping ranks cells RUN-MAJOR — all points of run 0, then run
  // 1, ... — so each contiguous block spans as few distinct runs as
  // possible. Reuse-mode sweeps build ONE shared topology per run; under
  // this ranking each shard builds only the (at most two boundary-run)
  // topologies its block touches, instead of all of them.
  const auto in_shard = [&, this](int index) {
    if (config_.merge_only) return false;
    if (config_.stripe == StripeMode::kRange) {
      const int rank = (index % runs) * num_points + index / runs;
      return range_in_shard(rank, num_cells, config_.shard_index,
                            config_.shard_count);
    }
    return cell_in_shard(index, config_.shard_index, config_.shard_count);
  };

  bool reuse = spec.reuse_topology;
  for (const SweepAxis& axis : spec.axes) {
    if (!is_eval_axis(axis.param)) reuse = false;
  }

  // Seed fan-out (the documented contract): point p draws
  // point_seed = derive_seed(master, p); run r of that point uses
  // topology seed derive_seed(point_seed, 2r) and traffic seed
  // derive_seed(point_seed, 2r + 1). In reuse mode the whole run-r
  // stream (topology, workload, failure draw) is point-independent —
  // both seeds derive from the master instead — so only the axis value
  // changes between points and link-failure sweeps degrade
  // prefix-nested failed sets of ONE fixed (topology, workload) pair
  // per run (curves monotone up to FPTAS slack; see core/failure.h).
  const auto make_plan = [&](int index) {
    const int point = index / runs;
    const int run_index = index % runs;
    CellPlan plan;
    plan.params = spec.topology.params;
    // Spec-level solver mode, then the CLI override, then (below) any
    // "solver_mode" axis — later binders win.
    plan.options = eval_options_for(spec);
    plan.options.flow.epsilon = config_.epsilon;
    if (!config_.solver_override.empty()) {
      plan.options.flow.mode = config_.solver_override == "approx"
                                   ? SolverMode::kApprox
                                   : SolverMode::kExact;
    }
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      bind_axis(spec.axes[a].param,
                points[static_cast<std::size_t>(point)][a], plan.params,
                plan.options);
    }
    const std::uint64_t seed_base =
        reuse ? config_.master_seed
              : Rng::derive_seed(config_.master_seed,
                                 static_cast<std::uint64_t>(point));
    plan.topo_seed =
        Rng::derive_seed(seed_base, 2 * static_cast<std::uint64_t>(run_index));
    plan.traffic_seed = Rng::derive_seed(
        seed_base, 2 * static_cast<std::uint64_t>(run_index) + 1);
    return plan;
  };

  // One flat grid of (point, run) cells; results land in per-cell slots
  // and are reduced serially below, so cached and fresh cells merge in
  // the same ordered reduction.
  std::vector<ThroughputResult> cells(static_cast<std::size_t>(num_cells));
  std::unique_ptr<ResultCache> cache;
  std::vector<CellPlan> plans;
  std::vector<std::uint64_t> keys;
  std::vector<char> cached;
  int hits = 0;
  if (!config_.cache_dir.empty()) {
    cache = std::make_unique<ResultCache>(config_.cache_dir);
    plans.resize(static_cast<std::size_t>(num_cells));
    keys.resize(static_cast<std::size_t>(num_cells));
    cached.assign(static_cast<std::size_t>(num_cells), 0);
    // Per-cell loads are independent file reads; run them on the pool so
    // a large warm sweep is not serialized on its preload. The plans are
    // kept for the evaluation pass below.
    parallel_for(num_cells, [&](int index) {
      const std::size_t i = static_cast<std::size_t>(index);
      plans[i] = make_plan(index);
      keys[i] = cell_key(CellIdentity{spec.topology.family, plans[i].params,
                                      plans[i].options, plans[i].topo_seed,
                                      plans[i].traffic_seed, {}});
      if (cache->load(keys[i], &cells[i])) cached[i] = 1;
    });
    for (const char hit : cached) hits += hit;
  }

  // With reuse, run r's topology is independent of the sweep point:
  // build the `runs` instances once up front (in parallel) and share
  // them — skipping runs whose every cell came out of the cache.
  std::vector<std::shared_ptr<const BuiltTopology>> shared(
      static_cast<std::size_t>(reuse ? runs : 0));
  if (reuse) {
    // Run r's topology is needed only if some cell of run r will actually
    // be evaluated here: not cached, and in this run's stripe.
    std::vector<char> needed(static_cast<std::size_t>(runs),
                             cache == nullptr ? 1 : 0);
    if (cache != nullptr) {
      for (int index = 0; index < num_cells; ++index) {
        if (!cached[static_cast<std::size_t>(index)] && in_shard(index)) {
          needed[static_cast<std::size_t>(index % runs)] = 1;
        }
      }
    }
    parallel_for(runs, [&](int r) {
      if (!needed[static_cast<std::size_t>(r)]) return;
      try {
        shared[static_cast<std::size_t>(r)] =
            std::make_shared<const BuiltTopology>(family->build(
                spec.topology.params,
                Rng::derive_seed(config_.master_seed,
                                 2 * static_cast<std::uint64_t>(r))));
      } catch (const ConstructionFailure&) {
        // Left null; the cells below record infeasible runs.
      }
    });
  }

  // Memoized targeted-failure rankings for the shared reuse topologies: a
  // pure, seed-independent function of the graph, so a k-axis sweep
  // computes it once per run instead of once per cell. call_once keeps
  // the lazy computation race-free on the pool; whichever worker computes
  // it, the bytes are identical.
  std::vector<std::once_flag> ranking_once(
      static_cast<std::size_t>(reuse ? runs : 0));
  std::vector<std::vector<EdgeId>> rankings(
      static_cast<std::size_t>(reuse ? runs : 0));

  parallel_for(num_cells, [&](int index) {
    if (cache != nullptr && cached[static_cast<std::size_t>(index)]) return;
    if (!in_shard(index)) return;  // another shard's cell
    const CellPlan plan = cache != nullptr
                              ? plans[static_cast<std::size_t>(index)]
                              : make_plan(index);
    try {
      if (reuse) {
        const std::size_t r = static_cast<std::size_t>(index % runs);
        const auto& topology = shared[r];
        if (topology != nullptr) {
          const std::vector<EdgeId>* ranking = nullptr;
          if (plan.options.failure.targeted.active()) {
            std::call_once(ranking_once[r], [&] {
              rankings[r] = targeted_link_ranking(topology->graph);
            });
            ranking = &rankings[r];
          }
          cells[static_cast<std::size_t>(index)] = evaluate_throughput(
              *topology, plan.options, plan.traffic_seed, ranking);
        }
      } else {
        const BuiltTopology topology =
            family->build(plan.params, plan.topo_seed);
        cells[static_cast<std::size_t>(index)] =
            evaluate_throughput(topology, plan.options, plan.traffic_seed);
      }
    } catch (const ConstructionFailure&) {
      // Infeasible zero run (extreme parameter corners), like
      // run_experiment. Cached too: the outcome is as deterministic as
      // any other cell's.
    }
    if (cache != nullptr) {
      cache->store(keys[static_cast<std::size_t>(index)],
                   cells[static_cast<std::size_t>(index)]);
    }
    // Fault point (util/fault.h): under stall_after_cells:M the M-th
    // completed cell parks every evaluation thread, so the beat below
    // never lands and the heartbeat goes silent — the supervised-hang
    // scenario the orchestrator's --worker-timeout reaper must catch.
    fault::on_cell_evaluated();
    heartbeat.cell_done();
  });

  // A cell is available when this run has its result: a cache hit from
  // any shard's earlier store, or an in-stripe evaluation above.
  const auto available = [&](int index) {
    if (cache != nullptr && cached[static_cast<std::size_t>(index)]) {
      return true;
    }
    return in_shard(index);
  };

  SweepResult result;
  for (const SweepAxis& axis : spec.axes) {
    result.axis_names.push_back(axis.param);
  }
  int skipped = 0;
  for (int index = 0; index < num_cells; ++index) {
    if (!available(index)) ++skipped;
  }
  result.cache_hits = hits;
  result.shard_skipped = skipped;
  result.cache_misses = cache != nullptr ? num_cells - hits - skipped : 0;
  result.points.reserve(points.size());
  for (int p = 0; p < num_points; ++p) {
    // Partial-reduction skip: a sharded run reduces only the points whose
    // every cell it has (its stripe plus cache hits); the remaining
    // points belong to other shards until the coordinator's warm run
    // merges everything. Unsharded runs always reduce every point. A
    // merge_only run additionally names each absent cell, so a degraded
    // coordinator can emit an exact missing-cell manifest next to its
    // partial table.
    bool complete = true;
    for (int r = 0; r < runs; ++r) {
      const int index = p * runs + r;
      complete = complete && available(index);
      if (config_.merge_only && !available(index)) {
        result.missing.push_back(
            MissingCell{p, r, points[static_cast<std::size_t>(p)],
                        keys[static_cast<std::size_t>(index)]});
      }
    }
    if (!complete) continue;
    const auto begin = cells.begin() + static_cast<std::ptrdiff_t>(p) * runs;
    SweepPointResult point;
    point.coords = points[static_cast<std::size_t>(p)];
    point.stats = summarize_runs(std::vector<ThroughputResult>(
        begin, begin + static_cast<std::ptrdiff_t>(runs)));
    result.points.push_back(std::move(point));
  }
  return result;
}

TablePrinter sweep_table(const SweepResult& result) {
  // Packet columns appear only when some point actually ran the packet
  // co-simulation, so every pre-existing sweep's table (and golden file)
  // stays byte-identical.
  bool packet = false;
  bool fct = false;
  for (const SweepPointResult& point : result.points) {
    packet = packet || point.stats.packet_sim_runs > 0;
    fct = fct || point.stats.fct_runs > 0;
  }
  std::vector<std::string> headers = result.axis_names;
  for (const char* metric :
       {"lambda_mean", "lambda_stdev", "lambda_min", "dual_bound_mean",
        "utilization_mean", "infeasible_runs"}) {
    headers.emplace_back(metric);
  }
  if (packet) {
    for (const char* metric : {"packet_mean", "packet_p05", "gap_percent"}) {
      headers.emplace_back(metric);
    }
  }
  if (fct) {
    for (const char* metric : {"fct_p50_ms", "fct_p99_ms", "fct_goodput",
                               "fct_slowdown_p50", "fct_slowdown_p99"}) {
      headers.emplace_back(metric);
    }
  }
  TablePrinter table(std::move(headers));
  for (const SweepPointResult& point : result.points) {
    std::vector<Cell> row;
    for (double coord : point.coords) row.emplace_back(coord);
    row.emplace_back(point.stats.lambda.mean);
    row.emplace_back(point.stats.lambda.stdev);
    row.emplace_back(point.stats.lambda.min);
    row.emplace_back(point.stats.dual_bound.mean);
    row.emplace_back(point.stats.utilization.mean);
    row.emplace_back(static_cast<long long>(point.stats.infeasible_runs));
    if (packet) {
      // Flow-vs-packet gap in percent, against the fluid optimum clamped
      // to line rate (lambda > 1 means spare capacity the packet side
      // cannot use; Fig. 13 clamps the same way).
      const double flow_level = std::min(1.0, point.stats.lambda.mean);
      row.emplace_back(point.stats.packet_mean.mean);
      row.emplace_back(point.stats.packet_p05.mean);
      row.emplace_back(100.0 * (flow_level - point.stats.packet_mean.mean) /
                       std::max(flow_level, 1e-9));
    }
    if (fct) {
      row.emplace_back(point.stats.fct_p50.mean / 1e6);  // ns -> ms
      row.emplace_back(point.stats.fct_p99.mean / 1e6);
      row.emplace_back(point.stats.fct_goodput.mean);
      row.emplace_back(point.stats.fct_slowdown_p50.mean);
      row.emplace_back(point.stats.fct_slowdown_p99.mean);
    }
    table.add_row(std::move(row));
  }
  return table;
}

SweepResult run_spec_scenario(const ScenarioSpec& spec, ScenarioRun& ctx,
                              bool merge_only) {
  SweepRunConfig config;
  config.runs = ctx.runs(spec.quick_runs, spec.full_runs);
  config.epsilon = ctx.options().epsilon;
  config.master_seed = ctx.options().seed;
  config.full = ctx.options().full;
  config.cache_dir = ctx.options().cache_dir;
  config.shard_index = ctx.options().shard_index;
  config.shard_count = ctx.options().shard_count;
  if (!ctx.options().stripe.empty()) {
    config.stripe = stripe_mode_from_name(ctx.options().stripe);
  }
  config.solver_override = ctx.options().solver;
  config.merge_only = merge_only;
  SweepResult result = SweepRunner(spec, config).run();
  ctx.banner(spec.description);
  ctx.table(sweep_table(result));
  if (!config.cache_dir.empty()) {
    // stderr, not the scenario stream: stdout/JSON stay byte-identical
    // between cold and warm runs. The spec hash is shard-agnostic
    // (spec_hash never reads the shard fields), so all shards and the
    // coordinator report the same sweep identity; unsharded runs keep the
    // historical line format exactly (CI greps it).
    std::cerr << "cache " << spec.name << " ["
              << hash_hex(spec_hash(spec, config)) << "]";
    if (config.shard_count > 1) {
      std::cerr << " shard " << config.shard_index << "/"
                << config.shard_count;
    }
    std::cerr << ": " << result.cache_hits << " hits, "
              << result.cache_misses << " misses";
    if (config.shard_count > 1) {
      std::cerr << ", " << result.shard_skipped << " left to other shards";
    }
    std::cerr << " (" << config.cache_dir << ")\n";
  }
  return result;
}

void register_spec_scenario(ScenarioSpec spec) {
  const std::string name = spec.name;
  const std::string description = spec.description;
  // Idempotent, like register_scenario — and if the name is already taken
  // by ANY scenario (spec-backed or not), leave both registries alone so
  // --dump-spec can never emit a spec that is not what `topobench NAME`
  // runs.
  for (const ScenarioInfo* existing : list_scenarios()) {
    if (existing->name == name) return;
  }
  auto shared_spec = std::make_shared<const ScenarioSpec>(std::move(spec));
  spec_registry().push_back(shared_spec);
  register_scenario(ScenarioInfo{name, description,
                                 [shared_spec](ScenarioRun& ctx) {
                                   run_spec_scenario(*shared_spec, ctx);
                                 }});
}

const ScenarioSpec* find_spec_scenario(const std::string& name) {
  for (const auto& spec : spec_registry()) {
    if (spec->name == name) return spec.get();
  }
  return nullptr;
}

std::vector<const ScenarioSpec*> list_spec_scenarios() {
  std::vector<const ScenarioSpec*> result;
  result.reserve(spec_registry().size());
  for (const auto& spec : spec_registry()) result.push_back(spec.get());
  std::sort(result.begin(), result.end(),
            [](const ScenarioSpec* a, const ScenarioSpec* b) {
              return a->name < b->name;
            });
  return result;
}

}  // namespace topo::scenario
