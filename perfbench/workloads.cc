#include "workloads.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>

#include "bounds/bounds.h"
#include "core/experiment.h"
#include "core/failure.h"
#include "flow/concurrent_flow.h"
#include "scenario/cache.h"
#include "scenario/spec_io.h"
#include "scenario/sweep.h"
#include "scenario/topo_registry.h"
#include "search/cost_model.h"
#include "search/driver.h"
#include "search/search_space.h"
#include "sim/network.h"
#include "trace.h"
#include "traffic/traffic.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace fs = std::filesystem;
using topo::BuiltTopology;
using topo::Commodity;
using topo::EvalOptions;
using topo::Rng;
using topo::ThroughputResult;
using topo::TrafficKind;

namespace {

// Seed salts owned by the benchmark. The library salts its failure draw
// and its packet simulator from the traffic seed with constants private
// to core/evaluate.cc; the replay uses its own and says so, so those
// cells are timed faithfully but not compared number for number.
constexpr std::uint64_t kReplayFailureSalt = 0xBE7C0001;
constexpr std::uint64_t kReplaySimSalt = 0xBE7C0002;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

// ---------------------------------------------------------------------------
// Layer calls, one span each. They mirror evaluate_throughput's order:
// degrade, draw the workload, solve.

struct Drawn {
  std::vector<Commodity> commodities;
  topo::TrafficMatrix flows;  ///< Server flows (permutation only).
};

Drawn draw_traffic(const BuiltTopology& t, const EvalOptions& o,
                   std::uint64_t traffic_seed) {
  const Scope span("traffic");
  Rng rng(traffic_seed);
  Drawn d;
  switch (o.traffic) {
    case TrafficKind::kPermutation:
      d.flows = topo::random_permutation_traffic(t.servers, rng);
      d.commodities = topo::aggregate_to_commodities(d.flows, t.servers);
      break;
    case TrafficKind::kAllToAll: {
      d.commodities = topo::all_to_all_commodities(t.servers);
      const double scale = 1.0 / std::max(1, t.servers.total() - 1);
      for (Commodity& c : d.commodities) c.demand *= scale;
      break;
    }
    case TrafficKind::kChunky:
      d.commodities = topo::aggregate_to_commodities(
          topo::chunky_traffic(t.servers, o.chunky_fraction, rng), t.servers);
      break;
    default:
      throw std::invalid_argument(
          "replay supports permutation, all-to-all and chunky traffic");
  }
  count("traffic.draws", 1);
  count("traffic.commodities", static_cast<double>(d.commodities.size()));
  return d;
}

ThroughputResult solve(const topo::Graph& g, const std::vector<Commodity>& c,
                       const topo::FlowOptions& flow) {
  ThroughputResult r;
  if (c.empty()) {
    r.feasible = true;
    r.lambda = 1.0;
    r.dual_bound = 1.0;
    r.gap = 0.0;
    return r;
  }
  {
    const Scope span("flow");
    r = topo::max_concurrent_flow(g, c, flow);
  }
  count("flow.phases", r.phases);
  count("flow.certified", r.gap <= flow.epsilon ? 1.0 : 0.0);
  return r;
}

BuiltTopology build(const std::function<BuiltTopology()>& builder) {
  const Scope span("topo");
  BuiltTopology t = builder();
  count("topo.builds", 1);
  return t;
}

BuiltTopology degrade(const BuiltTopology& t, const topo::FailureSpec& spec,
                      std::uint64_t traffic_seed) {
  const Scope span("failure");
  return topo::apply_failures(t, spec,
                              Rng::derive_seed(traffic_seed, kReplayFailureSalt));
}

bool cache_load(const topo::scenario::ResultCache& cache, std::uint64_t key,
                ThroughputResult* out) {
  const Scope span("cache.load");
  const bool hit = cache.load(key, out);
  count(hit ? "cache.hits" : "cache.misses", 1);
  return hit;
}

void cache_store(const topo::scenario::ResultCache& cache, std::uint64_t key,
                 const ThroughputResult& r) {
  {
    const Scope span("cache.store");
    cache.store(key, r);
  }
  std::error_code ec;
  const auto bytes = fs::file_size(cache.cell_path(key), ec);
  if (!ec) count("cache.bytes", static_cast<double>(bytes));
}

// Fluid solves whose certificates are checked after the timed section:
// lambda <= dual bound, and lambda <= the Theorem-1 path-length bound of
// the commodities actually routed.
class SolveLog {
 public:
  void add(std::shared_ptr<const BuiltTopology> t, std::vector<Commodity> c,
           const ThroughputResult& r) {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back({std::move(t), std::move(c), r.lambda, r.dual_bound,
                        r.feasible});
  }

  // Returns the number of solves checked.
  long long verify(Checks& checks, const std::string& where) const {
    for (const Entry& e : entries_) {
      checks.expect(e.lambda <= e.dual * (1.0 + 1e-12),
                    where + ": lambda " + std::to_string(e.lambda) +
                        " above its dual bound " + std::to_string(e.dual));
      if (!e.feasible || e.commodities.empty()) continue;
      const double bound =
          topo::throughput_upper_bound(e.topology->graph, e.commodities);
      checks.expect(e.lambda <= bound * (1.0 + 1e-9),
                    where + ": lambda " + std::to_string(e.lambda) +
                        " above the Theorem-1 bound " + std::to_string(bound));
    }
    return static_cast<long long>(entries_.size());
  }

 private:
  struct Entry {
    std::shared_ptr<const BuiltTopology> topology;
    std::vector<Commodity> commodities;
    double lambda, dual;
    bool feasible;
  };
  std::mutex mu_;
  std::vector<Entry> entries_;
};

// One fluid cell: draw and solve on an already built topology.
ThroughputResult fluid_cell(std::shared_ptr<const BuiltTopology> t,
                            const EvalOptions& o, std::uint64_t traffic_seed,
                            SolveLog* log) {
  Drawn d = draw_traffic(*t, o, traffic_seed);
  const ThroughputResult r = solve(t->graph, d.commodities, o.flow);
  if (log != nullptr) log->add(std::move(t), std::move(d.commodities), r);
  return r;
}

// ---------------------------------------------------------------------------
// Sweep cells: the (point, run) grid SweepRunner enumerates, with the
// seed fan-out and axis binding sweep.h documents.

struct CellPlan {
  topo::scenario::ParamMap params;
  EvalOptions options;
  std::uint64_t topo_seed = 0;
  std::uint64_t traffic_seed = 0;
  std::uint64_t key = 0;
};

std::vector<CellPlan> plan_cells(const topo::scenario::ScenarioSpec& spec,
                                 const topo::scenario::SweepRunConfig& config) {
  if (spec.reuse_topology) {
    throw std::invalid_argument("replay does not model reuse_topology sweeps");
  }
  const auto points = topo::scenario::SweepRunner(spec, config).enumerate_points();
  std::vector<CellPlan> plans;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (int r = 0; r < config.runs; ++r) {
      CellPlan plan;
      plan.params = spec.topology.params;
      plan.options.flow.epsilon = config.epsilon;
      plan.options.flow.mode = spec.solver;
      plan.options.traffic = spec.traffic;
      plan.options.chunky_fraction = spec.chunky_fraction;
      plan.options.hot_fraction = spec.hot_fraction;
      plan.options.hot_multiplier = spec.hot_multiplier;
      plan.options.stride = spec.stride;
      plan.options.failure = spec.failure;
      plan.options.packet_sim = spec.packet_sim;
      for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        const std::string& name = spec.axes[a].param;
        if (name == "link_failure_fraction") {
          plan.options.failure.uniform.link_fraction = points[p][a];
        } else if (!topo::scenario::is_eval_axis(name)) {
          plan.params[name] = points[p][a];
        } else {
          throw std::invalid_argument("replay cannot bind axis " + name);
        }
      }
      const std::uint64_t base = Rng::derive_seed(config.master_seed, p);
      plan.topo_seed = Rng::derive_seed(base, 2 * static_cast<std::uint64_t>(r));
      plan.traffic_seed =
          Rng::derive_seed(base, 2 * static_cast<std::uint64_t>(r) + 1);
      plan.key = topo::scenario::cell_key(topo::scenario::CellIdentity{
          spec.topology.family, plan.params, plan.options, plan.topo_seed,
          plan.traffic_seed, {}});
      plans.push_back(std::move(plan));
    }
  }
  return plans;
}

std::vector<double> sweep_values(const topo::scenario::SweepResult& result) {
  std::vector<double> v;
  for (const auto& point : result.points) {
    const topo::ExperimentStats& s = point.stats;
    v.insert(v.end(), point.coords.begin(), point.coords.end());
    for (const topo::Summary* m : {&s.lambda, &s.dual_bound, &s.utilization,
                                   &s.packet_mean, &s.packet_p05}) {
      v.push_back(m->mean);
      v.push_back(m->stdev);
    }
    v.push_back(s.infeasible_runs);
  }
  return v;
}

// Base for the two workloads that run a spec through SweepRunner::run.
class SweepWorkload : public Workload {
 public:
  explicit SweepWorkload(WorkloadOptions o, std::string dir)
      : o_(std::move(o)), dir_(o_.work_dir + "/" + dir) {}

  JobOutput job() override {
    fresh_dir(cache_dir());
    return timed_run();
  }

  JobOutput rerun() override { return timed_run(); }

 protected:
  [[nodiscard]] std::string cache_dir() const { return dir_ + "/cache"; }

  void configure(topo::scenario::ScenarioSpec spec, bool full, int runs) {
    spec_ = std::move(spec);
    topo::scenario::validate_spec(spec_);
    config_ = {};
    config_.full = full;
    config_.runs = runs;
    config_.epsilon = 0.08;
    config_.master_seed = o_.seed;
    config_.cache_dir = cache_dir();
    plans_ = plan_cells(spec_, config_);
  }

  JobOutput timed_run() {
    JobOutput out;
    const std::int64_t t0 = now_ns();
    const topo::scenario::SweepResult result =
        topo::scenario::SweepRunner(spec_, config_).run();
    out.seconds = seconds_since(t0);
    out.values = sweep_values(result);
    out.operations = static_cast<long long>(plans_.size());
    out.cache_misses = result.cache_misses;
    return out;
  }

  // Loads every cell of the last run from its cache.
  std::vector<ThroughputResult> load_cells(Checks& checks) const {
    const topo::scenario::ResultCache cache(cache_dir());
    std::vector<ThroughputResult> cells(plans_.size());
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      checks.expect(cache.load(plans_[i].key, &cells[i]),
                    "cell " + std::to_string(i) + " missing from the cache");
      checks.expect(cells[i].lambda <= cells[i].dual_bound * (1.0 + 1e-12),
                    "cell " + std::to_string(i) + ": lambda above dual bound");
    }
    return cells;
  }

  // Replays cell i: build, degrade, draw, solve, and (packet specs) the
  // packet simulator. The cell's cache load/store are spanned too.
  ThroughputResult replay_cell(std::size_t i,
                               const topo::scenario::ResultCache& cache,
                               SolveLog* log) const {
    const Scope cell("cell");
    const CellPlan& plan = plans_[i];
    ThroughputResult r;
    if (cache_load(cache, plan.key, &r)) return r;
    const auto* family = topo::scenario::find_family(spec_.topology.family);
    std::shared_ptr<const BuiltTopology> t;
    try {
      t = std::make_shared<const BuiltTopology>(
          build([&] { return family->build(plan.params, plan.topo_seed); }));
    } catch (const topo::ConstructionFailure&) {
      cache_store(cache, plan.key, r);  // an infeasible zero run, as in sweeps
      return r;
    }
    if (plan.options.failure.active()) {
      t = std::make_shared<const BuiltTopology>(
          degrade(*t, plan.options.failure, plan.traffic_seed));
    }
    if (t->servers.total() >= 2) {
      Drawn d = draw_traffic(*t, plan.options, plan.traffic_seed);
      r = solve(t->graph, d.commodities, plan.options.flow);
      if (plan.options.packet_sim.enabled) simulate(*t, d.flows, plan, r);
      if (log != nullptr) log->add(t, std::move(d.commodities), r);
    }
    cache_store(cache, plan.key, r);
    return r;
  }

  WorkloadOptions o_;
  std::string dir_;
  topo::scenario::ScenarioSpec spec_;
  topo::scenario::SweepRunConfig config_;
  std::vector<CellPlan> plans_;

 private:
  static void simulate(const BuiltTopology& t, const topo::TrafficMatrix& tm,
                       const CellPlan& plan, ThroughputResult& r) {
    const topo::sim::SimParams& params = plan.options.packet_sim.params;
    std::unique_ptr<topo::sim::SimNetwork> net;
    {
      const Scope span("sim.setup");
      net = std::make_unique<topo::sim::SimNetwork>(
          t, params, Rng::derive_seed(plan.traffic_seed, kReplaySimSalt));
      for (const topo::ServerFlow& f : tm.flows) {
        net->add_flow(f.src_server, f.dst_server);
      }
    }
    topo::sim::SimulationResult s;
    {
      const Scope span("sim.run");
      s = net->run();
    }
    double retransmits = 0.0;
    for (const auto& f : s.flows) retransmits += static_cast<double>(f.retransmits);
    r.packet_sim_run = true;
    r.packet_mean_normalized = s.mean_normalized;
    count("sim.events", static_cast<double>(s.events_processed));
    count("sim.drops", static_cast<double>(s.total_drops));
    count("sim.retransmits", retransmits);
    count("sim.routes", static_cast<double>(net->route_count()));
    count("sim.pool_packets", static_cast<double>(net->pool_allocated()));
    count("sim.simulated_ns", static_cast<double>(params.duration_ns));
  }
};

// ---------------------------------------------------------------------------

// One cell of examples/specs/packet_vs_flow.json, 8-subflow MPTCP with
// ECMP hashing on rewired VL2, at 8 ToRs (160 servers) instead of the
// spec's 48, with the spec's simulated time. A job then takes about 1 s
// rather than 8 s, so a run takes the median of dozens of jobs rather than
// of a few, and the simulator's working set is a fraction of the 48-ToR
// cell's, which makes it less exposed to cache contention from other
// tenants of a shared host.
class PacketVsFlow final : public SweepWorkload {
 public:
  explicit PacketVsFlow(const WorkloadOptions& o)
      : SweepWorkload(o, "packet_vs_flow") {}

  const char* quality_name() const override { return "packet_mean"; }

  void setup() override {
    topo::scenario::ScenarioSpec spec = topo::scenario::load_spec_file(
        o_.root + "/examples/specs/packet_vs_flow.json");
    spec.axes[0].values = {8};
    if (o_.smoke) {
      spec.packet_sim.params.duration_ns = 4'000'000;
      spec.packet_sim.params.warmup_ns = 2'000'000;
    }
    configure(std::move(spec), /*full=*/false, /*runs=*/1);
  }

  Quality audit(Checks& checks) override {
    const std::vector<ThroughputResult> cells = load_cells(checks);
    checks.ops(static_cast<long long>(plans_.size()));
    Quality q;
    SolveLog log;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      const CellPlan& plan = plans_[i];
      const auto* family = topo::scenario::find_family(spec_.topology.family);
      auto t = std::make_shared<const BuiltTopology>(
          family->build(plan.params, plan.topo_seed));
      EvalOptions fluid = plan.options;
      fluid.packet_sim.enabled = false;
      const ThroughputResult r = fluid_cell(t, fluid, plan.traffic_seed, &log);
      checks.expect(same_bits(r.lambda, cells[i].lambda),
                    "packet cell: fluid lambda replay differs from the cell");
      q.lambda_mean += cells[i].lambda;
      q.gap_mean += cells[i].gap;
      q.quality += cells[i].packet_mean_normalized;
    }
    log.verify(checks, "packet cell");
    const double n = static_cast<double>(plans_.size());
    q.lambda_mean /= n;
    q.gap_mean /= n;
    q.quality /= n;
    return q;
  }

  std::vector<double> replay(Checks& checks, bool against_job) override {
    const std::vector<ThroughputResult> job_cells =
        against_job ? load_cells(checks) : std::vector<ThroughputResult>{};
    const std::string dir = dir_ + "/replay";
    fresh_dir(dir);
    const topo::scenario::ResultCache cache(dir);
    SolveLog log;
    std::vector<double> out;
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
      for (std::size_t i = 0; i < plans_.size(); ++i) {
        const ThroughputResult r = replay_cell(i, cache, &log);
        if (pass == 0 && against_job) {
          checks.expect(same_bits(r.lambda, job_cells[i].lambda),
                        "packet replay: fluid lambda differs from the cell");
        }
        out.insert(out.end(), {r.lambda, r.dual_bound, r.packet_mean_normalized});
      }
    }
    checks.ops(log.verify(checks, "packet replay"));
    checks.notes.push_back(
        "packet replay: the simulator stream is salted privately in "
        "core/evaluate.cc, so replayed packet metrics use the benchmark's own "
        "seed and are not compared with the cell (fluid lambda is)");
    return out;
  }
};

// sweep_two_type_cross_failures at its full values: 30 points x 10 runs.
class SweepGrid final : public SweepWorkload {
 public:
  explicit SweepGrid(const WorkloadOptions& o)
      : SweepWorkload(o, "sweep_grid") {}

  const char* quality_name() const override { return "failure_retention"; }

  void setup() override {
    const auto* spec =
        topo::scenario::find_spec_scenario("sweep_two_type_cross_failures");
    if (spec == nullptr) throw std::runtime_error("two-type sweep not registered");
    configure(*spec, /*full=*/!o_.smoke,
              o_.smoke ? spec->quick_runs : spec->full_runs);
  }

  Quality audit(Checks& checks) override {
    const std::vector<ThroughputResult> cells = load_cells(checks);
    checks.ops(static_cast<long long>(plans_.size()));
    Quality q;
    int feasible = 0;
    for (const ThroughputResult& c : cells) {
      q.lambda_mean += c.lambda;
      if (c.feasible) {
        q.gap_mean += c.gap;
        ++feasible;
      }
    }
    q.lambda_mean /= static_cast<double>(cells.size());
    q.gap_mean /= std::max(1, feasible);

    // Throughput kept at the highest failure rate, relative to none.
    double lo_sum = 0.0, hi_sum = 0.0, hi_rate = 0.0;
    for (const CellPlan& p : plans_) {
      hi_rate = std::max(hi_rate, p.options.failure.uniform.link_fraction);
    }
    SolveLog log;
    std::vector<std::size_t> pristine;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      const double rate = plans_[i].options.failure.uniform.link_fraction;
      if (rate == 0.0) lo_sum += cells[i].lambda;
      if (rate == hi_rate) hi_sum += cells[i].lambda;
      if (rate == 0.0 && i % static_cast<std::size_t>(config_.runs) == 0) {
        pristine.push_back(i);
      }
    }
    q.quality = lo_sum > 0.0 ? hi_sum / lo_sum : 0.0;

    // Re-solve run 0 of every failure-free point outside the sweep engine.
    std::vector<ThroughputResult> again(pristine.size());
    topo::parallel_for(static_cast<int>(pristine.size()), [&](int k) {
      const CellPlan& plan = plans_[pristine[static_cast<std::size_t>(k)]];
      const auto* family = topo::scenario::find_family(spec_.topology.family);
      again[static_cast<std::size_t>(k)] = fluid_cell(
          std::make_shared<const BuiltTopology>(
              family->build(plan.params, plan.topo_seed)),
          plan.options, plan.traffic_seed, &log);
    });
    for (std::size_t k = 0; k < pristine.size(); ++k) {
      checks.expect(same_bits(again[k].lambda, cells[pristine[k]].lambda),
                    "sweep cell " + std::to_string(pristine[k]) +
                        ": re-solved lambda differs from the cached cell");
    }
    log.verify(checks, "sweep audit");
    return q;
  }

  std::vector<double> replay(Checks& checks, bool against_job) override {
    const std::vector<ThroughputResult> job_cells =
        against_job ? load_cells(checks) : std::vector<ThroughputResult>{};
    const std::string dir = dir_ + "/replay";
    fresh_dir(dir);
    const topo::scenario::ResultCache cache(dir);
    SolveLog log;
    const int n = static_cast<int>(plans_.size());
    std::vector<ThroughputResult> cold(plans_.size()), warm(plans_.size());
    topo::parallel_for(n, [&](int i) {
      cold[static_cast<std::size_t>(i)] =
          replay_cell(static_cast<std::size_t>(i), cache, &log);
    });
    topo::parallel_for(n, [&](int i) {
      warm[static_cast<std::size_t>(i)] =
          replay_cell(static_cast<std::size_t>(i), cache, nullptr);
    });
    std::vector<double> out;
    int uncompared = 0;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      checks.expect(same_bits(warm[i].lambda, cold[i].lambda),
                    "sweep replay: warm cell differs from cold");
      if (plans_[i].options.failure.active()) {
        ++uncompared;
      } else if (against_job) {
        checks.expect(same_bits(cold[i].lambda, job_cells[i].lambda),
                      "sweep replay: lambda of cell " + std::to_string(i) +
                          " differs from the job's");
      }
      out.insert(out.end(), {cold[i].lambda, cold[i].dual_bound});
    }
    checks.ops(log.verify(checks, "sweep replay"));
    checks.notes.push_back(
        "sweep replay: " + std::to_string(uncompared) +
        " cells with link failures draw their failed sets from the "
        "benchmark's own seed (the library salts the draw privately in "
        "core/evaluate.cc); only failure-free cells are compared number for "
        "number");
    return out;
  }
};

// ---------------------------------------------------------------------------

// run_search on a 32-switch degree-8 RRG with the approximate solver.
class SearchApprox final : public Workload {
 public:
  explicit SearchApprox(WorkloadOptions o)
      : o_(std::move(o)), dir_(o_.work_dir + "/search_approx") {}

  const char* quality_name() const override { return "best_objective"; }

  void setup() override {
    spec_ = topo::scenario::load_spec_file(o_.root +
                                           "/perfbench/search_approx.json");
    if (o_.smoke) {
      spec_.search.restarts = 1;
      spec_.search.budget = 2;
      spec_.search.population = 2;
    }
    topo::scenario::validate_spec(spec_);
    options_ = {};
    options_.runs = o_.smoke ? 1 : 3;
    options_.epsilon = 0.08;
    options_.master_seed = o_.seed;
    options_.cache_dir = dir_ + "/cache";
    eval_ = {};
    eval_.flow.epsilon = options_.epsilon;
    eval_.flow.mode = spec_.solver;
    eval_.traffic = spec_.traffic;
    eval_.chunky_fraction = spec_.chunky_fraction;
    eval_.hot_fraction = spec_.hot_fraction;
    eval_.hot_multiplier = spec_.hot_multiplier;
    eval_.stride = spec_.stride;
    eval_.failure = spec_.failure;
    eval_.packet_sim = spec_.packet_sim;
    traffic_seeds_.clear();
    for (int k = 0; k < options_.runs; ++k) {
      traffic_seeds_.push_back(Rng::derive_seed(
          o_.seed, topo::search::kSearchTrafficSalt + static_cast<std::uint64_t>(k)));
    }
  }

  JobOutput job() override {
    fresh_dir(options_.cache_dir);
    return timed_run();
  }

  JobOutput rerun() override { return timed_run(); }

  Quality audit(Checks& checks) override {
    Quality q;
    const topo::scenario::ResultCache cache(options_.cache_dir);
    std::map<std::string, bool> seen;
    int loaded = 0;
    for (const topo::search::SearchStepRecord& r : last_.trace) {
      q.lambda_mean += r.lambda;
      if (!seen.emplace(r.candidate, true).second) continue;
      for (std::uint64_t seed : traffic_seeds_) {
        ThroughputResult cell;
        checks.expect(cache.load(key(r.candidate, seed), &cell),
                      "search cell of candidate " + r.candidate + " missing");
        checks.expect(cell.lambda <= cell.dual_bound * (1.0 + 1e-12),
                      "search cell: lambda above its dual bound");
        q.gap_mean += cell.gap;
        ++loaded;
      }
    }
    q.lambda_mean /= static_cast<double>(last_.trace.size());
    q.gap_mean /= std::max(1, loaded);
    q.quality = last_.best.objective;
    checks.ops(static_cast<long long>(last_.trace.size()));

    // The best design, re-solved outside run_search.
    SolveLog log;
    const auto best =
        std::make_shared<const BuiltTopology>(last_.best_topology);
    double sum = 0.0;
    for (std::uint64_t seed : traffic_seeds_) {
      sum += fluid_cell(best, eval_, seed, &log).lambda;
    }
    checks.expect(same_bits(sum / options_.runs, last_.best.lambda),
                  "search: re-solved best design's lambda differs");
    log.verify(checks, "search audit");
    return q;
  }

  // The hill climb of search/driver.cc, candidate by candidate.
  std::vector<double> replay(Checks& checks, bool against_job) override {
    const std::string dir = dir_ + "/replay";
    fresh_dir(dir);
    const topo::scenario::ResultCache cache(dir);
    std::vector<topo::search::MoveKind> moves;
    for (const std::string& m : spec_.search.moves) {
      moves.push_back(topo::search::move_from_name(m));
    }
    const topo::search::SearchSpace space(spec_.topology, moves);
    const topo::search::CostModel model(topo::search::CostWeights{
        spec_.search.port_cost, spec_.search.cable_cost,
        spec_.search.switch_cost, spec_.search.class_cost,
        spec_.search.floor_columns});
    std::map<std::uint64_t, ThroughputResult> memo;
    SolveLog log;
    std::vector<double> trace;  // cost, lambda, objective, accepted

    const int runs = options_.runs;
    const auto evaluate = [&](const std::vector<const BuiltTopology*>& batch) {
      const int n = static_cast<int>(batch.size());
      std::vector<std::string> hashes(batch.size());
      std::vector<double> costs(batch.size());
      topo::parallel_for(n, [&](int c) {
        const std::size_t i = static_cast<std::size_t>(c);
        {
          const Scope span("search.hash");
          hashes[i] = topo::search::candidate_hash_hex(*batch[i]);
        }
        const Scope span("search.cost");
        costs[i] = model.cost(*batch[i]);
      });
      const int num_cells = n * runs;
      std::vector<ThroughputResult> cells(static_cast<std::size_t>(num_cells));
      std::vector<char> have(cells.size(), 0);
      std::vector<std::uint64_t> keys(cells.size());
      for (int i = 0; i < num_cells; ++i) {
        const std::size_t s = static_cast<std::size_t>(i);
        keys[s] = key(hashes[static_cast<std::size_t>(i / runs)],
                      traffic_seeds_[static_cast<std::size_t>(i % runs)]);
        count("search.lookups", 1);
        if (const auto it = memo.find(keys[s]); it != memo.end()) {
          cells[s] = it->second;
          have[s] = 1;
          count("search.memo_hits", 1);
        }
      }
      topo::parallel_for(num_cells, [&](int i) {
        const std::size_t s = static_cast<std::size_t>(i);
        if (have[s]) return;
        const Scope cell("cell");
        if (cache_load(cache, keys[s], &cells[s])) return;
        auto t = std::make_shared<const BuiltTopology>(
            *batch[static_cast<std::size_t>(i / runs)]);
        cells[s] = fluid_cell(std::move(t), eval_,
                              traffic_seeds_[static_cast<std::size_t>(i % runs)],
                              &log);
        cache_store(cache, keys[s], cells[s]);
      });
      std::vector<std::pair<double, double>> out;  // (cost, lambda)
      for (int c = 0; c < n; ++c) {
        double sum = 0.0;
        for (int r = 0; r < runs; ++r) {
          const std::size_t s = static_cast<std::size_t>(c * runs + r);
          sum += cells[s].lambda;
          memo.emplace(keys[s], cells[s]);
        }
        out.emplace_back(costs[static_cast<std::size_t>(c)], sum / runs);
      }
      count("search.candidates", n);
      return out;
    };
    const auto objective = [&](const std::pair<double, double>& e) {
      return spec_.search.objective == "throughput_per_cost" ? e.second / e.first
                                                             : e.second;
    };
    const auto record = [&](const std::pair<double, double>& e, bool accepted) {
      trace.insert(trace.end(), {e.first, e.second, objective(e),
                                 accepted ? 1.0 : 0.0});
    };

    const std::uint64_t move_base =
        Rng::derive_seed(o_.seed, topo::search::kSearchMoveSalt);
    for (int restart = 0; restart < spec_.search.restarts; ++restart) {
      BuiltTopology current = build([&] {
        return space.initial(Rng::derive_seed(
            o_.seed,
            topo::search::kSearchTopoSalt + static_cast<std::uint64_t>(restart)));
      });
      auto current_eval = evaluate({&current})[0];
      record(current_eval, true);
      for (int step = 1; step <= spec_.search.budget; ++step) {
        Rng move_rng(Rng::derive_seed(
            move_base, static_cast<std::uint64_t>(restart) * 1000003ULL +
                           static_cast<std::uint64_t>(step)));
        std::vector<BuiltTopology> neighbors;
        for (int p = 0; p < spec_.search.population; ++p) {
          const Scope span("search.mutate");
          neighbors.push_back(space.mutate(current, move_rng));
        }
        std::vector<const BuiltTopology*> batch;
        for (const BuiltTopology& nb : neighbors) batch.push_back(&nb);
        const auto outcomes = evaluate(batch);
        std::size_t best = 0;
        for (std::size_t p = 1; p < outcomes.size(); ++p) {
          if (objective(outcomes[p]) > objective(outcomes[best])) best = p;
        }
        const double temperature =
            spec_.search.temperature * std::pow(0.95, step - 1);
        bool accept = objective(outcomes[best]) > objective(current_eval);
        if (!accept && temperature > 0.0) {
          accept = move_rng.uniform() <
                   std::exp((objective(outcomes[best]) - objective(current_eval)) /
                            temperature);
        }
        for (std::size_t p = 0; p < outcomes.size(); ++p) {
          record(outcomes[p], accept && p == best);
        }
        count("search.steps", 1);
        count("search.accepted", accept ? 1 : 0);
        if (accept) {
          current = std::move(neighbors[best]);
          current_eval = outcomes[best];
        }
      }
    }

    std::vector<double> job_trace;
    for (const topo::search::SearchStepRecord& r : last_.trace) {
      job_trace.insert(job_trace.end(), {r.cost, r.lambda, r.objective,
                                         r.accepted ? 1.0 : 0.0});
    }
    checks.expect(!against_job || same_bits(trace, job_trace),
                  "search replay: trajectory differs from run_search's");
    checks.ops(log.verify(checks, "search replay"));
    return trace;
  }

 private:
  std::uint64_t key(const std::string& candidate, std::uint64_t seed) const {
    topo::scenario::CellIdentity cell;
    cell.family = spec_.topology.family;
    cell.options = eval_;
    cell.traffic_seed = seed;
    cell.candidate = candidate;
    return topo::scenario::cell_key(cell);
  }

  JobOutput timed_run() {
    JobOutput out;
    const std::int64_t t0 = now_ns();
    last_ = topo::search::run_search(spec_, options_);
    out.seconds = seconds_since(t0);
    for (const topo::search::SearchStepRecord& r : last_.trace) {
      out.values.insert(out.values.end(), {r.cost, r.lambda, r.objective,
                                           r.accepted ? 1.0 : 0.0});
    }
    out.values.push_back(last_.best.objective);
    out.operations = static_cast<long long>(last_.trace.size());
    out.cache_misses = last_.cache_misses;
    return out;
  }

  WorkloadOptions o_;
  std::string dir_;
  topo::scenario::ScenarioSpec spec_;
  topo::search::SearchDriverOptions options_;
  EvalOptions eval_;
  std::vector<std::uint64_t> traffic_seeds_;
  topo::search::SearchResult last_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"packet_vs_flow", "sweep_grid",
                                              "search_approx"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "packet_vs_flow") return std::make_unique<PacketVsFlow>(options);
  if (name == "sweep_grid") return std::make_unique<SweepGrid>(options);
  if (name == "search_approx") return std::make_unique<SearchApprox>(options);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
