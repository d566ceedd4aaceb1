// Topology-search tests: cost-model hand checks, degree-preserving move
// invariants, canonical candidate identity, trajectory determinism (same
// seed -> byte-identical trace JSON; warm cache re-run -> zero misses;
// sharded runs -> the unsharded trajectory), stripe partitioning, the
// incast workload generator, bisection memoization, and the search spec's
// round-trip byte-stability and validation error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "scenario/cache.h"
#include "scenario/spec_io.h"
#include "scenario/sweep.h"
#include "search/cost_model.h"
#include "search/driver.h"
#include "search/search_space.h"
#include "topo/random_regular.h"
#include "traffic/workload.h"
#include "util/error.h"
#include "util/rng.h"

namespace topo::search {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/topobench_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

scenario::ScenarioSpec tiny_search_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "search_test_tiny";
  spec.description = "tiny RRG search";
  spec.topology = {"random_regular", {{"n", 10}, {"ports", 5}, {"degree", 3}}};
  spec.search.enabled = true;
  spec.search.budget = 2;
  spec.search.restarts = 1;
  spec.search.population = 2;
  return spec;
}

SearchDriverOptions tiny_options() {
  SearchDriverOptions options;
  options.runs = 1;
  options.epsilon = 0.1;
  options.master_seed = 11;
  return options;
}

TEST(CostModel, HandCheckedBreakdown) {
  // Two adjacent grid slots, one unit-capacity link, 1 + 2 servers.
  BuiltTopology t;
  t.graph = Graph(2);
  t.graph.add_edge(0, 1);
  t.servers.per_switch = {1, 2};

  CostWeights weights;
  weights.port_cost = 1.0;
  weights.cable_cost = 0.1;
  weights.switch_cost = 2.0;
  const CostModel model(weights);
  const CostBreakdown breakdown = model.breakdown(t);

  EXPECT_EQ(breakdown.network_ports, 2);
  EXPECT_EQ(breakdown.server_ports, 3);
  EXPECT_DOUBLE_EQ(breakdown.port_total, 5.0);
  EXPECT_DOUBLE_EQ(breakdown.cable_length, 1.0);
  EXPECT_DOUBLE_EQ(breakdown.cable_total, 0.1);
  ASSERT_EQ(breakdown.switches_by_class.size(), 1u);
  EXPECT_EQ(breakdown.switches_by_class.at("switch"), 2);
  EXPECT_DOUBLE_EQ(breakdown.switch_total, 4.0);
  EXPECT_DOUBLE_EQ(breakdown.total, 9.1);
  EXPECT_DOUBLE_EQ(model.cost(t), breakdown.total);
}

TEST(CostModel, ClassPremiumsApplyPerClass) {
  BuiltTopology t;
  t.graph = Graph(3);
  t.servers.per_switch = {0, 0, 0};
  t.node_class = {0, 0, 1};
  t.class_names = {"small", "large"};

  CostWeights weights;
  weights.port_cost = 0.0;
  weights.cable_cost = 0.0;
  weights.switch_cost = 1.0;
  weights.class_cost = {{"large", 9.0}};
  const CostBreakdown breakdown = CostModel(weights).breakdown(t);
  EXPECT_EQ(breakdown.switches_by_class.at("small"), 2);
  EXPECT_EQ(breakdown.switches_by_class.at("large"), 1);
  // 3 chassis at base 1 plus one "large" premium of 9.
  EXPECT_DOUBLE_EQ(breakdown.switch_total, 12.0);
}

TEST(CostModel, RejectsNegativeWeights) {
  CostWeights weights;
  weights.port_cost = -1.0;
  EXPECT_THROW(CostModel{weights}, InvalidArgument);
}

TEST(SearchSpace, RewirePreservesDegreeSequenceAndServers) {
  const scenario::ScenarioSpec spec = tiny_search_spec();
  const SearchSpace space(spec.topology, {MoveKind::kRewire});
  BuiltTopology current = space.initial(5);
  const auto degree_sequence = [](const BuiltTopology& t) {
    std::vector<int> degree(static_cast<std::size_t>(t.graph.num_nodes()), 0);
    for (EdgeId e = 0; e < t.graph.num_edges(); ++e) {
      ++degree[static_cast<std::size_t>(t.graph.edge(e).u)];
      ++degree[static_cast<std::size_t>(t.graph.edge(e).v)];
    }
    return degree;  // Per-node, so even stronger than the sorted multiset.
  };
  const std::vector<int> baseline_degrees = degree_sequence(current);
  const std::vector<int> baseline_servers = current.servers.per_switch;
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    current = space.mutate(current, rng);
    EXPECT_EQ(degree_sequence(current), baseline_degrees);
    EXPECT_EQ(current.servers.per_switch, baseline_servers);
  }
}

TEST(SearchSpace, CanonicalIdentityIsPathIndependent) {
  BuiltTopology a;
  a.graph = Graph(3);
  a.graph.add_edge(0, 1);
  a.graph.add_edge(1, 2);
  a.servers.per_switch = {1, 1, 1};
  BuiltTopology b;
  b.graph = Graph(3);
  b.graph.add_edge(2, 1);  // Reversed endpoints, different insertion order.
  b.graph.add_edge(1, 0);
  b.servers.per_switch = {1, 1, 1};
  EXPECT_EQ(canonical_topology(a), canonical_topology(b));
  EXPECT_EQ(candidate_hash_hex(a), candidate_hash_hex(b));

  b.graph.add_edge(0, 2);
  EXPECT_NE(candidate_hash_hex(a), candidate_hash_hex(b));
}

TEST(SearchSpace, SameSeedSameInitialDesign) {
  const scenario::ScenarioSpec spec = tiny_search_spec();
  const SearchSpace space(spec.topology, {MoveKind::kRewire});
  EXPECT_EQ(canonical_topology(space.initial(7)),
            canonical_topology(space.initial(7)));
  EXPECT_NE(canonical_topology(space.initial(7)),
            canonical_topology(space.initial(8)));
}

TEST(SearchSpace, MoveNamesRoundTrip) {
  EXPECT_EQ(move_from_name("rewire"), MoveKind::kRewire);
  EXPECT_EQ(move_from_name("server_shift"), MoveKind::kServerShift);
  EXPECT_STREQ(move_name(MoveKind::kRewire), "rewire");
  EXPECT_STREQ(move_name(MoveKind::kServerShift), "server_shift");
  EXPECT_THROW(move_from_name("teleport"), InvalidArgument);
}

TEST(SearchDriver, TraceIsByteIdenticalAndBestBeatsBaseline) {
  const scenario::ScenarioSpec spec = tiny_search_spec();
  const SearchDriverOptions options = tiny_options();
  const SearchResult first = run_search(spec, options);
  const SearchResult second = run_search(spec, options);
  EXPECT_EQ(search_trace_json(spec, options, first),
            search_trace_json(spec, options, second));
  // The baseline is itself an evaluated candidate, so the search can never
  // report a best below it.
  EXPECT_GE(first.best.objective, first.baseline.objective);
  EXPECT_EQ(first.baseline.restart, 0);
  EXPECT_EQ(first.baseline.step, 0);
  // 1 restart: initial + budget * population evaluations.
  EXPECT_EQ(static_cast<int>(first.trace.size()),
            1 + spec.search.budget * spec.search.population);
}

TEST(SearchDriver, WarmRerunHasZeroMisses) {
  const scenario::ScenarioSpec spec = tiny_search_spec();
  SearchDriverOptions options = tiny_options();
  options.cache_dir = fresh_dir("search_warm");

  const SearchResult cold = run_search(spec, options);
  EXPECT_GT(cold.cache_misses, 0);
  const SearchResult warm = run_search(spec, options);
  EXPECT_EQ(warm.cache_misses, 0);
  // Every lookup the cold run resolved (either way) is a warm hit.
  EXPECT_EQ(warm.cache_hits, cold.cache_hits + cold.cache_misses);
  EXPECT_EQ(search_trace_json(spec, options, cold),
            search_trace_json(spec, options, warm));
  std::filesystem::remove_all(options.cache_dir);
}

// Server shifts on K4 with 8 servers have only 12 distinct outcomes, so a
// population of 8 draws some fresh neighbor twice. Each distinct cell must
// be solved once (the copy counts as a memo hit), with or without a cache,
// so the accounting cannot depend on which copy reaches the cache first.
TEST(SearchDriver, DuplicateCandidatesInABatchAreSolvedOnce) {
  scenario::ScenarioSpec spec = tiny_search_spec();
  spec.topology = {"random_regular", {{"n", 4}, {"ports", 5}, {"degree", 3}}};
  spec.search.budget = 1;
  spec.search.population = 8;
  spec.search.moves = {"server_shift"};
  SearchDriverOptions options = tiny_options();

  const SearchResult uncached = run_search(spec, options);
  std::map<std::string, int> copies;
  for (const SearchStepRecord& record : uncached.trace) {
    ++copies[record.candidate];
  }
  const std::string initial = uncached.trace.front().candidate;
  const bool fresh_duplicate = std::any_of(
      copies.begin(), copies.end(), [&](const auto& entry) {
        return entry.first != initial && entry.second > 1;
      });
  ASSERT_TRUE(fresh_duplicate) << "the batch holds no repeated neighbor";
  const int distinct = static_cast<int>(copies.size());
  EXPECT_EQ(uncached.cache_misses, distinct);
  EXPECT_EQ(uncached.cache_hits,
            static_cast<int>(uncached.trace.size()) - distinct);

  for (int run = 0; run < 2; ++run) {
    options.cache_dir = fresh_dir("search_duplicates");
    const SearchResult cold = run_search(spec, options);
    EXPECT_EQ(cold.cache_misses, uncached.cache_misses);
    EXPECT_EQ(cold.cache_hits, uncached.cache_hits);
    std::filesystem::remove_all(options.cache_dir);
  }
}

TEST(SearchDriver, ShardedRunsWalkTheIdenticalTrajectory) {
  const scenario::ScenarioSpec spec = tiny_search_spec();
  SearchDriverOptions options = tiny_options();
  const SearchResult reference = run_search(spec, options);
  const std::string reference_json =
      search_trace_json(spec, tiny_options(), reference);

  options.cache_dir = fresh_dir("search_shards");
  options.shard_count = 2;
  for (const scenario::StripeMode stripe :
       {scenario::StripeMode::kRoundRobin, scenario::StripeMode::kRange}) {
    options.stripe = stripe;
    for (int shard = 0; shard < 2; ++shard) {
      options.shard_index = shard;
      const SearchResult sharded = run_search(spec, options);
      // The trace JSON takes the UNSHARDED options on purpose: the
      // artifact must not vary with who computed which cell.
      EXPECT_EQ(search_trace_json(spec, tiny_options(), sharded),
                reference_json);
    }
  }
  std::filesystem::remove_all(options.cache_dir);
}

TEST(SearchDriver, ShardingRequiresCacheDir) {
  const scenario::ScenarioSpec spec = tiny_search_spec();
  SearchDriverOptions options = tiny_options();
  options.shard_count = 2;
  EXPECT_THROW((void)run_search(spec, options), InvalidArgument);
}

TEST(StripeModes, BothPartitionsCoverEveryCellExactlyOnce) {
  for (const int cells : {1, 5, 12, 17}) {
    for (const int shards : {1, 2, 3, 5}) {
      for (int i = 0; i < cells; ++i) {
        int round_robin_owners = 0;
        int range_owners = 0;
        for (int shard = 0; shard < shards; ++shard) {
          round_robin_owners += scenario::cell_in_shard(i, shard, shards);
          range_owners += scenario::range_in_shard(i, cells, shard, shards);
        }
        EXPECT_EQ(round_robin_owners, 1) << cells << "/" << shards << "#" << i;
        EXPECT_EQ(range_owners, 1) << cells << "/" << shards << "#" << i;
      }
    }
  }
}

TEST(IncastWorkload, BurstsShareVictimAndInstant) {
  ServerMap servers;
  servers.per_switch = {2, 2, 2, 2};
  const FlowSizeCdf& cdf = flow_size_cdfs().front();
  const int fan_in = 4;
  Rng rng(42);
  const std::vector<FiniteFlow> flows = incast_flow_arrivals(
      servers, cdf, 0.5, 1.0, fan_in, 50'000'000ULL, rng);
  ASSERT_GT(flows.size(), 0u);
  ASSERT_EQ(flows.size() % static_cast<std::size_t>(fan_in), 0u);
  for (std::size_t burst = 0; burst < flows.size();
       burst += static_cast<std::size_t>(fan_in)) {
    std::set<int> sources;
    for (int i = 0; i < fan_in; ++i) {
      const FiniteFlow& flow = flows[burst + static_cast<std::size_t>(i)];
      EXPECT_EQ(flow.dst_server, flows[burst].dst_server);
      EXPECT_EQ(flow.start_ns, flows[burst].start_ns);
      EXPECT_NE(flow.src_server, flow.dst_server);
      EXPECT_GT(flow.size_bytes, 0.0);
      sources.insert(flow.src_server);
    }
    EXPECT_EQ(static_cast<int>(sources.size()), fan_in);
  }
}

TEST(IncastWorkload, SeededStreamsReproduce) {
  ServerMap servers;
  servers.per_switch = {3, 3, 3};
  const FlowSizeCdf& cdf = flow_size_cdfs().front();
  Rng rng_a(7);
  Rng rng_b(7);
  const auto a =
      incast_flow_arrivals(servers, cdf, 0.4, 1.0, 3, 20'000'000ULL, rng_a);
  const auto b =
      incast_flow_arrivals(servers, cdf, 0.4, 1.0, 3, 20'000'000ULL, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_server, b[i].src_server);
    EXPECT_EQ(a[i].dst_server, b[i].dst_server);
    EXPECT_EQ(a[i].start_ns, b[i].start_ns);
    EXPECT_DOUBLE_EQ(a[i].size_bytes, b[i].size_bytes);
  }
}

// Per-(tors, seed) build counts. Builders run concurrently on pool
// threads, so every update holds the mutex.
struct BuildTally {
  std::mutex mutex;
  std::map<std::pair<int, std::uint64_t>, int> counts;
};

FullThroughputSearch counting_search(BuildTally* builds) {
  FullThroughputSearch search;
  search.builder = [builds](int tors, std::uint64_t seed) {
    {
      const std::lock_guard<std::mutex> lock(builds->mutex);
      ++builds->counts[{tors, seed}];
    }
    return random_regular_topology(10, 5, 3, seed + static_cast<std::uint64_t>(tors));
  };
  search.min_tors = 2;
  search.max_tors = 6;
  search.threshold = 0.1;  // The tiny RRG always clears this.
  search.runs = 2;
  search.options.flow.epsilon = 0.1;
  return search;
}

TEST(BisectionMemo, EachTorsSeedPairBuildsAtMostOnce) {
  BuildTally builds;
  const FullThroughputSearch search = counting_search(&builds);
  EXPECT_EQ(max_tors_at_full_throughput(search, 17), 6);
  ASSERT_FALSE(builds.counts.empty());
  for (const auto& [key, count] : builds.counts) {
    EXPECT_EQ(count, 1) << "tors " << key.first << " seed " << key.second;
  }
}

TEST(BisectionMemo, CachedProbesSkipRevaluationAcrossInvocations) {
  BuildTally builds;
  const FullThroughputSearch search = counting_search(&builds);
  const std::string dir = fresh_dir("search_bisect");
  const scenario::ResultCache cache(dir);
  const int first =
      max_tors_at_full_throughput_cached(search, 17, "bisect-test", &cache);
  EXPECT_EQ(first, 6);
  EXPECT_FALSE(builds.counts.empty());

  builds.counts.clear();
  const int second =
      max_tors_at_full_throughput_cached(search, 17, "bisect-test", &cache);
  EXPECT_EQ(second, first);
  EXPECT_TRUE(builds.counts.empty()) << "warm bisection re-evaluated a probe";
  std::filesystem::remove_all(dir);
}

TEST(SearchSpecIo, RoundTripIsByteStableAndCoversSearchBlock) {
  scenario::ScenarioSpec spec = tiny_search_spec();
  spec.search.temperature = 0.5;
  spec.search.moves = {"rewire", "server_shift"};
  spec.search.class_cost = {{"large", 3.0}, {"small", 1.0}};
  const std::string json = scenario::spec_to_json(spec);
  EXPECT_NE(json.find("\"search\""), std::string::npos);
  const scenario::ScenarioSpec reparsed = scenario::spec_from_json(json);
  EXPECT_TRUE(reparsed.search.enabled);
  EXPECT_EQ(reparsed.search.moves, spec.search.moves);
  EXPECT_EQ(scenario::spec_to_json(reparsed), json);
}

TEST(SearchSpecIo, LegacySpecsSerializeWithoutSearchKey) {
  scenario::ScenarioSpec spec = tiny_search_spec();
  spec.search = scenario::SearchSpec{};
  spec.axes = {{"link_failure_fraction", {0.0, 0.2}, {}}};
  EXPECT_EQ(scenario::spec_to_json(spec).find("\"search\""),
            std::string::npos);
}

TEST(SearchSpecIo, ValidationRejectsBadSearchConfigs) {
  {
    scenario::ScenarioSpec spec = tiny_search_spec();
    spec.axes = {{"link_failure_fraction", {0.0, 0.2}, {}}};
    EXPECT_THROW(scenario::validate_spec(spec), InvalidArgument);
  }
  {
    scenario::ScenarioSpec spec = tiny_search_spec();
    spec.search.objective = "prettiness";
    EXPECT_THROW(scenario::validate_spec(spec), InvalidArgument);
  }
  {
    scenario::ScenarioSpec spec = tiny_search_spec();
    spec.search.moves = {"teleport"};
    EXPECT_THROW(scenario::validate_spec(spec), InvalidArgument);
  }
  {
    scenario::ScenarioSpec spec = tiny_search_spec();
    spec.search.moves.clear();
    EXPECT_THROW(scenario::validate_spec(spec), InvalidArgument);
  }
  {
    scenario::ScenarioSpec spec = tiny_search_spec();
    spec.search.port_cost = -0.5;
    EXPECT_THROW(scenario::validate_spec(spec), InvalidArgument);
  }
}

TEST(SearchSpecIo, ValidationRejectsBadIncastConfigs) {
  scenario::ScenarioSpec spec = tiny_search_spec();
  spec.search = scenario::SearchSpec{};
  spec.packet_sim.enabled = true;
  spec.packet_sim.fct.enabled = true;
  spec.packet_sim.fct.pattern = "broadcast";
  EXPECT_THROW(scenario::validate_spec(spec), InvalidArgument);
  spec.packet_sim.fct.pattern = "incast";
  spec.packet_sim.fct.fan_in = 1;
  EXPECT_THROW(scenario::validate_spec(spec), InvalidArgument);
  spec.packet_sim.fct.fan_in = 4;
  scenario::validate_spec(spec);  // Now well-formed.
}

}  // namespace
}  // namespace topo::search
