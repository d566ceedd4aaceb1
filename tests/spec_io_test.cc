// Spec-file front end tests.
//
// Round-trip property: for every registered spec-backed scenario,
// dump -> parse -> dump is byte-identical, and a parsed spec reproduces
// the checked-in golden table at the golden harness's 1e-9 tolerance.
// Error paths: unknown keys, misspelled axis names, wrong types, and
// out-of-range values each fail with a message naming the offending key
// — the file-front-end extension of the PR-2 "fail loudly" contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/cache.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "scenario/sweep.h"
#include "util/error.h"
#include "util/json.h"

#ifndef TOPOBENCH_GOLDEN_DIR
#error "build must define TOPOBENCH_GOLDEN_DIR"
#endif
#ifndef TOPOBENCH_EXAMPLE_SPEC_DIR
#error "build must define TOPOBENCH_EXAMPLE_SPEC_DIR"
#endif

namespace topo::scenario {
namespace {

// A minimal valid spec document the error-path tests mutate.
const char* kTinySpec = R"({
  "name": "tiny",
  "topology": {"family": "random_regular",
               "params": {"n": 12, "ports": 6, "degree": 4}},
  "axes": [{"param": "link_failure_fraction", "values": [0, 0.25]}]
})";

// Asserts that parsing fails and that the message names `needle`.
void expect_spec_error(const std::string& json, const std::string& needle) {
  try {
    (void)spec_from_json(json);
    FAIL() << "expected InvalidArgument for: " << json;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" does not name \"" << needle
        << "\"";
  }
}

TEST(SpecRoundTrip, EveryRegisteredSpecScenarioIsByteStable) {
  register_builtin_scenarios();
  const auto specs = list_spec_scenarios();
  ASSERT_GE(specs.size(), 7u);
  for (const ScenarioSpec* spec : specs) {
    SCOPED_TRACE(spec->name);
    const std::string once = spec_to_json(*spec);
    const ScenarioSpec parsed = spec_from_json(once);
    EXPECT_EQ(spec_to_json(parsed), once);
  }
}

TEST(SpecRoundTrip, TinySpecParsesWithDefaults) {
  const ScenarioSpec spec = spec_from_json(kTinySpec);
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.topology.family, "random_regular");
  EXPECT_EQ(spec.topology.params.at("degree"), 4.0);
  EXPECT_EQ(spec.traffic, TrafficKind::kPermutation);
  EXPECT_EQ(spec.chunky_fraction, 1.0);
  EXPECT_FALSE(spec.failure.active());
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_TRUE(spec.axes[0].full_values.empty());
  EXPECT_EQ(spec.quick_runs, 3);
  EXPECT_EQ(spec.full_runs, 20);
  EXPECT_FALSE(spec.reuse_topology);
  // Defaults re-serialize canonically too.
  EXPECT_EQ(spec_to_json(spec), spec_to_json(spec_from_json(
                                    spec_to_json(spec))));
}

TEST(SpecRoundTrip, LoadSpecFileRoundTripsAndNamesMissingPath) {
  register_builtin_scenarios();
  const ScenarioSpec* registered = find_spec_scenario("sweep_vl2_chunky");
  ASSERT_NE(registered, nullptr);
  const std::string path =
      ::testing::TempDir() + "/spec_io_test_roundtrip.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out);
    out << spec_to_json(*registered);
  }
  const ScenarioSpec loaded = load_spec_file(path);
  EXPECT_EQ(spec_to_json(loaded), spec_to_json(*registered));
  std::remove(path.c_str());

  try {
    (void)load_spec_file("/no/such/spec_file.json");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/spec_file.json"),
              std::string::npos);
  }
}

// The acceptance criterion: a spec parsed back from --dump-spec output
// reproduces the builtin scenario's golden table at the golden harness's
// tolerance (1e-9, scale-relative), via the same ScenarioRun pipeline.
TEST(SpecRoundTrip, ParsedSpecReproducesGoldenTable) {
  register_builtin_scenarios();
  const ScenarioSpec* registered =
      find_spec_scenario("sweep_rrg_link_failures");
  ASSERT_NE(registered, nullptr);
  const ScenarioSpec parsed = spec_from_json(spec_to_json(*registered));

  ScenarioOptions options;  // golden mode: smoke, 1 run, seed 1, eps 0.08
  options.runs = 1;
  std::ostringstream sink;
  ScenarioRun run(options, sink);
  run_spec_scenario(parsed, run);
  std::ostringstream actual_stream;
  write_scenario_json(actual_stream, parsed.name, options, run.tables());

  std::ifstream in(std::string(TOPOBENCH_GOLDEN_DIR) +
                   "/sweep_rrg_link_failures.json");
  ASSERT_TRUE(in) << "missing golden file";
  std::stringstream golden_buffer;
  golden_buffer << in.rdbuf();

  const JsonValue expected = parse_json(golden_buffer.str());
  const JsonValue actual = parse_json(actual_stream.str());
  const JsonValue& etables = expected.at("tables");
  const JsonValue& atables = actual.at("tables");
  ASSERT_EQ(etables.items.size(), atables.items.size());
  for (std::size_t t = 0; t < etables.items.size(); ++t) {
    const JsonValue& erows = etables.items[t].at("rows");
    const JsonValue& arows = atables.items[t].at("rows");
    ASSERT_EQ(erows.items.size(), arows.items.size());
    for (std::size_t r = 0; r < erows.items.size(); ++r) {
      ASSERT_EQ(erows.items[r].items.size(), arows.items[r].items.size());
      for (std::size_t c = 0; c < erows.items[r].items.size(); ++c) {
        const JsonValue& ecell = erows.items[r].items[c];
        const JsonValue& acell = arows.items[r].items[c];
        ASSERT_EQ(ecell.kind, acell.kind);
        if (ecell.is_number()) {
          const double tolerance =
              1e-9 * std::max({1.0, std::fabs(ecell.number),
                               std::fabs(acell.number)});
          EXPECT_NEAR(ecell.number, acell.number, tolerance)
              << "cell (" << t << "," << r << "," << c << ")";
        }
      }
    }
  }
}

TEST(SpecRoundTrip, CheckedInExampleSpecsStayValid) {
  // The README's worked examples must keep parsing (and round-tripping)
  // as the spec schema evolves.
  for (const char* name :
       {"rrg_link_failures.json", "fat_tree_failure_grid.json",
        "rrg_correlated_failures.json", "fat_tree_targeted_cuts.json",
        "vl2_class_failures.json", "fct_load_sweep.json"}) {
    SCOPED_TRACE(name);
    const ScenarioSpec spec = load_spec_file(
        std::string(TOPOBENCH_EXAMPLE_SPEC_DIR) + "/" + name);
    EXPECT_EQ(spec_to_json(spec_from_json(spec_to_json(spec))),
              spec_to_json(spec));
  }
}

TEST(SpecRoundTrip, FailureComponentsRoundTripByteStably) {
  // A spec exercising every failure component: correlated blast radius,
  // per-class rates, targeted cuts, plus the legacy uniform fields.
  const char* doc = R"({
    "name": "all_components",
    "topology": {"family": "fat_tree", "params": {"k": 4}},
    "failure": {"link_failure_fraction": 0.05,
                "blast_switch_fraction": 0.1,
                "blast_probability": 0.25,
                "class_failure_fraction": {"core": 0.5, "edge": 0.1},
                "targeted_link_cuts": 4,
                "capacity_factor": 0.9},
    "axes": [{"param": "blast_probability", "values": [0, 0.25, 0.5]}]
  })";
  const ScenarioSpec spec = spec_from_json(doc);
  EXPECT_EQ(spec.failure.uniform.link_fraction, 0.05);
  EXPECT_EQ(spec.failure.correlated.epicenter_fraction, 0.1);
  EXPECT_EQ(spec.failure.correlated.peer_probability, 0.25);
  EXPECT_EQ(spec.failure.per_class.switch_fraction.at("core"), 0.5);
  EXPECT_EQ(spec.failure.per_class.switch_fraction.at("edge"), 0.1);
  EXPECT_EQ(spec.failure.targeted.link_cuts, 4);
  EXPECT_EQ(spec.failure.capacity_factor, 0.9);
  EXPECT_TRUE(spec.failure.active());
  const std::string once = spec_to_json(spec);
  EXPECT_EQ(spec_to_json(spec_from_json(once)), once);
  // Inactive components stay out of the canonical emission, so legacy
  // uniform-only specs serialize exactly as they did before.
  ScenarioSpec legacy = spec;
  legacy.failure = FailureSpec{};
  legacy.axes = {{"link_failure_fraction", {0.0, 0.25}, {}}};
  const std::string legacy_json = spec_to_json(legacy);
  EXPECT_EQ(legacy_json.find("blast"), std::string::npos);
  EXPECT_EQ(legacy_json.find("class_failure_fraction"), std::string::npos);
  EXPECT_EQ(legacy_json.find("targeted"), std::string::npos);
}

TEST(SpecRoundTrip, PacketSimRoundTripsByteStably) {
  const char* doc = R"({
    "name": "packet",
    "topology": {"family": "rewired_vl2",
                 "params": {"d_a": 6, "d_i": 8, "servers_per_tor": 4}},
    "packet_sim": {"subflows": 4, "queue_packets": 30,
                   "duration_ns": 8000000, "warmup_ns": 4000000,
                   "route_mode": "ecmp_hash"},
    "axes": [{"param": "tors", "values": [14]}]
  })";
  const ScenarioSpec spec = spec_from_json(doc);
  EXPECT_TRUE(spec.packet_sim.enabled);
  EXPECT_EQ(spec.packet_sim.params.subflows, 4);
  EXPECT_EQ(spec.packet_sim.params.queue_packets, 30);
  EXPECT_EQ(spec.packet_sim.params.duration_ns, 8'000'000u);
  EXPECT_EQ(spec.packet_sim.params.warmup_ns, 4'000'000u);
  EXPECT_EQ(spec.packet_sim.params.route_mode, sim::RouteMode::kEcmpHash);
  // Unset knobs keep the SimParams defaults.
  EXPECT_EQ(spec.packet_sim.params.packet_bytes, 1500);
  EXPECT_TRUE(spec.packet_sim.params.ewtcp_coupling);
  const std::string once = spec_to_json(spec);
  EXPECT_EQ(spec_to_json(spec_from_json(once)), once);
  // A spec without packet_sim serializes without the key, so every
  // pre-packet-sim spec file stays byte-identical.
  ScenarioSpec plain = spec;
  plain.packet_sim = PacketSimOptions{};
  EXPECT_EQ(spec_to_json(plain).find("packet_sim"), std::string::npos);
}

TEST(SpecRoundTrip, HotspotAndStrideRoundTripByteStably) {
  const char* hotspot_doc = R"({
    "name": "hot",
    "topology": {"family": "random_regular",
                 "params": {"n": 12, "ports": 6, "degree": 4}},
    "traffic": "hotspot",
    "hot_fraction": 0.2,
    "hot_multiplier": 8,
    "axes": [{"param": "hot_fraction", "values": [0.1, 0.2]}]
  })";
  const ScenarioSpec hotspot = spec_from_json(hotspot_doc);
  EXPECT_EQ(hotspot.traffic, TrafficKind::kHotspot);
  EXPECT_EQ(hotspot.hot_fraction, 0.2);
  EXPECT_EQ(hotspot.hot_multiplier, 8.0);
  const std::string hotspot_once = spec_to_json(hotspot);
  EXPECT_EQ(spec_to_json(spec_from_json(hotspot_once)), hotspot_once);

  const char* stride_doc = R"({
    "name": "strided",
    "topology": {"family": "random_regular",
                 "params": {"n": 12, "ports": 6, "degree": 4}},
    "traffic": "stride",
    "stride": 7,
    "axes": [{"param": "stride", "values": [1, 7]}]
  })";
  const ScenarioSpec stride = spec_from_json(stride_doc);
  EXPECT_EQ(stride.traffic, TrafficKind::kStride);
  EXPECT_EQ(stride.stride, 7);
  const std::string stride_once = spec_to_json(stride);
  EXPECT_EQ(spec_to_json(spec_from_json(stride_once)), stride_once);

  // The knobs stay out of other kinds' serializations, so legacy specs
  // keep their exact bytes.
  ScenarioSpec plain = stride;
  plain.traffic = TrafficKind::kPermutation;
  plain.axes = {{"epsilon", {0.1}, {}}};
  const std::string plain_json = spec_to_json(plain);
  EXPECT_EQ(plain_json.find("\"stride\":"), std::string::npos);
  EXPECT_EQ(plain_json.find("hot_"), std::string::npos);
}

TEST(SpecRoundTrip, FctWorkloadRoundTripsByteStably) {
  const char* doc = R"({
    "name": "fct",
    "topology": {"family": "random_regular",
                 "params": {"n": 12, "ports": 6, "degree": 4}},
    "packet_sim": {"subflows": 1, "duration_ns": 8000000,
                   "warmup_ns": 0,
                   "workload": {"cdf": "websearch", "load": 0.4}},
    "axes": [{"param": "load", "values": [0.2, 0.4]}]
  })";
  const ScenarioSpec spec = spec_from_json(doc);
  EXPECT_TRUE(spec.packet_sim.enabled);
  EXPECT_TRUE(spec.packet_sim.fct.enabled);
  EXPECT_EQ(spec.packet_sim.fct.cdf, "websearch");
  EXPECT_EQ(spec.packet_sim.fct.load, 0.4);
  const std::string once = spec_to_json(spec);
  EXPECT_EQ(spec_to_json(spec_from_json(once)), once);
  // No workload block -> no "workload" key: bulk packet-sim specs keep
  // their exact serialization.
  ScenarioSpec bulk = spec;
  bulk.packet_sim.fct = FctWorkloadOptions{};
  bulk.axes = {{"epsilon", {0.1}, {}}};
  EXPECT_EQ(spec_to_json(bulk).find("workload"), std::string::npos);
}

TEST(SpecErrors, TrafficKnobsRequireTheirKind) {
  // hot_* / stride keys are rejected unless the matching traffic kind is
  // selected (silently carrying them would break round-trip stability).
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "hot_fraction": 0.2})",
                    "hotspot");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "traffic": "stride",
                        "hot_multiplier": 4})",
                    "hotspot");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "stride": 2})",
                    "stride");
  // Range checks on the knobs themselves.
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "traffic": "hotspot", "hot_multiplier": 0.5})",
                    "hot_multiplier");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "traffic": "stride", "stride": 0})",
                    "stride");
  // Axis gating mirrors the scalar gating.
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "hot_fraction", "values": [0.1]}]})",
      "hotspot");
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "stride", "values": [1, 2]}]})",
      "stride");
  // A chunky_fraction axis under any other traffic would sweep a no-op
  // (while giving every point its own cache address).
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "chunky_fraction", "values": [0.1, 0.5]}]})",
      "requires chunky traffic");
}

TEST(SpecErrors, FctWorkloadKeysAreValidated) {
  const auto fct_spec = [](const std::string& workload) {
    return std::string(R"({"name": "x",
      "topology": {"family": "random_regular"},
      "packet_sim": {"subflows": 1, "workload": )") +
           workload + "}}";
  };
  expect_spec_error(fct_spec(R"({"cdf": "no_such_cdf", "load": 0.5})"),
                    "packet_sim.workload.cdf");
  expect_spec_error(fct_spec(R"({"cdf": "websearch", "load": 0})"),
                    "load");
  expect_spec_error(fct_spec(R"({"cdf": "websearch", "load": 1.5})"),
                    "load");
  expect_spec_error(fct_spec(R"({"cdf": "websearch", "load": 0.5,
                                 "extra": 1})"),
                    "extra");
  // load / cdf axes only mean something with a workload block present.
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "packet_sim": {"subflows": 1},
          "axes": [{"param": "load", "values": [0.5]}]})",
      "workload");
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "cdf", "values": [0]}]})",
      "workload");
  // The cdf axis is an integer index into the registered distributions.
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "packet_sim": {"subflows": 1,
                         "workload": {"cdf": "websearch", "load": 0.5}},
          "axes": [{"param": "cdf", "values": [99]}]})",
      "axes[0].values");
}

TEST(SpecErrors, PacketSimKeysAreValidated) {
  const auto packet_spec = [](const std::string& body) {
    return std::string(R"({"name": "x",
      "topology": {"family": "rewired_vl2"},
      "packet_sim": )") + body + "}";
  };
  expect_spec_error(packet_spec(R"({"subflows": 0})"), "packet_sim.subflows");
  expect_spec_error(packet_spec(R"({"subflows": 2.5})"),
                    "packet_sim.subflows");
  expect_spec_error(packet_spec(R"({"queue_packets": 0})"),
                    "packet_sim.queue_packets");
  expect_spec_error(packet_spec(R"({"route_mode": "spray"})"),
                    "route_mode");
  expect_spec_error(packet_spec(R"({"qeue_packets": 10})"), "qeue_packets");
  expect_spec_error(
      packet_spec(R"({"duration_ns": 1000, "warmup_ns": 1000})"),
      "warmup_ns");
  expect_spec_error(packet_spec(R"({"server_rate_gbps": 0})"),
                    "server_rate_gbps");
  // Non-permutation traffic cannot drive the packet simulator.
  expect_spec_error(R"({"name": "x",
      "topology": {"family": "rewired_vl2"},
      "traffic": "all_to_all",
      "packet_sim": {"subflows": 2}})",
                    "permutation");
}

TEST(SpecErrors, FailureComponentKeysAreValidated) {
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "failure": {"blast_probability": 1.5}})",
                    "blast_probability");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "failure": {"blast_switch_fractoin": 0.1}})",
                    "blast_switch_fractoin");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "failure": {"targeted_link_cuts": -1}})",
                    "targeted_link_cuts");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "failure": {"targeted_link_cuts": 2.5}})",
                    "targeted_link_cuts");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "failure": {"class_failure_fraction": {"tor": 2}}})",
                    "class_failure_fraction.tor");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "failure": {"class_failure_fraction": 0.5}})",
                    "class_failure_fraction");
}

TEST(SpecErrors, FailureAxisValuesAreValidated) {
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "blast_probability", "values": [0.5, 1.5]}]})",
      "axes[0].values");
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "targeted_link_cuts", "values": [0, 1.5]}]})",
      "axes[0].values");
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "targeted_link_cuts", "values": [-2]}]})",
      "axes[0].values");
  // Same 1e9 cap as the scalar field: values that would overflow the int
  // cast in axis binding are rejected up front, not mid-sweep.
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "targeted_link_cuts", "values": [3000000000]}]})",
      "axes[0].values");
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "class_failure_fraction:tor",
                    "values": [0, 2]}]})",
      "axes[0].values");
  // A bare class prefix with no class name is a spec mistake, not a
  // topology-parameter axis.
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "class_failure_fraction:", "values": [0.1]}]})",
      "axes[0].param");
}

TEST(SpecErrors, UnknownKeysAreNamed) {
  expect_spec_error(R"({"name": "x", "trafic": "permutation",
                        "topology": {"family": "random_regular"}})",
                    "trafic");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular",
                                     "extra": 1}})",
                    "topology.extra");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "axes": [{"param": "epsilon", "values": [0.1],
                                  "full_value": [0.1]}]})",
                    "full_value");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "failure": {"link_failure_fractoin": 0.1}})",
                    "link_failure_fractoin");
}

TEST(SpecErrors, MisspelledAxisAndParamNamesAreNamed) {
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "lnik_failure_fraction", "values": [0.1]}]})",
      "lnik_failure_fraction");
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular",
                                    "params": {"degre": 4}}})",
      "degre");
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "no_such_family"}})",
      "no_such_family");
}

TEST(SpecErrors, WrongTypesAreNamed) {
  expect_spec_error(R"({"name": 42,
                        "topology": {"family": "random_regular"}})",
                    "name");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "axes": [{"param": "epsilon", "values": "oops"}]})",
                    "values");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "axes": [{"param": "epsilon",
                                  "values": [0.1, "oops"]}]})",
                    "values");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular",
                                     "params": {"n": "twelve"}}})",
                    "topology.params.n");
  expect_spec_error(R"({"name": "x", "reuse_topology": 1,
                        "topology": {"family": "random_regular"}})",
                    "reuse_topology");
  expect_spec_error(R"({"name": "x", "quick_runs": 2.5,
                        "topology": {"family": "random_regular"}})",
                    "quick_runs");
}

TEST(SpecErrors, OutOfRangeValuesAreNamed) {
  expect_spec_error(R"({"name": "x", "quick_runs": 0,
                        "topology": {"family": "random_regular"}})",
                    "quick_runs");
  expect_spec_error(R"({"name": "x", "full_runs": -3,
                        "topology": {"family": "random_regular"}})",
                    "full_runs");
  expect_spec_error(R"({"name": "x", "chunky_fraction": 1.5,
                        "topology": {"family": "random_regular"}})",
                    "chunky_fraction");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "failure": {"link_failure_fraction": 1.5}})",
                    "link_failure_fraction");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "failure": {"capacity_factor": 0}})",
                    "capacity_factor");
}

TEST(SpecErrors, DuplicateAxesAndOutOfRangeAxisValuesAreNamed) {
  // Axes bind in order, so a repeated param would silently overwrite the
  // earlier axis while the table still prints its values as a column.
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "epsilon", "values": [0.1, 0.3]},
                   {"param": "epsilon", "values": [0.25]}]})",
      "axes[1].param");
  // Evaluation-side axis values get the scalar fields' range checks.
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "link_failure_fraction",
                    "values": [0.1, 1.5]}]})",
      "axes[0].values");
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "capacity_factor", "values": [1],
                    "full_values": [1, 0]}]})",
      "axes[0].full_values");
  expect_spec_error(
      R"({"name": "x", "topology": {"family": "random_regular"},
          "axes": [{"param": "epsilon", "values": [1]}]})",
      "axes[0].values");
}

// One rule per numeric scalar key (the knobs, and the packet_sim, search
// and run-count keys): a programmatic spec that validate_spec accepts
// also survives its own dump -> parse round trip, and a value just
// outside a bound is rejected by validate_spec and by the parser alike,
// naming the same key.
TEST(SpecErrors, ScalarKnobBoundsAgreeBetweenValidatorAndParser) {
  struct KnobCase {
    const char* key;
    // Stores the value, and selects the traffic or workload the knob
    // needs.
    std::function<void(ScenarioSpec&, double)> set;
    std::vector<double> inside;
    std::vector<double> outside;
  };
  const double below0 = std::nextafter(0.0, -1.0);
  const double above1 = std::nextafter(1.0, 2.0);
  const double tiny = std::numeric_limits<double>::denorm_min();
  const auto fct = [](ScenarioSpec& s) {
    s.packet_sim.enabled = true;
    s.packet_sim.fct.enabled = true;
  };
  const std::vector<KnobCase> cases = {
      {"failure.link_failure_fraction",
       [](ScenarioSpec& s, double v) { s.failure.uniform.link_fraction = v; },
       {0.0, 1.0}, {below0, above1}},
      {"failure.switch_failure_fraction",
       [](ScenarioSpec& s, double v) {
         s.failure.uniform.switch_fraction = v;
       },
       {0.0, 1.0}, {below0, above1}},
      {"failure.blast_switch_fraction",
       [](ScenarioSpec& s, double v) {
         s.failure.correlated.epicenter_fraction = v;
       },
       {0.0, 1.0}, {below0, above1}},
      {"failure.blast_probability",
       [](ScenarioSpec& s, double v) {
         s.failure.correlated.peer_probability = v;
       },
       {0.0, 1.0}, {below0, above1}},
      {"failure.class_failure_fraction.tor",
       [](ScenarioSpec& s, double v) {
         s.failure.per_class.switch_fraction["tor"] = v;
       },
       {0.0, 1.0}, {below0, above1}},
      {"failure.targeted_link_cuts",
       [](ScenarioSpec& s, double v) {
         s.failure.targeted.link_cuts = static_cast<int>(v);
       },
       {0.0, 1e9}, {-1.0, 1e9 + 1}},
      {"failure.capacity_factor",
       [](ScenarioSpec& s, double v) { s.failure.capacity_factor = v; },
       {tiny, 1.0}, {0.0, above1}},
      {"chunky_fraction",
       [](ScenarioSpec& s, double v) { s.chunky_fraction = v; },
       {0.0, 1.0}, {below0, above1}},
      {"hot_fraction",
       [](ScenarioSpec& s, double v) {
         s.traffic = TrafficKind::kHotspot;
         s.hot_fraction = v;
       },
       {0.0, 1.0}, {below0, above1}},
      {"hot_multiplier",
       [](ScenarioSpec& s, double v) {
         s.traffic = TrafficKind::kHotspot;
         s.hot_multiplier = v;
       },
       {1.0, 1e6}, {std::nextafter(1.0, 0.0), std::nextafter(1e6, 2e6)}},
      {"stride",
       [](ScenarioSpec& s, double v) {
         s.traffic = TrafficKind::kStride;
         s.stride = static_cast<int>(v);
       },
       {-1e9, -1.0, 1.0, 1e9}, {-1e9 - 1, 0.0, 1e9 + 1}},
      {"packet_sim.workload.load",
       [&](ScenarioSpec& s, double v) {
         fct(s);
         s.packet_sim.fct.load = v;
       },
       {tiny, 1.0}, {0.0, above1}},
      {"packet_sim.workload.fan_in",
       [&](ScenarioSpec& s, double v) {
         fct(s);
         s.packet_sim.fct.pattern = "incast";
         s.packet_sim.fct.fan_in = static_cast<int>(v);
       },
       {2.0, 1e6}, {1.0, 1e6 + 1}},
      // The other numeric scalars: packet_sim, search and run counts.
      {"packet_sim.subflows",
       [](ScenarioSpec& s, double v) {
         s.packet_sim.enabled = true;
         s.packet_sim.params.subflows = static_cast<int>(v);
       },
       {1.0, 64.0}, {0.0, 65.0}},
      {"packet_sim.queue_packets",
       [](ScenarioSpec& s, double v) {
         s.packet_sim.enabled = true;
         s.packet_sim.params.queue_packets = static_cast<int>(v);
       },
       {1.0, 1e6}, {0.0, 1e6 + 1, 2e6}},
      {"packet_sim.packet_bytes",
       [](ScenarioSpec& s, double v) {
         s.packet_sim.enabled = true;
         s.packet_sim.params.packet_bytes = static_cast<int>(v);
       },
       {64.0, 65535.0}, {63.0, 65536.0}},
      {"packet_sim.duration_ns",
       [](ScenarioSpec& s, double v) {
         s.packet_sim.enabled = true;
         s.packet_sim.params.warmup_ns = 0;
         s.packet_sim.params.duration_ns = static_cast<sim::SimTime>(v);
       },
       {1.0, 1e12}, {1e12 + 1}},
      {"packet_sim.warmup_ns",
       [](ScenarioSpec& s, double v) {
         s.packet_sim.enabled = true;
         s.packet_sim.params.duration_ns = 1'000'000'000'000;
         s.packet_sim.params.warmup_ns = static_cast<sim::SimTime>(v);
       },
       {0.0}, {1e12 + 1}},
      {"packet_sim.start_jitter_ns",
       [](ScenarioSpec& s, double v) {
         s.packet_sim.enabled = true;
         s.packet_sim.params.start_jitter_ns = static_cast<sim::SimTime>(v);
       },
       {0.0, 1e12}, {1e12 + 1}},
      {"packet_sim.link_delay_ns",
       [](ScenarioSpec& s, double v) {
         s.packet_sim.enabled = true;
         s.packet_sim.params.link_delay_ns = static_cast<sim::SimTime>(v);
       },
       {1.0, 4e9}, {0.0, 4e9 + 1}},
      {"packet_sim.server_rate_gbps",
       [](ScenarioSpec& s, double v) {
         s.packet_sim.enabled = true;
         s.packet_sim.params.server_rate_gbps = v;
       },
       {tiny, 1e6}, {0.0, std::nextafter(1e6, 2e6)}},
      {"search.budget",
       [](ScenarioSpec& s, double v) {
         s.search.enabled = true;
         s.search.budget = static_cast<int>(v);
       },
       {0.0, 1e6}, {-1.0, 1e6 + 1}},
      {"search.restarts",
       [](ScenarioSpec& s, double v) {
         s.search.enabled = true;
         s.search.restarts = static_cast<int>(v);
       },
       {1.0, 1e4}, {0.0, 1e4 + 1}},
      {"search.population",
       [](ScenarioSpec& s, double v) {
         s.search.enabled = true;
         s.search.population = static_cast<int>(v);
       },
       {1.0, 1e4}, {0.0, 1e4 + 1}},
      {"search.temperature",
       [](ScenarioSpec& s, double v) {
         s.search.enabled = true;
         s.search.temperature = v;
       },
       {0.0, 1e6}, {below0, std::nextafter(1e6, 2e6)}},
      {"search.cost.port",
       [](ScenarioSpec& s, double v) {
         s.search.enabled = true;
         s.search.port_cost = v;
       },
       {0.0, 1e9}, {below0, std::nextafter(1e9, 2e9)}},
      {"search.cost.cable",
       [](ScenarioSpec& s, double v) {
         s.search.enabled = true;
         s.search.cable_cost = v;
       },
       {0.0, 1e9}, {below0, std::nextafter(1e9, 2e9)}},
      {"search.cost.switch",
       [](ScenarioSpec& s, double v) {
         s.search.enabled = true;
         s.search.switch_cost = v;
       },
       {0.0, 1e9}, {below0, std::nextafter(1e9, 2e9)}},
      {"search.cost.class.tor",
       [](ScenarioSpec& s, double v) {
         s.search.enabled = true;
         s.search.class_cost["tor"] = v;
       },
       {0.0, 1e9}, {below0, std::nextafter(1e9, 2e9)}},
      {"search.cost.floor_columns",
       [](ScenarioSpec& s, double v) {
         s.search.enabled = true;
         s.search.floor_columns = static_cast<int>(v);
       },
       {1.0, 1e6}, {0.0, 1e6 + 1}},
      {"quick_runs",
       [](ScenarioSpec& s, double v) { s.quick_runs = static_cast<int>(v); },
       {1.0, 1e6}, {0.0, 1e6 + 1}},
      {"full_runs",
       [](ScenarioSpec& s, double v) { s.full_runs = static_cast<int>(v); },
       {1.0, 1e6}, {0.0, 1e6 + 1}},
  };
  const ScenarioSpec base = spec_from_json(R"({
    "name": "bounds",
    "topology": {"family": "random_regular",
                 "params": {"n": 12, "ports": 6, "degree": 4}}
  })");
  const auto error_of = [](const std::function<void()>& action) {
    try {
      action();
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const KnobCase& knob : cases) {
    SCOPED_TRACE(knob.key);
    const std::string names_key = std::string("\"") + knob.key + "\"";
    for (const double v : knob.inside) {
      SCOPED_TRACE(v);
      ScenarioSpec spec = base;
      knob.set(spec, v);
      EXPECT_NO_THROW(validate_spec(spec));
      const std::string once = spec_to_json(spec);
      EXPECT_NO_THROW(EXPECT_EQ(spec_to_json(spec_from_json(once)), once));
    }
    for (const double v : knob.outside) {
      SCOPED_TRACE(v);
      ScenarioSpec spec = base;
      knob.set(spec, v);
      const std::string json = spec_to_json(spec);
      EXPECT_NE(error_of([&] { validate_spec(spec); }).find(names_key),
                std::string::npos);
      EXPECT_NE(error_of([&] { (void)spec_from_json(json); }).find(names_key),
                std::string::npos);
    }
  }
}

TEST(SpecErrors, StructuralMistakesFailLoudly) {
  expect_spec_error("[]", "object");
  expect_spec_error(R"({"topology": {"family": "random_regular"}})",
                    "name");  // missing required key
  expect_spec_error(R"({"name": "x", "topology": {}})", "family");
  expect_spec_error(R"({"name": "x", "traffic": "permutatoin",
                        "topology": {"family": "random_regular"}})",
                    "permutatoin");
  expect_spec_error(R"({"name": "x",
                        "topology": {"family": "random_regular"},
                        "axes": [{"param": "epsilon", "values": []}]})",
                    "values");
  // Duplicate keys are a parse error, not a silent overwrite.
  expect_spec_error(R"({"name": "x", "name": "y",
                        "topology": {"family": "random_regular"}})",
                    "duplicate");
}

TEST(SpecErrors, OutOfRangeSeedRejectedBySharedFlagParser) {
  // The CLI path for spec runs parses the same flag set as scenarios;
  // get_uint64 rejects negative and overflowing seeds loudly.
  const char* negative[] = {"spec.json", "--seed", "-3"};
  EXPECT_THROW((void)parse_scenario_options(3, negative), InvalidArgument);
  const char* huge[] = {"spec.json", "--seed", "99999999999999999999"};
  EXPECT_THROW((void)parse_scenario_options(3, huge), InvalidArgument);
}

// ---- Frozen addresses. The canonical spec bytes and every cell key are
// ---- the cache's content addresses: refactoring how specs are parsed,
// ---- validated or bound to cells must not move a single one. The values
// ---- below were recorded before the evaluation knobs moved into one
// ---- table and must never be edited to follow a code change.

// Digest of every cell key a sweep addresses, plus the cell count. A
// merge-only run over an empty cache evaluates nothing and reports every
// cell as missing, in enumeration order.
std::string cell_key_digest(const ScenarioSpec& spec, bool full,
                            const std::string& solver_override = "") {
  SweepRunConfig config;
  config.runs = full ? spec.full_runs : spec.quick_runs;
  config.full = full;
  config.solver_override = solver_override;
  config.cache_dir = ::testing::TempDir() + "/spec_io_test_frozen_keys";
  config.merge_only = true;
  std::filesystem::remove_all(config.cache_dir);
  const SweepResult result = SweepRunner(spec, config).run();
  std::filesystem::remove_all(config.cache_dir);
  std::string keys;
  for (const MissingCell& cell : result.missing) keys += hash_hex(cell.key);
  return hash_hex(fnv1a64(keys)) + "/" + std::to_string(result.missing.size());
}

struct FrozenSpec {
  const char* name;   // registered scenario name or example spec file
  const char* bytes;  // hash_hex(fnv1a64(spec_to_json(spec)))
  const char* smoke;  // cell_key_digest(spec, false)
  const char* full;   // cell_key_digest(spec, true)
};

void expect_frozen(const ScenarioSpec& spec, const FrozenSpec& frozen) {
  SCOPED_TRACE(frozen.name);
  EXPECT_EQ(hash_hex(fnv1a64(spec_to_json(spec))), frozen.bytes);
  EXPECT_EQ(cell_key_digest(spec, false), frozen.smoke);
  EXPECT_EQ(cell_key_digest(spec, true), frozen.full);
}

TEST(FrozenAddresses, RegisteredSpecScenarios) {
  const FrozenSpec frozen[] = {
      {"sweep_fat_tree_link_failures", "5885c0ec3bb09f35",
       "1e839bd2dfe13319/12", "08f1317dad0cf2c0/80"},
      {"sweep_fat_tree_targeted_cuts", "17d1f4b2b27d9d23",
       "98b7cea2de44edfa/15", "90c14d2751912a20/90"},
      {"sweep_fct_load", "9d7d54572d62baed",
       "adb411910aa8c8a1/3", "8c1f5fcf814ad28f/15"},
      {"sweep_packet_vs_flow", "f517c649fc2cdfef",
       "2e367b58787be217/1", "eedab3b1a7bf880f/10"},
      {"sweep_rrg_capacity_degradation", "0a78e3904d246e0b",
       "dc9ec784ae06bd41/15", "ed60ca5a0e25849d/180"},
      {"sweep_rrg_correlated_failures", "aade1b870bbe4ad3",
       "4b2fd80646853c3d/12", "b9d7ef7082d22950/140"},
      {"sweep_rrg_link_failures", "408c82a296aa849d",
       "0fb468205697564f/15", "04c67b24c1861e7e/180"},
      {"sweep_rrg_switch_failures", "d4ae0833bfa93428",
       "6c01fbc1dbd00478/15", "f3fd4633fda3c1ad/160"},
      {"sweep_small_world_shortcuts", "79ab4eef1b355697",
       "34c80b4d1f455264/9", "6a8566e252405765/70"},
      {"sweep_two_type_cross_failures", "7cf9a4d493919171",
       "924d197b5a550aab/18", "64c6e8a968265bb2/300"},
      {"sweep_vl2_chunky", "5bf2b57008b9dea9",
       "7b830bb715950e72/15", "6908e2615e8d477c/100"},
      {"sweep_vl2_class_failures", "62d74076de6df31e",
       "afe76f62022d4983/12", "bb068b779f59b18d/70"},
  };
  register_builtin_scenarios();
  ASSERT_EQ(list_spec_scenarios().size(), std::size(frozen));
  for (const FrozenSpec& entry : frozen) {
    const ScenarioSpec* spec = find_spec_scenario(entry.name);
    ASSERT_NE(spec, nullptr) << entry.name;
    expect_frozen(*spec, entry);
  }
}

TEST(FrozenAddresses, ExampleSweepSpecs) {
  const FrozenSpec frozen[] = {
      {"fat_tree_failure_grid.json", "9381b37e9c01eeb3",
       "47dafe5b0b3b7af8/8", "4cca61fd65afc149/120"},
      {"fat_tree_targeted_cuts.json", "17d1f4b2b27d9d23",
       "98b7cea2de44edfa/15", "90c14d2751912a20/90"},
      {"fct_load_sweep.json", "9d7d54572d62baed",
       "adb411910aa8c8a1/3", "8c1f5fcf814ad28f/15"},
      {"packet_vs_flow.json", "f517c649fc2cdfef",
       "2e367b58787be217/1", "eedab3b1a7bf880f/10"},
      {"rrg_correlated_failures.json", "aade1b870bbe4ad3",
       "4b2fd80646853c3d/12", "b9d7ef7082d22950/140"},
      {"rrg_link_failures.json", "408c82a296aa849d",
       "0fb468205697564f/15", "04c67b24c1861e7e/180"},
      {"vl2_class_failures.json", "62d74076de6df31e",
       "afe76f62022d4983/12", "bb068b779f59b18d/70"},
  };
  for (const FrozenSpec& entry : frozen) {
    expect_frozen(load_spec_file(std::string(TOPOBENCH_EXAMPLE_SPEC_DIR) +
                                 "/" + entry.name),
                  entry);
  }
}

TEST(FrozenAddresses, ApproxOverrideAndSearchSpecHash) {
  register_builtin_scenarios();
  const ScenarioSpec* sweep = find_spec_scenario("sweep_rrg_link_failures");
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(cell_key_digest(*sweep, false, "approx"),
            "9fbcd103d54b4570/15");
  // Search specs have no axes, so the sweep identity is the spec hash.
  const ScenarioSpec search = load_spec_file(
      std::string(TOPOBENCH_EXAMPLE_SPEC_DIR) + "/search_rrg_cost.json");
  EXPECT_EQ(hash_hex(fnv1a64(spec_to_json(search))), "8050d5ec5f3392a4");
  EXPECT_EQ(hash_hex(spec_hash(search, SweepRunConfig{})),
            "fa445ad0f4a967da");
}

TEST(SpecRegistry, FiguresAreNotSpecBacked) {
  register_builtin_scenarios();
  EXPECT_EQ(find_spec_scenario("fig05_powerlaw_beta"), nullptr);
  EXPECT_NE(find_spec_scenario("sweep_rrg_link_failures"), nullptr);
}

}  // namespace
}  // namespace topo::scenario
