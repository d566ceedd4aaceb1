// Orchestrator fault-tolerance tests: the supervised-worker acceptance
// criteria from the fault-injection harness. A worker killed mid-store
// (crash_after_cells) or wedged mid-sweep (stall_after_cells) must not
// change the merged output — retried stripes resume from the published
// cells and the coordinator merge is byte-identical to an unsharded run
// with zero recomputation. Retry exhaustion must degrade loudly: partial
// exit code, complete points only, and a manifest naming every missing
// cell. Plus unit coverage for the Subprocess status decoding the
// supervision loop relies on.
//
// These tests exec the real CLI binary (TOPOBENCH_CLI_PATH, injected by
// tests/CMakeLists.txt) as the worker, so the whole chain — spawn, env
// plumbing, heartbeats, cache publication, kill/requeue — runs for real.
#include <gtest/gtest.h>
#include <signal.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/orchestrator.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "scenario/sweep.h"
#include "util/exit_codes.h"
#include "util/fault.h"
#include "util/subprocess.h"

namespace topo::scenario {
namespace {

// Small enough that every attempt is quick, large enough that a
// crash-after-one-cell worker needs several attempts to finish its
// stripe (4 points x 1 run = 4 cells, 2 cells per stripe at 2 workers).
ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "orchestrator_test_tiny";
  spec.description = "tiny RRG sweep (orchestrator tests)";
  spec.topology = {"random_regular", {{"n", 12}, {"ports", 6}, {"degree", 4}}};
  spec.axes = {{"link_failure_fraction", {0.0, 0.1, 0.2, 0.3}, {}}};
  spec.quick_runs = 1;
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/topobench_orch_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// The worker binary needs the spec as a file; the merge uses the parsed
// spec directly, exactly as orchestrate_main does.
std::string write_spec(const ScenarioSpec& spec, const std::string& dir) {
  const std::string path = dir + "/spec.json";
  std::ofstream out(path);
  out << spec_to_json(spec);
  return path;
}

ScenarioOptions base_options() {
  ScenarioOptions options;
  options.epsilon = 0.25;  // loose: these tests care about supervision
  options.seed = 5;
  options.csv = true;
  return options;
}

// The unsharded, uncached single-process output every orchestration must
// reproduce byte for byte.
std::string reference_output(const ScenarioSpec& spec) {
  std::ostringstream os;
  ScenarioRun run(base_options(), os);
  run_spec_scenario(spec, run);
  return os.str();
}

OrchestratorConfig base_config(const std::string& spec_path,
                               const std::string& cache_dir) {
  OrchestratorConfig config;
  config.worker_exe = TOPOBENCH_CLI_PATH;
  config.spec_path = spec_path;
  config.cache_dir = cache_dir;
  config.workers = 2;
  config.max_retries = 8;
  config.backoff_ms = 10;       // keep retry storms fast in tests
  config.poll_interval_ms = 10;
  // Workers must resolve the same cell grid as the merge context below.
  config.worker_flags = {"--eps=0.25", "--seed=5"};
  return config;
}

TEST(Subprocess, DecodesExitCodesAndSignals) {
  Subprocess clean = Subprocess::spawn({"/bin/sh", "-c", "exit 0"});
  EXPECT_TRUE(clean.wait().ok());

  Subprocess failing = Subprocess::spawn({"/bin/sh", "-c", "exit 7"});
  const Subprocess::Status failed = failing.wait();
  EXPECT_EQ(failed.state, Subprocess::Status::State::kExited);
  EXPECT_EQ(failed.exit_code, 7);
  EXPECT_FALSE(failed.ok());

  Subprocess victim = Subprocess::spawn({"/bin/sh", "-c", "sleep 600"});
  EXPECT_TRUE(victim.poll().running());
  victim.send_signal(SIGKILL);
  const Subprocess::Status killed = victim.wait();
  EXPECT_EQ(killed.state, Subprocess::Status::State::kSignaled);
  EXPECT_EQ(killed.term_signal, SIGKILL);
  EXPECT_FALSE(killed.ok());
}

TEST(Subprocess, ExecFailureSurfacesAs127) {
  Subprocess missing =
      Subprocess::spawn({"/nonexistent/topobench-no-such-binary"});
  const Subprocess::Status status = missing.wait();
  EXPECT_EQ(status.state, Subprocess::Status::State::kExited);
  EXPECT_EQ(status.exit_code, 127);
}

TEST(Subprocess, ChildEnvironmentAndLogRedirection) {
  const std::string dir = fresh_dir("subproc_env");
  const std::string log = dir + "/child.log";
  SpawnOptions options;
  options.env = {{"TOPOBENCH_SUBPROC_TEST", "marker-42"}};
  options.log_path = log;
  Subprocess child = Subprocess::spawn(
      {"/bin/sh", "-c", "printf '%s' \"$TOPOBENCH_SUBPROC_TEST\""}, options);
  EXPECT_TRUE(child.wait().ok());
  std::ifstream in(log);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "marker-42");
  std::filesystem::remove_all(dir);
}

// Acceptance: a worker SIGKILLed mid-store (after every published cell)
// still converges — each retry resumes from the cache, and the final
// merge is byte-identical to the unsharded run with zero recomputation.
TEST(Orchestrator, CrashMidStoreRecoveryIsByteIdentical) {
  const ScenarioSpec spec = tiny_spec();
  const std::string dir = fresh_dir("crash");
  OrchestratorConfig config = base_config(write_spec(spec, dir), dir);
  config.worker_env = {{fault::kFaultEnvVar, "crash_after_cells:1"}};

  std::ostringstream os;
  ScenarioOptions options = base_options();
  options.cache_dir = dir;
  ScenarioRun merge_ctx(options, os);
  const OrchestrationReport report = orchestrate(config, spec, merge_ctx);

  EXPECT_EQ(report.exit_code, kExitOk);
  EXPECT_TRUE(report.failed_stripes.empty());
  // Every worker dies after one store, so each 2-cell stripe needs
  // at least one retry to finish.
  EXPECT_GE(report.total_retries, 1);
  EXPECT_EQ(report.merge_cache_misses, 0);
  EXPECT_EQ(report.merge_cache_hits, 4);
  EXPECT_EQ(os.str(), reference_output(spec));
  std::filesystem::remove_all(dir);
}

// Acceptance: a worker that wedges (heartbeat-silent but alive) is
// detected via heartbeat mtime, killed, and its stripe retried — same
// byte-identical convergence as the crash case.
TEST(Orchestrator, StallDetectionKillsAndRecovers) {
  const ScenarioSpec spec = tiny_spec();
  const std::string dir = fresh_dir("stall");
  OrchestratorConfig config = base_config(write_spec(spec, dir), dir);
  config.worker_env = {{fault::kFaultEnvVar, "stall_after_cells:1"}};
  config.worker_timeout = 2.0;  // stalls are forever; detect them fast

  std::ostringstream os;
  ScenarioOptions options = base_options();
  options.cache_dir = dir;
  ScenarioRun merge_ctx(options, os);
  const OrchestrationReport report = orchestrate(config, spec, merge_ctx);

  EXPECT_EQ(report.exit_code, kExitOk);
  EXPECT_TRUE(report.failed_stripes.empty());
  EXPECT_GE(report.stall_kills, 1);
  EXPECT_EQ(report.merge_cache_misses, 0);
  EXPECT_EQ(os.str(), reference_output(spec));
  std::filesystem::remove_all(dir);
}

// Acceptance: when a stripe exhausts its retries the orchestrator
// degrades instead of dying — partial exit code, the complete points
// only, and a manifest naming every missing cell.
TEST(Orchestrator, RetryExhaustionEmitsManifestAndPartialExit) {
  const ScenarioSpec spec = tiny_spec();
  const std::string dir = fresh_dir("exhaust");
  OrchestratorConfig config = base_config(write_spec(spec, dir), dir);
  config.worker_env = {{fault::kFaultEnvVar, "crash_after_cells:1"}};
  config.max_retries = 0;  // first crash abandons the stripe
  // One pool thread per worker: on a wider pool a stripe's second cell can
  // be published between the first publish and the self-kill, so the
  // one-cell-per-stripe counts below would hold only by timing.
  config.worker_flags.emplace_back("--threads=1");

  std::ostringstream os;
  ScenarioOptions options = base_options();
  options.cache_dir = dir;
  ScenarioRun merge_ctx(options, os);
  const OrchestrationReport report = orchestrate(config, spec, merge_ctx);

  EXPECT_EQ(report.exit_code, kExitPartial);
  // Both stripes crash after publishing exactly one of their two cells.
  EXPECT_EQ(report.failed_stripes, (std::vector<int>{0, 1}));
  EXPECT_EQ(report.missing_cells, 2u);
  EXPECT_EQ(report.merge_cache_hits, 2);
  EXPECT_EQ(report.merge_cache_misses, 0);  // merge_only never recomputes

  // The merge emitted only the complete points: the degraded table is a
  // strict (row-subset) prefix-wise reduction of the reference, never a
  // silently recomputed full table.
  const std::string reference = reference_output(spec);
  EXPECT_NE(os.str(), reference);
  EXPECT_LT(os.str().size(), reference.size());

  ASSERT_FALSE(report.manifest_path.empty());
  std::ifstream in(report.manifest_path);
  ASSERT_TRUE(in.good()) << report.manifest_path;
  std::string manifest((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\"failed_stripes\": [0, 1]"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"missing_cells\""), std::string::npos);
  EXPECT_NE(manifest.find("\"key\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

// The healthy path: no faults, two workers, byte-identical merge with
// zero recomputation and zero retries.
TEST(Orchestrator, HealthyRunMergesByteIdentical) {
  const ScenarioSpec spec = tiny_spec();
  const std::string dir = fresh_dir("healthy");
  OrchestratorConfig config = base_config(write_spec(spec, dir), dir);

  std::ostringstream os;
  ScenarioOptions options = base_options();
  options.cache_dir = dir;
  ScenarioRun merge_ctx(options, os);
  const OrchestrationReport report = orchestrate(config, spec, merge_ctx);

  EXPECT_EQ(report.exit_code, kExitOk);
  EXPECT_EQ(report.total_retries, 0);
  EXPECT_EQ(report.stall_kills, 0);
  EXPECT_EQ(report.merge_cache_misses, 0);
  EXPECT_EQ(report.merge_cache_hits, 4);
  EXPECT_EQ(os.str(), reference_output(spec));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace topo::scenario
