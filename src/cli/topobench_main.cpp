// topobench — the unified scenario CLI.
//
//   topobench --list                 table of every registered scenario
//   topobench --list-names           bare names, one per line (for scripts)
//   topobench <scenario> [flags...]  run one scenario (unique prefixes OK)
//   topobench --spec FILE [flags...] run a spec file (no rebuild needed)
//   topobench --dump-spec NAME [FILE]  round-trip a sweep scenario to JSON
//
// Flags (shared by scenario and spec runs):
//   --smoke        quick mode (the default; explicit for CI invocations)
//   --full         paper-fidelity mode: more runs, finer sweeps
//   --runs N       override seeds per data point
//   --eps X        FPTAS certified-gap target (default 0.08)
//   --seed N       master seed (default 1)
//   --csv          machine-readable tables on stdout
//   --out FILE     also write the result tables as JSON
//   --threads N    pool size (must land before the first parallel region;
//                  fails loudly otherwise)
//   --cache-dir D  content-addressed cell cache for sweeps (hits/misses
//                  report on stderr; stdout stays byte-identical)
//   --shard I/N    distributed sweeps: evaluate only stripe I of N of the
//                  (point x run) cell grid into the shared --cache-dir; a
//                  final unsharded run with the same spec and cache dir
//                  warm-merges every shard into the full table
//   --solver M     solver mode for sweep scenarios: exact (default;
//                  bit-identical to historical runs) or approx (the
//                  warm-started batched-parallel FPTAS; same epsilon
//                  guarantee, different certified numbers)
//
// `topobench orchestrate --spec FILE --cache-dir DIR --workers N` is the
// supervised version of the --shard recipe: it spawns the N shard
// workers itself, watches exit codes and progress heartbeats, retries
// crashed/stalled stripes with exponential backoff, and finishes with
// the coordinator merge — degrading to partial output + a missing-cell
// manifest (exit 3) when a stripe exhausts its retries. See README
// "Fault tolerance".
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "scenario/orchestrator.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "search/driver.h"
#include "util/cleanup.h"
#include "util/exit_codes.h"

namespace {

void print_usage() {
  std::puts(
      "usage: topobench --list | --list-names\n"
      "       topobench <scenario> [--smoke|--full] [--runs N] [--eps X]\n"
      "                 [--seed N] [--csv] [--out FILE] [--threads N]\n"
      "                 [--cache-dir DIR] [--shard I/N] [--stripe MODE]\n"
      "                 [--solver MODE]\n"
      "       topobench --spec FILE [same flags]\n"
      "       topobench --dump-spec NAME [FILE]\n"
      "       topobench orchestrate --spec FILE --cache-dir DIR\n"
      "                 [--workers N] [--max-retries K] [--worker-timeout S]\n"
      "                 [--backoff MS] [--runs N] [--eps X] [--seed N]\n"
      "                 [--smoke|--full] [--csv] [--out FILE] [--threads N]\n"
      "                 [--stripe MODE]\n"
      "       topobench search --spec FILE [--trace FILE] [--runs N]\n"
      "                 [--eps X] [--seed N] [--threads N] [--cache-dir DIR]\n"
      "                 [--shard I/N] [--stripe MODE]\n"
      "\n"
      "Runs a registered scenario (all 13 paper figures plus the\n"
      "declarative sweeps), or a ScenarioSpec JSON file. Unique name\n"
      "prefixes are accepted, e.g. `topobench fig05`. --dump-spec writes\n"
      "a sweep scenario's spec as JSON (stdout unless FILE is given) so\n"
      "it can be edited and re-run with --spec. See README \"Running\n"
      "scenarios from a spec file\".\n"
      "\n"
      "Distributed sweeps (README \"Distributed sweeps\"): --shard I/N\n"
      "restricts a sweep to stripe I (0-based) of N stripes of its\n"
      "(point x run) cell grid, publishing results into the shared\n"
      "--cache-dir (required). Run all N shards — concurrently, on any\n"
      "mix of machines sharing the dir — then re-run the same spec\n"
      "unsharded with the same cache dir: the coordinator warm-merges\n"
      "every cell into output byte-identical to a single-process run,\n"
      "recomputing nothing. See examples/shard_merge_demo.sh.\n"
      "\n"
      "Solver modes (README \"Solver modes\"): --solver approx opts a\n"
      "sweep into the warm-started, batched-parallel FPTAS — faster than\n"
      "exact only when one solve gets several threads (README has the\n"
      "measurements), same certified epsilon, deterministic for any\n"
      "--threads, but numerically different from exact mode (approx\n"
      "cells cache under their own addresses; exact cells and goldens\n"
      "are untouched). A\n"
      "spec-level \"solver\" key or a \"solver_mode\" axis does the same\n"
      "per spec / per point.\n"
      "\n"
      "Failure models (README \"Failure models\"): specs compose uniform\n"
      "link/switch failures, correlated blast-radius failures\n"
      "(blast_switch_fraction / blast_probability), per-class rates\n"
      "(class_failure_fraction:<class>), targeted adversarial link cuts\n"
      "(targeted_link_cuts), and capacity derating — each usable as a\n"
      "fixed field or a sweep axis. See the sweep_* scenarios in --list.\n"
      "\n"
      "Traffic workloads (README \"Traffic workloads\"): besides the\n"
      "static matrices (permutation, all_to_all, chunky, hotspot,\n"
      "stride), a packet_sim.workload spec block runs finite flows drawn\n"
      "from a named empirical size CDF (websearch, fb_hadoop) with\n"
      "Poisson arrivals at a target load fraction of server line rate,\n"
      "reporting p50/p95/p99 flow-completion times and goodput. The\n"
      "load and cdf knobs sweep like any axis; see sweep_fct_load and\n"
      "examples/specs/fct_load_sweep.json.\n"
      "\n"
      "Topology search (README \"Topology search\"): `search` runs the\n"
      "deterministic design-space search a spec's \"search\" block\n"
      "describes — seeded random-restart hill climbing (or simulated\n"
      "annealing) over degree-preserving rewirings and server shifts,\n"
      "maximizing throughput or throughput-per-cost under the equipment\n"
      "and cable cost model. Candidate evaluations go through the result\n"
      "cache, so warm re-runs recompute nothing; --shard I/N stripes each\n"
      "evaluation batch across workers (--stripe round-robin|range) with\n"
      "byte-identical trajectories everywhere. --trace FILE writes the\n"
      "per-step JSON trace. See examples/specs/search_rrg_cost.json.\n"
      "\n"
      "Fault tolerance (README \"Fault tolerance\"): `orchestrate`\n"
      "supervises the --shard workers itself: crashed or heartbeat-stalled\n"
      "workers are killed and their stripes retried with exponential\n"
      "backoff (--max-retries, --worker-timeout, --backoff), then the\n"
      "coordinator merge runs in-process. Exit codes: 0 ok, 2 usage, 3\n"
      "partial results after retry exhaustion (see the missing-cell\n"
      "manifest under the cache dir), 4 internal error, 128+sig on\n"
      "signal.");
}

// The path workers are exec'd through: /proc/self/exe where available
// (immune to argv[0] games and cwd changes), else argv[0] as given.
std::string self_executable(const char* argv0) {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len > 0) {
    buf[len] = '\0';
    return buf;
  }
  return argv0;
}

// Extracts the value of a leading `--flag VALUE` / `--flag=VALUE`
// argument pair; returns the number of argv slots consumed (0 when
// argv[1] is not `flag`, or on a missing value — `*value` empty then).
int leading_flag_value(int argc, char** argv, const std::string& flag,
                       std::string* value) {
  const std::string first = argv[1];
  value->clear();
  if (first == flag) {
    if (argc < 3) return 0;
    *value = argv[2];
    return 2;
  }
  if (first.rfind(flag + "=", 0) == 0) {
    *value = first.substr(flag.size() + 1);
    return value->empty() ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace topo::scenario;
  // SIGINT/SIGTERM: unlink in-flight cache temp files, SIGTERM any
  // supervised workers, exit 128+sig — so an interrupted run neither
  // leaks `*.json.tmp.*` garbage nor orphans its children.
  topo::install_signal_cleanup();
  register_builtin_scenarios();

  if (argc < 2) {
    print_usage();
    return topo::kExitUsage;
  }
  const std::string first = argv[1];
  if (first == "--help" || first == "-h") {
    print_usage();
    return topo::kExitOk;
  }
  if (first == "orchestrate") {
    // Shift argv so "orchestrate" plays argv[0] for flag parsing.
    return orchestrate_main(self_executable(argv[0]), argc - 1, argv + 1);
  }
  if (first == "search") {
    // Shift argv so "search" plays argv[0] for flag parsing.
    return topo::search::search_main(argc - 1, argv + 1);
  }
  if (first == "--list" || first == "--list-names") {
    std::size_t width = 0;
    for (const ScenarioInfo* s : list_scenarios()) {
      width = std::max(width, s->name.size());
    }
    for (const ScenarioInfo* s : list_scenarios()) {
      if (first == "--list-names") {
        std::printf("%s\n", s->name.c_str());
      } else {
        std::printf("%-*s  %s\n", static_cast<int>(width), s->name.c_str(),
                    s->description.c_str());
      }
    }
    return 0;
  }
  if (first == "--spec" || first.rfind("--spec=", 0) == 0) {
    std::string path;
    const int consumed = leading_flag_value(argc, argv, "--spec", &path);
    if (consumed == 0) {
      std::fprintf(stderr, "--spec requires a file argument\n");
      return topo::kExitUsage;
    }
    // Shift argv so the spec path plays argv[0] for flag parsing.
    return spec_file_main(path, argc - consumed, argv + consumed);
  }
  if (first == "--dump-spec" || first.rfind("--dump-spec=", 0) == 0) {
    std::string name;
    const int consumed = leading_flag_value(argc, argv, "--dump-spec", &name);
    if (consumed == 0) {
      std::fprintf(stderr, "--dump-spec requires a scenario name\n");
      return topo::kExitUsage;
    }
    const int next = 1 + consumed;
    if (argc > next + 1) {
      std::fprintf(stderr, "--dump-spec takes at most one output file\n");
      return topo::kExitUsage;
    }
    return dump_spec_main(name, argc > next ? argv[next] : "");
  }
  if (first.rfind("--", 0) == 0) {
    std::fprintf(stderr, "first argument must be a scenario name: %s\n",
                 first.c_str());
    print_usage();
    return topo::kExitUsage;
  }
  // Shift argv so the scenario name plays argv[0] for flag parsing.
  return scenario_main(first, argc - 1, argv + 1);
}
