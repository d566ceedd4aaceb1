// Solver microbenchmark and perf-regression tracker.
//
// Times the library's concurrent-flow solver against the pre-rewrite
// (seed) implementation kept in baseline_solver.cc, over a few fixed
// instance classes, and emits a machine-readable BENCH_solver.json so the
// perf trajectory is tracked PR over PR. Also asserts on every instance
// that the rewritten solver reproduces the baseline's lambda/dual_bound to
// 1e-9 (the two implement the same arithmetic; only the data layout and
// scheduling changed), exiting non-zero on mismatch so CI catches drift.
//
// Also times the approximate solver mode (SolverMode::kApprox: warm
// trees, batched-parallel routing, a dual bound every second phase)
// against exact mode on every instance, asserting the approx lambda
// stays within the epsilon-scaled tolerance of the exact certificate
// whenever both runs converged. A multithread section re-runs the whole
// suite in child processes at other pool widths (the pool is sized once
// per process, so a different width needs a fresh process) and asserts
// both modes reproduce this process's lambdas bit for bit — exact
// because it is single-threaded arithmetic, approx because its batched
// rounds are deterministic for any thread count.
//
// Flags:
//   --smoke        CI mode: small instances, single repetition
//   --repeat N     timing repetitions per instance (default 3; min is kept)
//   --json PATH    output path (default BENCH_solver.json)
//   --seed N       master seed for the instance generators (default 1)
//   --no-baseline  skip the baseline timing/equivalence pass
//   --threads N    size the shared pool (before its first use)
//   --no-multicore skip the child-process multithread section
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline_solver.h"
#include "bench_common.h"
#include "util/subprocess.h"

namespace topo::bench {
namespace {

struct Instance {
  std::string name;
  Graph graph{0};
  std::vector<Commodity> commodities;
  FlowOptions options;
  bool rrg = false;  // counts toward the RRG-class aggregate
};

std::vector<Commodity> shifted_permutation(int n, double demand) {
  std::vector<Commodity> commodities;
  for (int i = 0; i < n; ++i) commodities.push_back({i, (i + n / 2) % n, demand});
  return commodities;
}

// The RRG instances track the paper's two sweep axes: network size at
// fixed degree (Fig. 2) and degree at fixed size (Fig. 1). The large
// points cap max_phases so one timing run stays in seconds — a phase cap
// is a fair perf instance (both solvers do identical work per phase) even
// though lambda has not converged at the cap.
std::vector<Instance> make_instances(bool smoke, std::uint64_t seed) {
  std::vector<Instance> instances;

  const auto add_rrg = [&](int n, int degree, bool ecmp, int max_phases) {
    Instance inst;
    inst.name = "rrg_n" + std::to_string(n) + "_d" + std::to_string(degree) +
                (ecmp ? "_ecmp" : "_perm");
    inst.graph = random_regular_graph(n, degree, seed + 3);
    inst.commodities = shifted_permutation(n, 5.0);
    inst.options.epsilon = 0.08;
    inst.options.restrict_to_shortest_paths = ecmp;
    if (max_phases > 0) inst.options.max_phases = max_phases;
    inst.rrg = !ecmp;  // the ECMP variant is reported separately
    instances.push_back(std::move(inst));
  };

  add_rrg(40, 10, /*ecmp=*/false, 0);
  add_rrg(100, 10, /*ecmp=*/false, 0);
  if (!smoke) {
    // Size sweep at the paper's fixed degree...
    add_rrg(200, 10, /*ecmp=*/false, 400);
    add_rrg(500, 10, /*ecmp=*/false, 40);
    // ...and degree sweep at fixed size.
    add_rrg(200, 24, /*ecmp=*/false, 60);
    add_rrg(256, 32, /*ecmp=*/false, 40);
    add_rrg(100, 10, /*ecmp=*/true, 0);

    // Two-cluster instance: high-degree core plus a low-degree edge
    // cluster, permutation across everything — exercises skewed lengths.
    Instance clustered;
    clustered.name = "clustered_20x12_160x6";
    ClusterSpec spec;
    spec.degrees_a.assign(20, 12);
    spec.degrees_b.assign(160, 6);
    spec.cross_links = 60;
    clustered.graph = clustered_random_graph(spec, seed + 5).graph;
    clustered.commodities =
        shifted_permutation(clustered.graph.num_nodes(), 2.0);
    clustered.options.epsilon = 0.08;
    instances.push_back(std::move(clustered));
  }
  return instances;
}

template <typename Solve>
double min_wall_ms(int repeat, ThroughputResult& out, const Solve& solve) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeat; ++rep) {
    WallTimer timer;
    out = solve();
    best = std::min(best, timer.elapsed_ms());
  }
  return best;
}

struct InstanceReport {
  std::string name;
  int nodes = 0;
  int edges = 0;
  int commodities = 0;
  bool rrg = false;
  double fast_ms = 0.0;
  double baseline_ms = 0.0;
  double speedup = 0.0;
  double lambda = 0.0;
  double dual_bound = 0.0;
  double gap = 0.0;
  int phases = 0;
  bool matches_baseline = true;
  // Approximate-mode pass (same instance, SolverMode::kApprox).
  double approx_ms = 0.0;
  double approx_speedup = 0.0;  ///< exact fast_ms / approx_ms.
  double approx_lambda = 0.0;
  double approx_dual = 0.0;
  double approx_gap = 0.0;
  int approx_phases = 0;
  double approx_rel_err = 0.0;  ///< (approx - exact) / exact lambda.
  /// Tolerance asserted only when BOTH runs certified their gap — on
  /// phase-capped instances neither lambda is a converged estimate, so
  /// rel_err is recorded but not enforced.
  bool approx_checked = false;
  bool approx_within_tolerance = true;
};

double geomean_over(const std::vector<InstanceReport>& reports, bool rrg_only,
                    double InstanceReport::* numerator_ms = nullptr) {
  double log_sum = 0.0;
  int count = 0;
  for (const InstanceReport& r : reports) {
    const double speedup = numerator_ms == nullptr
                               ? r.speedup
                               : (r.approx_ms > 0.0 ? r.*numerator_ms / r.approx_ms
                                                    : 0.0);
    if (speedup <= 0.0 || (rrg_only && !r.rrg)) continue;
    log_sum += std::log(speedup);
    ++count;
  }
  return count > 0 ? std::exp(log_sum / count) : 0.0;
}

// One child process's re-run of the suite at a different pool width.
struct ThreadSectionInstance {
  std::string name;
  double fast_ms = 0.0;
  double approx_ms = 0.0;
  bool exact_bit_identical = true;
  bool approx_bit_identical = true;
};

struct ThreadSection {
  int threads = 0;
  bool ran = false;  ///< Child spawned, exited 0, and its JSON parsed.
  double approx_geomean_speedup = 0.0;  ///< At the child's thread count.
  std::vector<ThreadSectionInstance> instances;
};

std::string self_executable() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

std::string to_json(const std::vector<InstanceReport>& reports, bool smoke,
                    bool with_baseline, double geomean_speedup,
                    double rrg_class_speedup, double approx_geomean_speedup,
                    double rrg_class_approx_speedup,
                    const std::vector<ThreadSection>& sections) {
  std::string json = "{\n";
  json += "  \"bench\": \"solver\",\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"threads\": " + std::to_string(parallel_slots()) + ",\n";
  json += "  \"host_cores\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"baseline_compared\": " +
          std::string(with_baseline ? "true" : "false") + ",\n";
  json += "  \"geomean_speedup\": " + json_number(geomean_speedup) + ",\n";
  json += "  \"rrg_class_speedup\": " + json_number(rrg_class_speedup) + ",\n";
  json += "  \"approx_geomean_speedup\": " +
          json_number(approx_geomean_speedup) + ",\n";
  json += "  \"rrg_class_approx_speedup\": " +
          json_number(rrg_class_approx_speedup) + ",\n";
  json += "  \"instances\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const InstanceReport& r = reports[i];
    json += "    {\n";
    json += "      \"name\": " + json_string(r.name) + ",\n";
    json += "      \"nodes\": " + std::to_string(r.nodes) + ",\n";
    json += "      \"edges\": " + std::to_string(r.edges) + ",\n";
    json += "      \"commodities\": " + std::to_string(r.commodities) + ",\n";
    json += "      \"rrg_class\": " + std::string(r.rrg ? "true" : "false") +
            ",\n";
    json += "      \"fast_ms\": " + json_number(r.fast_ms) + ",\n";
    json += "      \"baseline_ms\": " + json_number(r.baseline_ms) + ",\n";
    json += "      \"speedup\": " + json_number(r.speedup) + ",\n";
    json += "      \"lambda\": " + json_number(r.lambda) + ",\n";
    json += "      \"dual_bound\": " + json_number(r.dual_bound) + ",\n";
    json += "      \"gap\": " + json_number(r.gap) + ",\n";
    json += "      \"phases\": " + std::to_string(r.phases) + ",\n";
    json += "      \"matches_baseline\": " +
            std::string(r.matches_baseline ? "true" : "false") + ",\n";
    json += "      \"approx_ms\": " + json_number(r.approx_ms) + ",\n";
    json += "      \"approx_speedup\": " + json_number(r.approx_speedup) +
            ",\n";
    json += "      \"approx_lambda\": " + json_number(r.approx_lambda) + ",\n";
    json += "      \"approx_dual_bound\": " + json_number(r.approx_dual) +
            ",\n";
    json += "      \"approx_gap\": " + json_number(r.approx_gap) + ",\n";
    json += "      \"approx_phases\": " + std::to_string(r.approx_phases) +
            ",\n";
    json += "      \"approx_rel_err\": " + json_number(r.approx_rel_err) +
            ",\n";
    json += "      \"approx_checked\": " +
            std::string(r.approx_checked ? "true" : "false") + ",\n";
    json += "      \"approx_within_tolerance\": " +
            std::string(r.approx_within_tolerance ? "true" : "false") + "\n";
    json += "    }";
    json += (i + 1 < reports.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"multithread\": [\n";
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const ThreadSection& sec = sections[s];
    json += "    {\n";
    json += "      \"threads\": " + std::to_string(sec.threads) + ",\n";
    json += "      \"ran\": " + std::string(sec.ran ? "true" : "false") +
            ",\n";
    json += "      \"approx_geomean_speedup\": " +
            json_number(sec.approx_geomean_speedup) + ",\n";
    json += "      \"instances\": [\n";
    for (std::size_t i = 0; i < sec.instances.size(); ++i) {
      const ThreadSectionInstance& ti = sec.instances[i];
      json += "        {\"name\": " + json_string(ti.name) +
              ", \"fast_ms\": " + json_number(ti.fast_ms) +
              ", \"approx_ms\": " + json_number(ti.approx_ms) +
              ", \"exact_bit_identical\": " +
              (ti.exact_bit_identical ? "true" : "false") +
              ", \"approx_bit_identical\": " +
              (ti.approx_bit_identical ? "true" : "false") + "}";
      json += (i + 1 < sec.instances.size()) ? ",\n" : "\n";
    }
    json += "      ]\n";
    json += "    }";
    json += (s + 1 < sections.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  return json;
}

// Spawns this binary again at `threads` pool slots (the pool is sized
// once per process, so a different width needs a fresh process), parses
// the child's JSON, and checks both modes' lambdas against the parent's.
ThreadSection run_thread_section(const std::string& exe, int threads,
                                 bool smoke, int repeat, std::uint64_t seed,
                                 const std::string& json_path,
                                 const std::vector<InstanceReport>& parent) {
  ThreadSection section;
  section.threads = threads;
  const std::string child_json =
      json_path + ".threads" + std::to_string(threads);
  std::vector<std::string> argv = {
      exe,      "--json",   child_json,
      "--seed", std::to_string(seed),
      "--repeat", std::to_string(repeat),
      "--no-baseline", "--no-multicore"};
  if (smoke) argv.push_back("--smoke");
  SpawnOptions options;
  options.env = {{"TOPOBENCH_THREADS", std::to_string(threads)}};
  options.log_path = child_json + ".log";
  Subprocess child = Subprocess::spawn(argv, options);
  const Subprocess::Status status = child.wait();
  if (!status.ok()) {
    std::cerr << "warning: threads=" << threads << " child failed (see "
              << options.log_path << ")\n";
    return section;
  }
  std::ifstream in(child_json);
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    const JsonValue root = parse_json(buffer.str());
    const JsonValue& instances = root.at("instances");
    for (const JsonValue& item : instances.items) {
      ThreadSectionInstance ti;
      ti.name = item.at("name").text;
      ti.fast_ms = item.at("fast_ms").number;
      ti.approx_ms = item.at("approx_ms").number;
      for (const InstanceReport& p : parent) {
        if (p.name != ti.name) continue;
        // Bit-for-bit, not within-tolerance: exact mode is singlethreaded
        // arithmetic, and approx mode's batched rounds are deterministic
        // for ANY pool width by construction.
        ti.exact_bit_identical = item.at("lambda").number == p.lambda;
        ti.approx_bit_identical =
            item.at("approx_lambda").number == p.approx_lambda;
      }
      section.instances.push_back(std::move(ti));
    }
    const JsonValue& geo = root.at("approx_geomean_speedup");
    section.approx_geomean_speedup = geo.number;
    section.ran = true;
  } catch (const std::exception& e) {
    std::cerr << "warning: threads=" << threads
              << " child JSON unreadable: " << e.what() << "\n";
    section.instances.clear();
    return section;
  }
  std::remove(child_json.c_str());
  std::remove(options.log_path.c_str());
  return section;
}

int run(int argc, const char* const* argv) {
  const Flags flags(argc, argv,
                    {"smoke", "repeat", "json", "seed", "no-baseline",
                     "threads", "no-multicore"});
  const bool smoke = flags.get_bool("smoke");
  const int repeat = flags.get_int("repeat", smoke ? 1 : 3);
  const std::string json_path = flags.get_string("json", "BENCH_solver.json");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool with_baseline = !flags.get_bool("no-baseline");
  const bool with_multicore = !flags.get_bool("no-multicore");
  if (const int threads = flags.get_int("threads", 0); threads > 0) {
    // Exported so child processes (and anything else we spawn) inherit
    // the width; the local pool is sized explicitly, failing loudly if a
    // parallel region already ran.
    ::setenv("TOPOBENCH_THREADS", std::to_string(threads).c_str(), 1);
    if (!set_parallel_slots(threads)) {
      std::cerr << "FAIL: --threads cannot take effect, pool already "
                   "started with "
                << parallel_slots() << " slots\n";
      return 1;
    }
  }

  std::cout << "perf_microbench: concurrent-flow solver vs seed baseline"
            << (smoke ? " (smoke)" : "") << "\n";
  std::cout << "threads: " << parallel_slots() << ", repeat: " << repeat
            << "\n\n";

  std::vector<InstanceReport> reports;
  bool all_match = true;
  bool all_within_tolerance = true;

  for (Instance& inst : make_instances(smoke, seed)) {
    InstanceReport report;
    report.name = inst.name;
    report.nodes = inst.graph.num_nodes();
    report.edges = inst.graph.num_edges();
    report.commodities = static_cast<int>(inst.commodities.size());
    report.rrg = inst.rrg;

    ThroughputResult fast;
    report.fast_ms = min_wall_ms(repeat, fast, [&] {
      return max_concurrent_flow(inst.graph, inst.commodities, inst.options);
    });
    report.lambda = fast.lambda;
    report.dual_bound = fast.dual_bound;
    report.gap = fast.gap;
    report.phases = fast.phases;

    if (with_baseline) {
      ThroughputResult base;
      report.baseline_ms = min_wall_ms(repeat, base, [&] {
        return max_concurrent_flow_baseline(inst.graph, inst.commodities,
                                            inst.options);
      });
      report.speedup =
          report.fast_ms > 0.0 ? report.baseline_ms / report.fast_ms : 0.0;
      const double scale =
          std::max({1.0, std::abs(base.lambda), std::abs(base.dual_bound)});
      report.matches_baseline =
          std::abs(fast.lambda - base.lambda) <= 1e-9 * scale &&
          std::abs(fast.dual_bound - base.dual_bound) <= 1e-9 * scale;
      all_match = all_match && report.matches_baseline;
    }

    FlowOptions approx_options = inst.options;
    approx_options.mode = SolverMode::kApprox;
    ThroughputResult approx;
    report.approx_ms = min_wall_ms(repeat, approx, [&] {
      return max_concurrent_flow(inst.graph, inst.commodities, approx_options);
    });
    report.approx_speedup =
        report.approx_ms > 0.0 ? report.fast_ms / report.approx_ms : 0.0;
    report.approx_lambda = approx.lambda;
    report.approx_dual = approx.dual_bound;
    report.approx_gap = approx.gap;
    report.approx_phases = approx.phases;
    report.approx_rel_err =
        fast.lambda != 0.0 ? (approx.lambda - fast.lambda) / fast.lambda : 0.0;
    // Enforce the tolerance only when both runs certified their gap: a
    // phase-capped instance's lambda is wherever the cap landed, not a
    // converged estimate, so comparing the two proves nothing.
    const double eps = inst.options.epsilon;
    report.approx_checked = fast.gap <= eps && approx.gap <= eps;
    report.approx_within_tolerance =
        !report.approx_checked || std::abs(report.approx_rel_err) <= eps;
    all_within_tolerance =
        all_within_tolerance && report.approx_within_tolerance;

    std::cout << report.name << ": fast " << report.fast_ms << " ms";
    if (with_baseline) {
      std::cout << ", baseline " << report.baseline_ms << " ms, speedup "
                << report.speedup << "x"
                << (report.matches_baseline ? "" : "  [RESULT MISMATCH]");
    }
    std::cout << ", approx " << report.approx_ms << " ms ("
              << report.approx_speedup << "x, rel_err "
              << report.approx_rel_err
              << (report.approx_within_tolerance ? "" : "  [OUT OF TOLERANCE]")
              << ")";
    std::cout << " (lambda " << report.lambda << ", gap " << report.gap
              << ", phases " << report.phases << ")\n";
    reports.push_back(report);
  }

  const double geomean_speedup = geomean_over(reports, /*rrg_only=*/false);
  const double rrg_class_speedup = geomean_over(reports, /*rrg_only=*/true);
  const double approx_geomean =
      geomean_over(reports, /*rrg_only=*/false, &InstanceReport::fast_ms);
  const double rrg_approx_geomean =
      geomean_over(reports, /*rrg_only=*/true, &InstanceReport::fast_ms);
  if (with_baseline) {
    std::cout << "\ngeomean speedup: " << geomean_speedup
              << "x (RRG class: " << rrg_class_speedup << "x)\n";
  }
  std::cout << "approx-vs-exact geomean: " << approx_geomean
            << "x (RRG class: " << rrg_approx_geomean << "x)\n";

  // Multithread section: re-run the suite at other pool widths in child
  // processes and require both modes to reproduce this process's lambdas
  // bit for bit. Width 2 is the cheap CI point; the host's full core
  // count captures real scaling where the machine has one.
  std::vector<ThreadSection> sections;
  bool all_deterministic = true;
  if (with_multicore) {
    const std::string exe = self_executable();
    if (exe.empty()) {
      std::cerr << "warning: cannot resolve /proc/self/exe; skipping the "
                   "multithread section\n";
    } else {
      std::vector<int> widths;
      for (const int t :
           {2, static_cast<int>(std::thread::hardware_concurrency())}) {
        if (t >= 2 && t != parallel_slots() &&
            std::find(widths.begin(), widths.end(), t) == widths.end()) {
          widths.push_back(t);
        }
      }
      for (const int t : widths) {
        ThreadSection section =
            run_thread_section(exe, t, smoke, repeat, seed, json_path, reports);
        if (!section.ran) {
          all_deterministic = false;
        }
        for (const ThreadSectionInstance& ti : section.instances) {
          if (!ti.exact_bit_identical || !ti.approx_bit_identical) {
            all_deterministic = false;
            std::cerr << "FAIL: threads=" << t << " " << ti.name
                      << (ti.exact_bit_identical ? "" : " exact-lambda drift")
                      << (ti.approx_bit_identical ? ""
                                                  : " approx-lambda drift")
                      << "\n";
          }
        }
        std::cout << "threads=" << t << ": "
                  << (section.ran ? "ok" : "FAILED")
                  << ", approx geomean " << section.approx_geomean_speedup
                  << "x\n";
        sections.push_back(std::move(section));
      }
    }
  }

  std::ofstream out(json_path);
  out << to_json(reports, smoke, with_baseline, geomean_speedup,
                 rrg_class_speedup, approx_geomean, rrg_approx_geomean,
                 sections);
  out.close();
  if (!out) {
    std::cerr << "FAIL: could not write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";

  if (!all_match) {
    std::cerr << "FAIL: solver results diverged from the seed baseline\n";
    return 1;
  }
  if (!all_within_tolerance) {
    std::cerr << "FAIL: approx lambda outside the epsilon tolerance of the "
                 "exact certificate\n";
    return 1;
  }
  if (!all_deterministic) {
    std::cerr << "FAIL: multithread runs did not reproduce the parent's "
                 "lambdas bit for bit\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace topo::bench

int main(int argc, char** argv) {
  try {
    return topo::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
