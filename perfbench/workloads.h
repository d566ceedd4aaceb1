// The benchmark's workloads. Each one runs a job exactly as a user does,
// through the layer's public entry point (the untraced measurement), and
// can replay the same cells layer by layer from the benchmark's own code
// with a span around every library call (the traced measurement).
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Correctness bookkeeping behind `error_rate`: operations attempted
/// (cells, candidates) and the checks they failed.
struct Checks {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  /// Things a check could not compare, said out loud instead of hidden.
  std::vector<std::string> notes;

  void ops(long long n) { attempted += n; }
  bool expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
    return ok;
  }
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  std::string root = ".";      ///< Repository checkout (for example specs).
  std::string work_dir = ".";  ///< Scratch space for result caches.
  bool smoke = false;          ///< Smallest size of every workload.
};

/// What one job repetition returned: every number, in a fixed order, so
/// repetitions and warm reruns can be compared bit for bit.
struct JobOutput {
  double seconds = 0.0;  ///< Wall time of the entry-point call alone.
  std::vector<double> values;
  long long operations = 0;    ///< Cells or candidates evaluated.
  long long cache_misses = 0;  ///< Cells computed rather than loaded.
};

/// The deterministic answer-quality metrics.
struct Quality {
  double lambda_mean = 0.0;
  double gap_mean = 0.0;
  double quality = 0.0;  ///< The workload's headline (quality_name()).
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// What `Quality::quality` is on this workload (e.g. packet_mean).
  [[nodiscard]] virtual const char* quality_name() const = 0;
  /// Loads specs and computes the job's inputs from the seed.
  virtual void setup() = 0;
  /// One cold repetition, into a fresh result cache.
  virtual JobOutput job() = 0;
  /// The same job again, warm, against the cache the last job filled.
  virtual JobOutput rerun() = 0;
  /// Checks the last job's answers with code other than the entry
  /// point's and derives the quality metrics.
  virtual Quality audit(Checks& checks) = 0;
  /// Replays the job's cells layer by layer (traced when a tracer is
  /// installed), checks them (against the last job too when `against_job`),
  /// and returns every lambda / dual bound it computed, in an order that
  /// does not depend on the thread count.
  virtual std::vector<double> replay(Checks& checks, bool against_job) = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Raises std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
