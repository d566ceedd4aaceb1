// In-memory span tracer for the benchmark's traced replay.
//
// Spans are recorded from the benchmark's own code, around each call into
// a library layer: a name, a start and end time, and the span that was
// open on the same thread when it began (its parent). Nothing here is
// compiled into the library; with no tracer installed every Scope is a
// no-op, so the same replay code also serves the untraced audit.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  /// Per-name aggregate: how many spans, and their durations.
  struct Layer {
    int count = 0;
    double total_ms = 0.0;
    std::vector<double> durations_ms;
  };

  int begin(const std::string& name, int parent) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }

  void add(const std::string& counter, double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    counters_[counter] += value;
  }

  [[nodiscard]] double counter(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] std::map<std::string, Layer> layers() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, Layer> out;
    for (const Span& s : spans_) {
      Layer& layer = out[s.name];
      ++layer.count;
      layer.total_ms += duration_ms(s);
      layer.durations_ms.push_back(duration_ms(s));
    }
    return out;
  }

  /// Share of the named spans' time covered by their direct children:
  /// how much of each cell's serial work the layer spans account for.
  [[nodiscard]] double covered_ratio(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<std::size_t>(s.parent)] += duration_ms(s);
      }
    }
    double total = 0.0;
    double covered = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      total += duration_ms(spans_[i]);
      covered += child_ms[i];
    }
    return total > 0.0 ? covered / total : 0.0;
  }

 private:
  static double duration_ms(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// The installed tracer; null (tracing off) outside the traced replay.
inline Tracer* g_tracer = nullptr;
inline thread_local int t_open_span = -1;

/// RAII span around one call into a layer.
class Scope {
 public:
  explicit Scope(const char* name) : tracer_(g_tracer) {
    if (tracer_ == nullptr) return;
    parent_ = t_open_span;
    id_ = tracer_->begin(name, parent_);
    t_open_span = id_;
  }
  ~Scope() {
    if (tracer_ == nullptr) return;
    tracer_->end(id_);
    t_open_span = parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
  int parent_ = -1;
};

/// Adds to a named counter of the installed tracer (no-op when off).
inline void count(const std::string& name, double value) {
  if (g_tracer != nullptr) g_tracer->add(name, value);
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
