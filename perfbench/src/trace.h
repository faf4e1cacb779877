#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are opened and
// closed by the benchmark around its own calls into the library's public
// functions; nothing inside the library is instrumented. Span names reuse
// the library's telemetry span names (fold_index, build_instance,
// cluster, refine, expand, score, shard, ...).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t job = 0;
  /// Index of the enclosing span in Tracer::spans(), -1 for a root.
  int parent = -1;
  /// Seconds since the tracer was created.
  double start = 0.0;
  double end = 0.0;
  double duration() const { return end - start; }
};

class Tracer {
 public:
  Tracer();

  /// Spans opened from now on carry this job id.
  void SetJob(std::uint64_t job) { job_ = job; }
  /// Opens a span under the innermost open one and returns its index.
  int Begin(const std::string& name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of it that
  /// its child spans cover.
  std::vector<double> SelfTimes() const;

  /// Self time per layer under the root spans named `root`.
  struct Summary {
    /// Span name -> summed self time over every descendant of a root.
    std::map<std::string, double> self_seconds;
    std::size_t roots = 0;
    /// Summed root durations, and the part of them no child covers.
    double root_seconds = 0.0;
    double uncovered_seconds = 0.0;
    /// Lowest share of one root's duration that its children cover.
    double min_coverage = 1.0;
  };
  Summary Summarize(const std::string& root) const;

  /// Writes one JSON object per span (name, job, parent, start, end).
  bool WriteJsonLines(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::uint64_t job_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
