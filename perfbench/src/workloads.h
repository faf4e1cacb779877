#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {

/// Span names whose self-time share of a traced operation is reported,
/// in metric order. Batch workloads use the first eight, stream-serve
/// the rest; a layer a workload never enters reports a share of 0.
inline const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> names = {
      "fold_index",    "build_instance",       "cluster",     "refine",
      "expand",        "score",                "sampling",    "shard",
      "stream.ingest", "stream.flush",         "stream.current_input",
      "local.build",   "local.query"};
  return names;
}

/// Everything the traced run reports. Counts are per traced operation
/// unless perfbench/README.md says otherwise.
struct LayerReport {
  /// Layer self times over the traced operations (one root span each).
  Tracer::Summary trace;
  /// Summed wall time of the traced operations' untraced twins.
  double untraced_seconds = 0.0;

  double fold_ratio = 1.0;
  double build_pairs = 0.0;
  double build_bytes = 0.0;
  double refine_gain = 0.0;
  double singleton_ratio = 0.0;
  double shard_cut_edges = 0.0;
  double stream_pairs_touched = 0.0;
  double stream_repaired_ratio = 0.0;
  double stream_rebuilds = 0.0;
  double local_distance_queries = 0.0;
  double local_chain_depth_p99 = 0.0;
  double local_memo_hit_ratio = 0.0;
  double cost_excess = 0.0;
};

/// The per-layer metric list (identical names on every workload).
std::vector<Metric> LayerMetrics(const LayerReport& report);

/// The end-to-end metric list (identical names on every workload).
/// `seconds_by_kind[k]` holds the wall times of every completed operation
/// of kind k (one kind per (job, input) pair of a batch run, or per round
/// of a stream pass). With p50_k the median of kind k over K kinds, the
/// raw rate is
///   K / sum_k p50_k   (the mix's rate at median call times).
/// Medians per kind keep a stray slow call, and how many calls of each
/// kind fit in the run, out of the number. With one client in
/// a closed loop the mean call time is its reciprocal, so no separate
/// latency metric is gated; per-kind medians and tails are in the detail
/// line.
///
/// `probe_seconds` are HostProbeSeconds() samples taken between the
/// run's operations. host_speed = kProbeReferenceSeconds / their median,
/// and the gated figures are the raw ones at host speed 1:
///   ops_per_s = raw rate / host_speed,  setup_s = raw set-up * host_speed.
/// The raw figures, the probe median and host_speed go to `detail`.
std::vector<Metric> EndToEndMetrics(
    const std::vector<std::vector<double>>& seconds_by_kind,
    double peak_rss_mb, const std::vector<double>& setup_seconds,
    const std::vector<double>& probe_seconds, Json* detail);

/// Command-line settings of one benchmark run.
struct RunConfig {
  std::string workload;
  /// Workload seed: only the input generators see it; every algorithm
  /// seed inside the library keeps its fixed default.
  std::uint64_t seed = 7;
  /// Timed seconds to accumulate before the closed loop stops (it stops
  /// at the next whole job-mix cycle).
  double seconds = 10.0;
  /// false: untraced run, end-to-end metrics. true: traced run, per-layer
  /// metrics (each traced operation alternates with its untraced twin).
  bool trace = false;
  /// Library threads for the multi-threaded workloads: the hardware
  /// thread count, capped at 4.
  std::size_t threads = 4;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// Exits with code 1 and no result: a set-up step failed, so the
/// workload itself is broken.
[[noreturn]] void SetupFailed(const std::string& what, const std::string& why);

/// mushrooms-dense, census-fold, gaussian-1m.
bool IsBatchWorkload(const std::string& name);
RunResult RunBatchWorkload(const RunConfig& config);

/// stream-serve.
bool IsStreamWorkload(const std::string& name);
RunResult RunStreamWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
