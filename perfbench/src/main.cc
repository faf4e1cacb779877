// perfbench: the repository benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// Runs one workload as a closed loop with one client and prints two
// lines on stdout: a detail object (host stamp, input shape, per-job and
// per-layer breakdown), then the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1). Exit code 2 on bad arguments, 1 when set-up fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace perfbench {

void SetupFailed(const std::string& what, const std::string& why) {
  std::fprintf(stderr, "perfbench: set-up failed: %s: %s\n", what.c_str(),
               why.c_str());
  std::exit(1);
}

std::vector<Metric> EndToEndMetrics(
    const std::vector<std::vector<double>>& seconds_by_kind,
    double peak_rss_mb, const std::vector<double>& setup_seconds,
    const std::vector<double>& probe_seconds, Json* detail) {
  double kinds = 0.0;
  double sum = 0.0;
  for (const std::vector<double>& seconds : seconds_by_kind) {
    if (seconds.empty()) continue;
    kinds += 1.0;
    sum += Median(seconds);
  }
  const double ops_per_s = Ratio(kinds, sum);
  const double setup_s = Median(setup_seconds);
  const double speed = Ratio(kProbeReferenceSeconds, Median(probe_seconds));
  detail->Num("ops_per_s_raw", ops_per_s)
      .Num("setup_s_raw", setup_s)
      .Arr("setup_s", setup_seconds)
      .Num("host_probe_s.p50", Median(probe_seconds))
      .Int("host_probe_s.samples", probe_seconds.size())
      .Num("host_speed", speed);
  return {{"ops_per_s", Ratio(ops_per_s, speed), "1/s"},
          {"peak_rss_mb", peak_rss_mb, "MB"},
          {"setup_s", setup_s * speed, "s"}};
}

std::vector<Metric> LayerMetrics(const LayerReport& report) {
  std::vector<Metric> metrics;
  const double traced = report.trace.root_seconds;
  auto share = [&](const std::string& layer) {
    const auto it = report.trace.self_seconds.find(layer);
    return it == report.trace.self_seconds.end() ? 0.0
                                                 : Ratio(it->second, traced);
  };
  metrics.push_back(
      {"trace.overhead", Ratio(traced, report.untraced_seconds), "ratio"});
  metrics.push_back({"trace.coverage", report.trace.min_coverage, "ratio"});
  metrics.push_back(
      {"trace.op_s",
       Ratio(traced, static_cast<double>(report.trace.roots)), "s"});
  for (const std::string& layer : LayerNames()) {
    metrics.push_back({layer + ".share", share(layer), "ratio"});
  }
  metrics.push_back({"fold_index.fold_ratio", report.fold_ratio, "ratio"});
  metrics.push_back({"build_instance.pairs", report.build_pairs, "count"});
  metrics.push_back(
      {"build_instance.bytes_computed", report.build_bytes, "B"});
  metrics.push_back({"refine.gain", report.refine_gain, "ratio"});
  metrics.push_back(
      {"sampling.singleton_ratio", report.singleton_ratio, "ratio"});
  metrics.push_back({"shard.cut_edges", report.shard_cut_edges, "count"});
  metrics.push_back(
      {"stream.pairs_touched", report.stream_pairs_touched, "count"});
  metrics.push_back(
      {"stream.repaired_ratio", report.stream_repaired_ratio, "ratio"});
  metrics.push_back({"stream.rebuilds", report.stream_rebuilds, "count"});
  metrics.push_back(
      {"local.distance_queries", report.local_distance_queries, "count"});
  metrics.push_back(
      {"local.chain_depth.p99", report.local_chain_depth_p99, "count"});
  metrics.push_back(
      {"local.memo_hit_ratio", report.local_memo_hit_ratio, "ratio"});
  metrics.push_back({"quality.cost_excess", report.cost_excess, "ratio"});
  return metrics;
}

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
               why);
  std::exit(2);
}

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                          1, 4);
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("missing flag value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--spans-out") {
      config.spans_path = value;
    } else if (!ParseUnsigned(value, &number)) {
      Usage("flag values must be non-negative integers");
    } else if (flag == "--seed") {
      config.seed = number;
    } else if (flag == "--seconds") {
      if (number == 0) Usage("--seconds must be positive");
      config.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (number > 1) Usage("--trace takes 0 or 1");
      config.trace = number == 1;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_workload) Usage("--workload is required");

  // The probe's inputs are built here, before any workload memory, so
  // they add the same amount to every run's peak RSS.
  HostProbeSeconds();
  RunResult result;
  if (IsBatchWorkload(config.workload)) {
    result = RunBatchWorkload(config);
  } else if (IsStreamWorkload(config.workload)) {
    result = RunStreamWorkload(config);
  } else {
    Usage("unknown workload");
  }

  Json metrics;
  for (const Metric& m : result.metrics) {
    Json metric;
    metric.Num("value", m.value).Str("unit", m.unit);
    metrics.Obj(m.name, metric);
  }
  std::printf("%s\n", result.detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics.ToString().c_str());
  return 0;
}
