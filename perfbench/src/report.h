#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Result plumbing shared by every workload: named metrics, order
// statistics, a flat JSON writer, peak-RSS probes and the host stamp.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One reported number. `value` is printed with every significant digit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main: the four result-line
/// fields plus a free-form detail object printed on the line before.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Rendered JSON object with workload shape, per-job and per-layer
  /// breakdowns that do not fit the flat metric list.
  std::string detail = "{}";
};

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 for
/// an empty one.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// num / den, or 0 when den is 0 (a layer or phase that never ran).
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// The highest percentile that still leaves at least ten samples beyond
/// it, as (percentile, value). With fewer than eleven samples there is no
/// such percentile and the result is (0, minimum).
std::pair<double, double> TailPercentile(std::vector<double> values);

/// Ordered JSON object builder (numbers, strings, nested objects).
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, std::uint64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Obj(const std::string& key, const Json& nested);
  Json& Arr(const std::string& key, const std::vector<double>& values);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Renders a number with all its significant digits (%.17g).
std::string FormatNumber(double value);

/// Peak resident set size of this process in MB, set-up included (VmHWM,
/// or getrusage's maxrss where /proc is unavailable).
double PeakRssMb();

/// Host provenance: hardware threads, CPU model, compiler, build type,
/// active packed-label kernel tier and AVX2 kernel availability.
Json HostJson(std::size_t library_threads);

/// Wall seconds of one pass of a fixed host-speed probe, about 53 ms on
/// the host that set kProbeReferenceSeconds: dependent integer ALU
/// chains, a dependent-load chase over an 8 MB random cycle, sweeps over
/// an 8 MB array, a sort of 100K random keys, 400K hash-table lookups and
/// 500K uncontended lock round trips. It calls nothing in the library, so
/// a library change cannot move it; a shared host's drift (neighbours'
/// load on cores, caches and memory) moves it along with the workload.
/// Its inputs are built on first use and kept (about 20 MB of RSS).
double HostProbeSeconds();

/// Probe time that defines host speed 1: the probe's median on a 4-thread
/// Xeon @ 2.1 GHz (GCC 12.2, Release). Gated times are scaled to it.
inline constexpr double kProbeReferenceSeconds = 0.053;

/// Timed operation seconds between two probes: a probe follows the
/// operation that brings the timed total since the last probe to this.
inline constexpr double kProbeEverySeconds = 1.0;

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
