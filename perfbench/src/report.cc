#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/stopwatch.h"
#include "core/internal/packed_labels.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::pair<double, double> TailPercentile(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) return {0.0, values.front()};
  // Nearest rank r leaves n - r samples above it; keep at least ten.
  const std::size_t rank = n - 10;
  return {100.0 * static_cast<double>(rank) / static_cast<double>(n),
          values[rank - 1]};
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Json& Json::Num(const std::string& key, double value) {
  fields_.emplace_back(key, FormatNumber(value));
  return *this;
}

Json& Json::Int(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

Json& Json::Obj(const std::string& key, const Json& nested) {
  fields_.emplace_back(key, nested.ToString());
  return *this;
}

Json& Json::Arr(const std::string& key, const std::vector<double>& values) {
  std::string rendered = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) rendered += ", ";
    rendered += FormatNumber(values[i]);
  }
  fields_.emplace_back(key, rendered + "]");
  return *this;
}

std::string Json::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

/// A single random cycle through 0..n-1: following next[i] from any
/// start visits every slot, so each load depends on the one before.
std::vector<std::uint32_t> RandomCycle(std::uint32_t n) {
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (std::uint32_t i = n - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % (i + 1)]);
  }
  std::vector<std::uint32_t> next(n);
  for (std::uint32_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
  return next;
}

std::uint64_t Lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

/// The probe's inputs, built once per process.
struct ProbeData {
  std::vector<std::uint32_t> cycle = RandomCycle(1u << 21);  // 8 MB
  std::vector<std::uint64_t> array = std::vector<std::uint64_t>(1u << 20, 1);
  std::vector<std::uint32_t> unsorted;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::mutex mutex;

  ProbeData() {
    std::uint64_t state = 7;
    unsorted.resize(100000);
    for (std::uint32_t& value : unsorted) {
      value = static_cast<std::uint32_t>(Lcg(state));
    }
    for (std::uint64_t i = 0; i < 65536; ++i) table[i * 2654435761ull] = i;
  }
};

volatile std::uint64_t probe_sink;

}  // namespace

double HostProbeSeconds() {
  static ProbeData data;
  const clustagg::Stopwatch watch;
  // Dependent integer ALU chains.
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (std::uint64_t i = 0; i < 1500000; ++i) {
    a = (a ^ (a >> 29)) * 0xbf58476d1ce4e5b9ull + i;
    b = (b ^ (b >> 31)) * 0x94d049bb133111ebull + a;
    c = static_cast<std::uint64_t>(__builtin_popcountll(c ^ b)) + (c << 3) + d;
    d = (d >> 1) ^ (c & 0xff00ff) ^ a;
  }
  // Dependent loads, mostly cache misses.
  std::uint32_t at = 0;
  for (int i = 0; i < 75000; ++i) at = data.cycle[at];
  // Memory bandwidth.
  std::uint64_t sum = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (std::size_t i = 0; i < data.array.size(); ++i) {
      data.array[i] += i;
      sum += data.array[i];
    }
  }
  // Branchy code: sorting random keys.
  std::vector<std::uint32_t> keys = data.unsorted;
  std::sort(keys.begin(), keys.end());
  // Hash lookups, half of them misses.
  std::uint64_t state = 11;
  for (int i = 0; i < 400000; ++i) {
    const auto it = data.table.find((Lcg(state) & 131071) * 2654435761ull);
    if (it != data.table.end()) sum += it->second;
  }
  // Uncontended lock round trips.
  for (std::uint64_t i = 0; i < 500000; ++i) {
    const std::lock_guard<std::mutex> lock(data.mutex);
    sum += i;
  }
  probe_sink = a + b + c + d + at + sum + keys[keys.size() / 2];
  return watch.ElapsedSeconds();
}

Json HostJson(std::size_t library_threads) {
  namespace internal = clustagg::internal;
  Json host;
  host.Int("hardware_threads", std::thread::hardware_concurrency());
  host.Int("library_threads", library_threads);
  host.Str("cpu", CpuModel());
  host.Str("compiler", __VERSION__);
  host.Str("build_type", PERFBENCH_BUILD_TYPE);
  host.Str("kernel_tier", internal::PackedKernelTierName(
                              internal::ActivePackedKernelTier()));
  host.Int("avx2_kernel", internal::Avx2KernelAvailable() ? 1 : 0);
  host.Int("avx2_cpu", __builtin_cpu_supports("avx2") ? 1 : 0);
  return host;
}

}  // namespace perfbench
