#include "core/distance_source.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "core/clustering.h"
#include "core/instrumentation.h"
#include "core/internal/packed_labels.h"

namespace clustagg {

namespace internal {

/// Per-object label rows, hoisted once at build time so that distance
/// queries never re-walk Clustering objects or re-resolve the
/// missing-value policy setup per pair. The store is object-major:
/// labels[v * m + i] is the label of object v (in source index space)
/// under input clustering i, so the pair (u, v) compares two contiguous
/// m-length rows — one cache line each for typical m — instead of
/// striding by n across m separate columns.
struct DistanceColumns {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<Clustering::Label> labels;
  std::vector<double> weights;
  double total_weight = 0.0;
  MissingValueOptions missing;
  /// Bit-packed label lanes (see core/internal/packed_labels.h), built
  /// whenever every input weight is exactly 1.0, every column's codes
  /// fit <= 16-bit lanes (missing cells take code 0), the value table
  /// stays within kMaxPackedValueTable entries, and the active kernel
  /// tier enables packing. Queries then read (d, o) off the packed
  /// words and answer from packed_value; nullptr keeps the general loop
  /// in ColumnDistance, the reference path.
  std::unique_ptr<PackedLabels> packed;
  /// Hot fields of *packed, flattened so a single point query reads
  /// them straight off this struct (already in cache from the bounds
  /// check) instead of chasing packed -> words/classes — three
  /// dependent loads that would dominate a ~10-op kernel.
  /// packed_words is non-null only for single-word layouts, and
  /// packed_present only for single-word missing-aware ones.
  const std::uint64_t* packed_words = nullptr;
  const std::uint64_t* packed_present = nullptr;
  std::uint64_t packed_lsb_mask = 0;
  std::uint32_t packed_width = 0;
  std::uint32_t packed_mul_shift = 0;
  bool packed_mul = false;
  /// The (d, o) value table, indexed by PackedValueIndex:
  /// packed_value[(m - o) * (m + 1) + d] = float(PolicyDistance(d, o)),
  /// the general loop's arithmetic on the integers it would sum with
  /// unit weights. Unit-weight sums are exact, so every entry carries
  /// the general path's bits and the query trades the policy branch
  /// and division for one L1 load.
  std::vector<float> packed_value;
};

}  // namespace internal

namespace {

/// Largest (d, o) value table a packed source builds (4 MiB of float).
/// (missing_columns + 1) * (m + 1) fits it for every m < 1024; wider
/// instances with many missing columns keep the general loop.
constexpr std::size_t kMaxPackedValueTable = std::size_t{1} << 20;

/// X_uv from the weighted disagreeing and opinionated sums under the
/// configured missing-value policy — the arithmetic of
/// ClusteringSet::PairwiseDistance, shared by the general loop and the
/// packed value table so both produce the same bits.
double PolicyDistance(const internal::DistanceColumns& cols,
                      double disagreeing, double opinionated) {
  switch (cols.missing.policy) {
    case MissingValuePolicy::kRandomCoin:
      disagreeing += (cols.total_weight - opinionated) *
                     (1.0 - cols.missing.coin_together_probability);
      return disagreeing / cols.total_weight;
    case MissingValuePolicy::kIgnore:
      if (opinionated == 0.0) return 0.5;
      return disagreeing / opinionated;
  }
  CLUSTAGG_CHECK(false);
  return 0.0;
}

internal::DistanceColumns MakeColumns(const ClusteringSet& input,
                                      const std::vector<std::size_t>* subset,
                                      const MissingValueOptions& missing) {
  internal::DistanceColumns cols;
  cols.n = subset != nullptr ? subset->size() : input.num_objects();
  cols.m = input.num_clusterings();
  cols.missing = missing;
  cols.total_weight = input.total_weight();
  cols.weights.resize(cols.m);
  cols.labels.resize(cols.m * cols.n);
  bool unit_weights = true;
  for (std::size_t i = 0; i < cols.m; ++i) {
    cols.weights[i] = input.weight(i);
    if (cols.weights[i] != 1.0) unit_weights = false;
    const Clustering& c = input.clustering(i);
    Clustering::Label* out = cols.labels.data() + i;
    for (std::size_t v = 0; v < cols.n; ++v) {
      out[v * cols.m] = c.label(subset != nullptr ? (*subset)[v] : v);
    }
  }
  if (unit_weights && internal::ActivePackedKernelTier() !=
                          internal::PackedKernelTier::kPortable) {
    cols.packed =
        internal::PackLabelRows(cols.labels.data(), cols.n, cols.m);
    if (cols.packed != nullptr &&
        internal::PackedValueTableSize(*cols.packed) > kMaxPackedValueTable) {
      cols.packed.reset();
    }
  }
  if (cols.packed != nullptr) {
    const std::size_t m = cols.m;
    cols.packed_value.assign(internal::PackedValueTableSize(*cols.packed),
                             0.0f);
    for (std::size_t o = m - cols.packed->missing_columns; o <= m; ++o) {
      for (std::size_t d = 0; d <= o; ++d) {
        cols.packed_value[internal::PackedValueIndex(m, d, o)] =
            static_cast<float>(PolicyDistance(cols, static_cast<double>(d),
                                              static_cast<double>(o)));
      }
    }
    if (cols.packed->words_per_object == 1) {
      const internal::PackedClass& cls = cols.packed->classes[0];
      cols.packed_words = cols.packed->words.data();
      if (cols.packed->missing_aware()) {
        cols.packed_present = cols.packed->present.data();
      }
      cols.packed_lsb_mask = cls.lsb_mask;
      cols.packed_width = cls.width;
      cols.packed_mul_shift = cols.packed->mul_shift;
      cols.packed_mul = cols.packed->mul_count_ok;
    }
  }
  return cols;
}

/// X_uv over the hoisted label rows. The general loop's accumulation
/// order (ascending i) and arithmetic match
/// ClusteringSet::PairwiseDistance exactly so both backends (and the
/// legacy serial builder) agree to the last bit; packed sources answer
/// from the value table, whose entries are that same arithmetic.
double ColumnDistance(const internal::DistanceColumns& cols, std::size_t u,
                      std::size_t v) {
  if (u == v) return 0.0;
  if (cols.packed_words != nullptr) {
    // Single packed word per object: XOR + lane-collapse + count (and
    // for missing-aware layouts the presence AND and a second count),
    // then the table. All operands live on this struct or in two to
    // four word loads, so the query carries no pointer chain.
    const std::uint64_t mask = cols.packed_lsb_mask;
    const auto count = [&](std::uint64_t collapsed) -> std::size_t {
      return cols.packed_mul ? (collapsed * mask) >> cols.packed_mul_shift
                             : internal::CountLaneLsbs(collapsed,
                                                       cols.packed_width);
    };
    const std::uint64_t diff = internal::CollapseToLaneLsb(
        cols.packed_words[u] ^ cols.packed_words[v], cols.packed_width,
        mask);
    if (cols.packed_present == nullptr) return cols.packed_value[count(diff)];
    const std::uint64_t both = cols.packed_present[u] & cols.packed_present[v];
    return cols.packed_value[internal::PackedValueIndex(
        cols.m, count(diff & both), count(both))];
  }
  if (cols.packed != nullptr) {
    return cols.packed_value[internal::PackedValueIndex(*cols.packed, u, v)];
  }
  const std::size_t m = cols.m;
  const Clustering::Label* row_u = cols.labels.data() + u * m;
  const Clustering::Label* row_v = cols.labels.data() + v * m;
  double disagreeing = 0.0;
  double opinionated = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const Clustering::Label lu = row_u[i];
    const Clustering::Label lv = row_v[i];
    if (lu == Clustering::kMissing || lv == Clustering::kMissing) continue;
    opinionated += cols.weights[i];
    if (lu != lv) disagreeing += cols.weights[i];
  }
  return PolicyDistance(cols, disagreeing, opinionated);
}

Result<std::shared_ptr<const DenseDistanceSource>> BuildDenseFromColumns(
    const internal::DistanceColumns& cols, std::size_t num_threads,
    const RunContext& run) {
  if (cols.n > 1 && run.SimulateAllocationFailure(cols.n * (cols.n - 1) / 2 *
                                                  sizeof(float))) {
    return Status::ResourceExhausted(
        "simulated allocation failure for the dense distance matrix (" +
        std::to_string(cols.n) + " objects)");
  }
  Result<SymmetricMatrix<float>> matrix =
      SymmetricMatrix<float>::Create(cols.n);
  if (!matrix.ok()) return matrix.status();
  SymmetricMatrix<float> distances = std::move(matrix).value();
  const std::size_t n = cols.n;
  std::vector<float>& packed = distances.packed();
  const std::size_t threads =
      EffectiveRowThreads(n, ResolveThreadCount(num_threads));
  TelemetryCount(run.telemetry(), "build.dense_builds");
  TelemetrySetGauge(run.telemetry(), "build.dense_threads",
                    static_cast<std::int64_t>(threads));
  InstrumentedTimer build_timer(run.telemetry(), "build.dense_nanos");
  // Row-band fill: the triangle is carved into bands of consecutive
  // rows, and each row's tail [u+1, n) is filled in one contiguous
  // sweep — by the packed row kernel when the source packs (a word or
  // two per object, so the whole packed store usually sits in L1/L2
  // and needs no column tiling), else by the general loop. Bands are
  // disjoint contiguous slices of the packed store, so every thread
  // writes its own memory and the result is schedule-independent
  // regardless of how bands land on threads. Each band charges its row
  // count against the iteration budget (the loop helper charges one
  // unit per band; the top-up below restores per-row accounting). A
  // half-filled matrix is unusable, so when the budget fires mid-fill
  // the build fails with the interrupt status rather than returning
  // garbage.
  constexpr std::size_t kBandRows = 64;
  // Cost-weighted bands: row u owns n - u - 1 pairs, so fixed-height
  // bands at the top of the triangle carry up to twice the average work
  // and a chunk of consecutive heavy bands claimed by one thread becomes
  // the straggler that flattens thread scaling. Bands here grow until
  // they hold ~kBandRows * n / 2 pairs (an average fixed band's mass) or
  // hit kBandRows rows, so every claimed chunk carries near-equal work:
  // heavy top rows get short bands, light bottom rows fill to the full
  // height. Boundaries depend only on n — never on the thread count —
  // so the fill and its exact per-row iteration accounting stay
  // schedule-independent.
  std::vector<std::size_t> band_start;
  band_start.reserve(n / (kBandRows / 2) + 2);
  const std::uint64_t target_pairs =
      static_cast<std::uint64_t>(kBandRows) * static_cast<std::uint64_t>(n) /
      2;
  for (std::size_t u0 = 0; u0 < n;) {
    band_start.push_back(u0);
    std::uint64_t mass = 0;
    std::size_t u1 = u0;
    while (u1 < n && u1 - u0 < kBandRows) {
      mass += static_cast<std::uint64_t>(n - u1 - 1);
      ++u1;
      if (mass >= target_pairs) break;
    }
    u0 = u1;
  }
  band_start.push_back(n);
  const std::size_t num_bands = band_start.size() - 1;
  const bool completed = ParallelForRowsCancellable(
      num_bands, threads, run, [&](std::size_t band, std::size_t) {
        const std::size_t u0 = band_start[band];
        const std::size_t u1 = band_start[band + 1];
        if (u1 - u0 > 1) run.ChargeIterations(u1 - u0 - 1);
        for (std::size_t u = u0; u < u1 && u + 1 < n; ++u) {
          float* row = packed.data() + distances.PackedIndex(u, u + 1);
          if (cols.packed != nullptr) {
            internal::PackedMismatchRowFloat(*cols.packed, u, u + 1, n,
                                             cols.total_weight,
                                             cols.packed_value.data(), row);
            continue;
          }
          for (std::size_t v = u + 1; v < n; ++v) {
            row[v - u - 1] = static_cast<float>(ColumnDistance(cols, u, v));
          }
        }
      });
  if (!completed) {
    const RunOutcome outcome = run.Poll();
    return outcome == RunOutcome::kConverged
               ? Status::DeadlineExceeded("dense build interrupted")
               : run.StopStatus(outcome);
  }
  return std::make_shared<const DenseDistanceSource>(std::move(distances));
}

}  // namespace

const char* DistanceBackendName(DistanceBackend backend) {
  switch (backend) {
    case DistanceBackend::kDense:
      return "dense";
    case DistanceBackend::kLazy:
      return "lazy";
  }
  CLUSTAGG_CHECK(false);
  return "unknown";
}

void DistanceSource::FillRow(std::size_t u, std::span<double> row) const {
  const std::size_t n = size();
  CLUSTAGG_CHECK(u < n && row.size() >= n);
  for (std::size_t v = 0; v < n; ++v) row[v] = distance(u, v);
}

void DistanceSource::AgreementRow(std::size_t u,
                                  std::span<char> agree) const {
  const std::size_t n = size();
  CLUSTAGG_CHECK(u < n && agree.size() >= n);
  for (std::size_t v = 0; v < n; ++v) {
    agree[v] = distance(u, v) < 0.5 ? 1 : 0;
  }
}

Result<std::shared_ptr<const DenseDistanceSource>> DenseDistanceSource::Build(
    const ClusteringSet& input, const MissingValueOptions& missing,
    std::size_t num_threads, const RunContext& run) {
  return BuildDenseFromColumns(MakeColumns(input, nullptr, missing),
                               num_threads, run);
}

Result<std::shared_ptr<const DenseDistanceSource>>
DenseDistanceSource::BuildSubset(const ClusteringSet& input,
                                 const std::vector<std::size_t>& subset,
                                 const MissingValueOptions& missing,
                                 std::size_t num_threads,
                                 const RunContext& run) {
  for (std::size_t v : subset) CLUSTAGG_CHECK(v < input.num_objects());
  return BuildDenseFromColumns(MakeColumns(input, &subset, missing),
                               num_threads, run);
}

void DenseDistanceSource::FillRow(std::size_t u, std::span<double> row) const {
  const std::size_t n = distances_.size();
  CLUSTAGG_CHECK(u < n && row.size() >= n);
  if (u > 0) {
    // Column u of the strict upper triangle: entry (v, u) sits at packed
    // offset PackedIndex(v, u), and stepping v -> v+1 shrinks row v's
    // remaining tail by one, so consecutive entries are n - v - 2 apart.
    // Walking by that stride replaces a packed-index multiply per element
    // with one addition.
    const float* packed = distances_.packed().data();
    std::size_t idx = u - 1;  // PackedIndex(0, u)
    for (std::size_t v = 0; v + 1 < u; ++v) {
      row[v] = packed[idx];
      idx += n - v - 2;
    }
    row[u - 1] = packed[idx];
  }
  row[u] = 0.0;
  if (u + 1 < n) {
    const float* tail =
        distances_.packed().data() + distances_.PackedIndex(u, u + 1);
    for (std::size_t v = u + 1; v < n; ++v) row[v] = tail[v - u - 1];
  }
}

void DenseDistanceSource::AgreementRow(std::size_t u,
                                       std::span<char> agree) const {
  const std::size_t n = distances_.size();
  CLUSTAGG_CHECK(u < n && agree.size() >= n);
  // Same strided column walk as FillRow, comparing in float (identical
  // to comparing the widened double against 0.5).
  if (u > 0) {
    const float* packed = distances_.packed().data();
    std::size_t idx = u - 1;  // PackedIndex(0, u)
    for (std::size_t v = 0; v + 1 < u; ++v) {
      agree[v] = packed[idx] < 0.5f ? 1 : 0;
      idx += n - v - 2;
    }
    agree[u - 1] = packed[idx] < 0.5f ? 1 : 0;
  }
  agree[u] = 1;
  if (u + 1 < n) {
    const float* tail =
        distances_.packed().data() + distances_.PackedIndex(u, u + 1);
    for (std::size_t v = u + 1; v < n; ++v) {
      agree[v] = tail[v - u - 1] < 0.5f ? 1 : 0;
    }
  }
}

LazyDistanceSource::LazyDistanceSource(
    std::unique_ptr<internal::DistanceColumns> columns)
    : columns_(std::move(columns)) {}

LazyDistanceSource::~LazyDistanceSource() = default;

Result<std::shared_ptr<const LazyDistanceSource>> LazyDistanceSource::Build(
    const ClusteringSet& input, const MissingValueOptions& missing) {
  return std::shared_ptr<const LazyDistanceSource>(
      new LazyDistanceSource(std::make_unique<internal::DistanceColumns>(
          MakeColumns(input, nullptr, missing))));
}

Result<std::shared_ptr<const LazyDistanceSource>>
LazyDistanceSource::BuildSubset(const ClusteringSet& input,
                                const std::vector<std::size_t>& subset,
                                const MissingValueOptions& missing) {
  for (std::size_t v : subset) CLUSTAGG_CHECK(v < input.num_objects());
  return std::shared_ptr<const LazyDistanceSource>(
      new LazyDistanceSource(std::make_unique<internal::DistanceColumns>(
          MakeColumns(input, &subset, missing))));
}

std::size_t LazyDistanceSource::size() const { return columns_->n; }

double LazyDistanceSource::distance(std::size_t u, std::size_t v) const {
  CLUSTAGG_CHECK(u < columns_->n && v < columns_->n);
  // Round through float so dense and lazy answers are bit-identical.
  return static_cast<float>(ColumnDistance(*columns_, u, v));
}

void LazyDistanceSource::FillRow(std::size_t u, std::span<double> row) const {
  const internal::DistanceColumns& cols = *columns_;
  const std::size_t n = cols.n;
  CLUSTAGG_CHECK(u < n && row.size() >= n);
  if (cols.packed != nullptr) {
    internal::PackedMismatchRowDouble(*cols.packed, u, 0, n,
                                      cols.total_weight,
                                      cols.packed_value.data(), row.data());
    return;
  }
  for (std::size_t v = 0; v < n; ++v) {
    row[v] = static_cast<float>(ColumnDistance(cols, u, v));
  }
}

void LazyDistanceSource::AgreementRow(std::size_t u,
                                      std::span<char> agree) const {
  const internal::DistanceColumns& cols = *columns_;
  const std::size_t n = cols.n;
  CLUSTAGG_CHECK(u < n && agree.size() >= n);
  if (cols.packed != nullptr) {
    internal::PackedAgreementRow(*cols.packed, u, 0, n,
                                 cols.packed_value.data(), agree.data());
    return;
  }
  for (std::size_t v = 0; v < n; ++v) {
    agree[v] = static_cast<float>(ColumnDistance(cols, u, v)) < 0.5f ? 1 : 0;
  }
}

bool LazyDistanceSource::uses_packed_labels() const {
  return columns_->packed != nullptr;
}

Result<std::shared_ptr<const DistanceSource>> BuildDistanceSource(
    const ClusteringSet& input, const MissingValueOptions& missing,
    const DistanceSourceOptions& options) {
  switch (options.backend) {
    case DistanceBackend::kDense: {
      Result<std::shared_ptr<const DenseDistanceSource>> dense =
          DenseDistanceSource::Build(input, missing, options.num_threads,
                                     options.run);
      if (!dense.ok()) return dense.status();
      return std::shared_ptr<const DistanceSource>(std::move(dense).value());
    }
    case DistanceBackend::kLazy: {
      Result<std::shared_ptr<const LazyDistanceSource>> lazy =
          LazyDistanceSource::Build(input, missing);
      if (!lazy.ok()) return lazy.status();
      TelemetryCount(options.run.telemetry(), "build.lazy_builds");
      return std::shared_ptr<const DistanceSource>(std::move(lazy).value());
    }
  }
  return Status::Internal("unknown distance backend");
}

Result<std::shared_ptr<const DistanceSource>> BuildDistanceSourceSubset(
    const ClusteringSet& input, const std::vector<std::size_t>& subset,
    const MissingValueOptions& missing, const DistanceSourceOptions& options) {
  switch (options.backend) {
    case DistanceBackend::kDense: {
      Result<std::shared_ptr<const DenseDistanceSource>> dense =
          DenseDistanceSource::BuildSubset(input, subset, missing,
                                           options.num_threads, options.run);
      if (!dense.ok()) return dense.status();
      return std::shared_ptr<const DistanceSource>(std::move(dense).value());
    }
    case DistanceBackend::kLazy: {
      Result<std::shared_ptr<const LazyDistanceSource>> lazy =
          LazyDistanceSource::BuildSubset(input, subset, missing);
      if (!lazy.ok()) return lazy.status();
      TelemetryCount(options.run.telemetry(), "build.lazy_builds");
      return std::shared_ptr<const DistanceSource>(std::move(lazy).value());
    }
  }
  return Status::Internal("unknown distance backend");
}

}  // namespace clustagg
