#include "core/disagreement.h"

#include <vector>

#include "core/internal/label_counts.h"

namespace clustagg {

namespace {

Status CheckComparable(const Clustering& a, const Clustering& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument(
        "clusterings cover different numbers of objects (" +
        std::to_string(a.size()) + " vs " + std::to_string(b.size()) + ")");
  }
  if (a.HasMissing() || b.HasMissing()) {
    return Status::InvalidArgument(
        "disagreement distance requires complete clusterings; use "
        "ClusteringSet with a missing-value policy instead");
  }
  return Status::OK();
}

}  // namespace

Result<std::uint64_t> DisagreementDistanceNaive(const Clustering& a,
                                                const Clustering& b) {
  if (Status s = CheckComparable(a, b); !s.ok()) return s;
  const std::size_t n = a.size();
  std::uint64_t disagreements = 0;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      const bool together_a = a.label(u) == a.label(v);
      const bool together_b = b.label(u) == b.label(v);
      if (together_a != together_b) ++disagreements;
    }
  }
  return disagreements;
}

Result<std::uint64_t> DisagreementDistance(const Clustering& a,
                                           const Clustering& b) {
  if (Status s = CheckComparable(a, b); !s.ok()) return s;
  const Clustering::Label max_label =
      internal::MaxLabel(a.labels().data(), a.size());
  return internal::PairCounter(b)
      .Count({&a, 1}, {&max_label, 1})
      .front()
      .disagreements();
}

Result<std::uint64_t> CoClusteredPairs(const Clustering& c) {
  if (c.HasMissing()) {
    return Status::InvalidArgument(
        "CoClusteredPairs requires a complete clustering");
  }
  std::vector<std::uint32_t> sizes;
  internal::DenseLabels().Remap(c.labels().data(), c.size(), nullptr, &sizes);
  return internal::PairsWithin(sizes);
}

}  // namespace clustagg
