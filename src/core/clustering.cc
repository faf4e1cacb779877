#include "core/clustering.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "core/internal/label_counts.h"

namespace clustagg {

Clustering::Clustering(std::vector<Label> labels)
    : labels_(std::move(labels)) {}

Result<Clustering> Clustering::FromLabels(std::vector<Label> labels) {
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] < 0 && labels[v] != kMissing) {
      return Status::InvalidArgument("label of object " + std::to_string(v) +
                                     " is negative and not kMissing");
    }
  }
  return Clustering(std::move(labels));
}

Clustering Clustering::AllSingletons(std::size_t n) {
  std::vector<Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) labels[v] = static_cast<Label>(v);
  return Clustering(std::move(labels));
}

Clustering Clustering::SingleCluster(std::size_t n) {
  return Clustering(std::vector<Label>(n, 0));
}

Result<Clustering> Clustering::FromClusters(
    std::size_t n, const std::vector<std::vector<std::size_t>>& clusters) {
  std::vector<Label> labels(n, kMissing);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (std::size_t v : clusters[c]) {
      if (v >= n) {
        return Status::InvalidArgument("cluster member " + std::to_string(v) +
                                       " out of range for n=" +
                                       std::to_string(n));
      }
      if (labels[v] != kMissing) {
        return Status::InvalidArgument("object " + std::to_string(v) +
                                       " appears in more than one cluster");
      }
      labels[v] = static_cast<Label>(c);
    }
  }
  return Clustering(std::move(labels));
}

bool Clustering::HasMissing() const {
  return std::find(labels_.begin(), labels_.end(), kMissing) != labels_.end();
}

std::size_t Clustering::CountMissing() const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), kMissing));
}

std::size_t Clustering::NumClusters() const {
  return internal::DenseLabels().Remap(labels_.data(), labels_.size(),
                                       nullptr);
}

void Clustering::Normalize() {
  internal::DenseLabels().Remap(labels_.data(), labels_.size(),
                                labels_.data());
}

Clustering Clustering::Normalized() const {
  Clustering copy = *this;
  copy.Normalize();
  return copy;
}

std::vector<std::vector<std::size_t>> Clustering::Clusters() const {
  std::vector<Label> ids(labels_.size());
  const std::size_t k = internal::DenseLabels().Remap(
      labels_.data(), labels_.size(), ids.data());
  std::vector<std::vector<std::size_t>> out(k);
  for (std::size_t v = 0; v < ids.size(); ++v) {
    if (ids[v] != kMissing) out[static_cast<std::size_t>(ids[v])].push_back(v);
  }
  return out;
}

std::vector<std::size_t> Clustering::ClusterSizes() const {
  std::vector<std::uint32_t> sizes;
  internal::DenseLabels().Remap(labels_.data(), labels_.size(), nullptr,
                                &sizes);
  return std::vector<std::size_t>(sizes.begin(), sizes.end());
}

Clustering Clustering::Restrict(const std::vector<std::size_t>& subset) const {
  std::vector<Label> labels(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    CLUSTAGG_CHECK(subset[i] < labels_.size());
    labels[i] = labels_[subset[i]];
  }
  return Clustering(std::move(labels));
}

Clustering Clustering::WithMissingAsSingletons() const {
  Clustering out = *this;
  Label next = 0;
  for (Label label : labels_) {
    if (label != kMissing && label >= next) next = label + 1;
  }
  for (auto& label : out.labels_) {
    if (label == kMissing) label = next++;
  }
  return out;
}

Status Clustering::Validate() const {
  for (std::size_t v = 0; v < labels_.size(); ++v) {
    if (labels_[v] < 0 && labels_[v] != kMissing) {
      return Status::InvalidArgument("label of object " + std::to_string(v) +
                                     " is negative and not kMissing");
    }
  }
  return Status::OK();
}

bool Clustering::SamePartition(const Clustering& other) const {
  if (size() != other.size()) return false;
  // Two partitions coincide iff the normalized (first-appearance) label
  // vectors are identical, because normalization is a canonical form.
  return Normalized() == other.Normalized();
}

}  // namespace clustagg
