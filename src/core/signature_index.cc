#include "core/signature_index.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "core/internal/packed_labels.h"

namespace clustagg {

namespace {

/// FNV-1a over an object's m-label row. Collisions are resolved by full
/// row comparison, so the hash only affects speed, never the grouping.
std::uint64_t HashRow(const Clustering::Label* row, std::size_t m) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < m; ++i) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(row[i]));
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

SignatureIndex SignatureIndex::Build(const ClusteringSet& input) {
  return BuildImpl(input, nullptr);
}

SignatureIndex SignatureIndex::BuildSubset(
    const ClusteringSet& input, const std::vector<std::size_t>& subset) {
  for (std::size_t v : subset) CLUSTAGG_CHECK(v < input.num_objects());
  return BuildImpl(input, &subset);
}

SignatureIndex SignatureIndex::BuildImpl(
    const ClusteringSet& input, const std::vector<std::size_t>* subset) {
  const std::size_t n =
      subset != nullptr ? subset->size() : input.num_objects();
  const std::size_t m = input.num_clusterings();

  // Object-major label rows, gathered once so hashing and collision
  // checks touch contiguous memory.
  std::vector<Clustering::Label> rows(n * m);
  for (std::size_t i = 0; i < m; ++i) {
    const Clustering& c = input.clustering(i);
    Clustering::Label* out = rows.data() + i;
    for (std::size_t v = 0; v < n; ++v) {
      out[v * m] = c.label(subset != nullptr ? (*subset)[v] : v);
    }
  }

  // Packed signature rows: only whole-row *equality* matters here, and
  // the per-column remap (kMissing -> code 0 in columns that hold it)
  // is injective, so the packed words can stand in for the rows in both
  // hashing and the collision check. Grouping and signature
  // numbering are identical either way — the packed path is ~m fewer
  // word ops per object for hashing and per candidate for comparison.
  std::unique_ptr<internal::PackedLabels> packed;
  if (internal::ActivePackedKernelTier() !=
      internal::PackedKernelTier::kPortable) {
    packed = internal::PackLabelRows(rows.data(), n, m);
  }

  SignatureIndex index;
  index.signature_of_.resize(n);
  // hash -> signature ids sharing it. Objects are scanned in ascending
  // order, so signature ids follow first appearance deterministically.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  buckets.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    const Clustering::Label* row = rows.data() + v * m;
    std::vector<std::size_t>& bucket =
        buckets[packed != nullptr ? internal::HashPackedRow(*packed, v)
                                  : HashRow(row, m)];
    std::size_t signature = static_cast<std::size_t>(-1);
    for (std::size_t candidate : bucket) {
      const std::size_t rep = index.rep_subset_index_[candidate];
      bool equal;
      if (packed != nullptr) {
        equal = internal::PackedRowsEqual(*packed, v, rep);
      } else {
        const Clustering::Label* rep_row = rows.data() + rep * m;
        equal = true;
        for (std::size_t i = 0; i < m; ++i) {
          if (row[i] != rep_row[i]) {
            equal = false;
            break;
          }
        }
      }
      if (equal) {
        signature = candidate;
        break;
      }
    }
    if (signature == static_cast<std::size_t>(-1)) {
      signature = index.representative_.size();
      index.representative_.push_back(subset != nullptr ? (*subset)[v] : v);
      index.rep_subset_index_.push_back(v);
      index.multiplicity_.push_back(0.0);
      bucket.push_back(signature);
    }
    index.signature_of_[v] = signature;
    index.multiplicity_[signature] += 1.0;
  }
  return index;
}

Clustering SignatureIndex::Expand(const Clustering& folded) const {
  CLUSTAGG_CHECK(folded.size() == num_signatures());
  std::vector<Clustering::Label> labels(num_objects());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    labels[v] = folded.label(signature_of_[v]);
  }
  Clustering expanded(std::move(labels));
  expanded.Normalize();
  return expanded;
}

}  // namespace clustagg
