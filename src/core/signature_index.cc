#include "core/signature_index.h"

#include <bit>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "core/internal/label_counts.h"

namespace clustagg {

namespace {

constexpr std::uint32_t kUnseen = UINT32_MAX;

/// Column code of a label: label + 1, so kMissing is 0.
std::uint64_t Code(Clustering::Label label) {
  return static_cast<std::uint64_t>(std::int64_t{label} + 1);
}

/// First-appearance ids of the pairs (ids[v], Code(labels[v])) for
/// v = 0..n-1, written back to ids; returns their count. A pair's key is
/// ids[v] * width + Code(labels[v]) (every code is below `width`, every
/// id below `s`), looked up in a flat table of s * width entries while
/// that is O(n), and in an open-addressing table of at least 2n slots
/// otherwise (at most n distinct keys, so it stays at most half full).
std::size_t RefinePairs(const Clustering::Label* labels, std::uint64_t width,
                        std::size_t s, std::size_t n, std::uint32_t* ids,
                        std::vector<std::uint32_t>* table,
                        std::vector<std::uint64_t>* keys) {
  std::uint32_t next = 0;
  if (internal::FitsFlat(s * width, n)) {
    table->assign(static_cast<std::size_t>(s * width), kUnseen);
    std::uint32_t* slots = table->data();
    for (std::size_t v = 0; v < n; ++v) {
      std::uint32_t& id = slots[ids[v] * width + Code(labels[v])];
      if (id == kUnseen) id = next++;
      ids[v] = id;
    }
    return next;
  }
  const std::size_t capacity = std::bit_ceil(2 * n);
  const int shift = 64 - std::countr_zero(capacity);
  table->assign(capacity, kUnseen);
  keys->resize(capacity);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t key = ids[v] * width + Code(labels[v]);
    // Fibonacci hashing: the top bits of the product spread keys that
    // differ only in their low digits.
    std::size_t slot = static_cast<std::size_t>(
        (key * 0x9e3779b97f4a7c15ull) >> shift);
    while ((*table)[slot] != kUnseen && (*keys)[slot] != key) {
      slot = (slot + 1) & (capacity - 1);
    }
    if ((*table)[slot] == kUnseen) {
      (*table)[slot] = next++;
      (*keys)[slot] = key;
    }
    ids[v] = (*table)[slot];
  }
  return next;
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
  using Label = Clustering::Label;
  const std::size_t n =
      subset != nullptr ? subset->size() : input.num_objects();
  const std::size_t m = input.num_clusterings();
  CLUSTAGG_CHECK(n < kUnseen);

  // Refinement by columns: after column i, ids[v] numbers object v's
  // label prefix (columns 0..i) by first appearance in object order,
  // because it is the first-appearance id of the pair (prefix id before
  // column i, code in column i). The last column's ids therefore number
  // the full signatures exactly as a scan comparing whole rows would.
  // Once every prefix is distinct the ids are 0..n-1 and stay so.
  SignatureIndex index;
  std::vector<std::uint32_t>& ids = index.signature_of_;
  ids.assign(n, 0);
  std::size_t s = n == 0 ? 0 : 1;
  std::vector<Label> column(subset != nullptr ? n : 0);
  std::vector<std::uint32_t> table;
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < m && s < n; ++i) {
    const Clustering& c = input.clustering(i);
    const Label* labels = c.labels().data();
    Label max_label = input.max_label(i);
    if (subset != nullptr) {
      for (std::size_t v = 0; v < n; ++v) column[v] = labels[(*subset)[v]];
      labels = column.data();
      max_label = internal::MaxLabel(labels, n);
    }
    // s < 2^32 and width <= 2^31 + 1, so every key fits in 64 bits.
    const std::uint64_t width = Code(max_label) + 1;
    s = RefinePairs(labels, width, s, n, ids.data(), &table, &keys);
  }
  // Release the tables before the per-signature arrays are allocated.
  table = {};
  keys = {};

  index.multiplicity_.assign(s, 0.0);
  index.representative_.reserve(s);
  for (std::size_t v = 0; v < n; ++v) {
    if (ids[v] == index.representative_.size()) {
      index.representative_.push_back(subset != nullptr ? (*subset)[v] : v);
    }
    index.multiplicity_[ids[v]] += 1.0;
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
