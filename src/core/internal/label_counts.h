#ifndef CLUSTAGG_CORE_INTERNAL_LABEL_COUNTS_H_
#define CLUSTAGG_CORE_INTERNAL_LABEL_COUNTS_H_

// Linear label counting: the one primitive behind cluster counts,
// normalization, the contingency-table disagreement distance, the cost
// D(C) and the SAMPLING assignment tables.
//
// Every one of those passes needs the same thing first: a dense id per
// distinct label so that counts live in flat arrays. DenseLabels gives
// ids 0..k-1 in order of first appearance. When the largest label is at
// most a small multiple of the sequence length it indexes a flat table
// by label value (O(n)); otherwise — labels read from files may reach
// kMaxParsedLabel — it sorts and uniques a copy of the labels once and
// maps each label by binary search. No hash map, and no sort of n
// labels on the common path.
//
// PairCounter then counts any clustering against a complete reference
// clustering of the same objects in one O(n) pass: cluster sizes,
// co-clustered pairs and the contingency (joint) pairs, restricted to
// the objects the clustering labels.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/clustering.h"

namespace clustagg {
namespace internal {

/// True when a flat table of `entries` slots stays O(n) for a pass over
/// n objects: at most 2n + 64 entries, whatever the label range. Every
/// table indexed by label value (or by a row and a label) is flat only
/// below this bound.
bool FitsFlat(std::uint64_t entries, std::size_t n);

/// Dense first-appearance relabeling of a label sequence. kMissing is
/// not a label: it keeps kMissing and gets no id.
class DenseLabels {
 public:
  /// Relabels labels[0..n) to ids 0..k-1 in order of first appearance
  /// and returns k. Writes out[v] when `out` is non-null (it may alias
  /// `labels`), and the member count of each id into `sizes` when
  /// non-null. The map stays queryable through Find until the next call.
  std::size_t Remap(const Clustering::Label* labels, std::size_t n,
                    Clustering::Label* out,
                    std::vector<std::uint32_t>* sizes = nullptr);

  /// The id the last Remap gave `label`, or kMissing if the label did
  /// not occur (or is kMissing).
  Clustering::Label Find(Clustering::Label label) const;

 private:
  // Flat: ids_[label] is the label's id (kMissing if absent). Sorted:
  // distinct_ holds the distinct labels ascending and ids_[rank] their
  // ids.
  bool flat_ = true;
  std::vector<Clustering::Label> ids_;
  std::vector<Clustering::Label> distinct_;
};

/// Number of unordered pairs inside clusters of the given sizes.
std::uint64_t PairsWithin(const std::vector<std::uint32_t>& sizes);

/// Pair counts of one clustering against a complete reference, over the
/// objects the clustering labels ("present" objects).
struct PairCounts {
  std::uint64_t present = 0;          // objects with a label
  std::uint64_t pairs = 0;            // pairs the clustering co-clusters
  std::uint64_t reference_pairs = 0;  // present pairs the reference joins
  std::uint64_t joint_pairs = 0;      // present pairs both co-cluster

  /// Present pairs that exactly one of the two co-clusters.
  std::uint64_t disagreements() const {
    return pairs + reference_pairs - 2 * joint_pairs;
  }
};

/// Largest label of labels[0..n) (kMissing if none); checks that every
/// label is a valid one (>= 0 or kMissing).
Clustering::Label MaxLabel(const Clustering::Label* labels, std::size_t n);

/// Counts clusterings against one complete reference clustering in
/// O(n) each. The reference's rows are its label values when they fit a
/// flat table (empty rows for unused labels), dense ids otherwise. The
/// contingency table of a clustering (reference rows x its label values)
/// is filled in object order when it fits in O(n); clusterings whose
/// tables fit together share one pass. Otherwise the reference is
/// grouped by row with a stable counting sort (built once) and the
/// clustering's dense ids are counted within each group, touching only
/// nonzero cells. Holds O(n) 32-bit scratch and a pointer to the
/// reference's labels, which must outlive the counter.
class PairCounter {
 public:
  explicit PairCounter(const Clustering& reference);

  /// Pairs the reference co-clusters.
  std::uint64_t pairs() const { return pairs_; }

  /// Counts each clustering of `cs` (all covering the reference's
  /// objects); objects without a label in a clustering are skipped.
  /// max_labels[i] must be MaxLabel of cs[i]: it sizes the table.
  std::vector<PairCounts> Count(std::span<const Clustering> cs,
                                std::span<const Clustering::Label> max_labels);

 private:
  void CountTables(std::span<const Clustering> cs,
                   const std::vector<std::size_t>& batch,
                   const std::vector<std::size_t>& widths,
                   std::vector<PairCounts>* out);
  PairCounts CountGrouped(const Clustering& c);

  std::size_t n_ = 0;
  std::size_t num_rows_ = 0;
  std::uint64_t pairs_ = 0;
  const Clustering::Label* rows_ = nullptr;     // reference row per object
  std::vector<Clustering::Label> dense_rows_;   // rows_ when remapped
  std::vector<std::uint32_t> starts_;  // row g is order_[starts_[g]..)
  std::vector<std::uint32_t> order_;   // objects grouped by row
  DenseLabels remap_;
  std::vector<Clustering::Label> ids_;   // dense ids of the counted labels
  std::vector<std::uint32_t> sizes_;     // per id (or label), all rows
  std::vector<std::uint32_t> counts_;    // per id, within one row
  std::vector<std::uint32_t> cells_;     // contingency tables
  std::vector<Clustering::Label> touched_;
};

}  // namespace internal
}  // namespace clustagg

#endif  // CLUSTAGG_CORE_INTERNAL_LABEL_COUNTS_H_
