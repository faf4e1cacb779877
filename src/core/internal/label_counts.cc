#include "core/internal/label_counts.h"

#include <algorithm>

#include "common/check.h"

namespace clustagg {
namespace internal {

namespace {

constexpr std::uint64_t kFlatEntriesPerObject = 2;
constexpr std::uint64_t kFlatSlack = 64;

}  // namespace

bool FitsFlat(std::uint64_t entries, std::size_t n) {
  return entries <= kFlatEntriesPerObject * n + kFlatSlack;
}

Clustering::Label MaxLabel(const Clustering::Label* labels, std::size_t n) {
  Clustering::Label min_label = Clustering::kMissing;
  Clustering::Label max_label = Clustering::kMissing;
  for (std::size_t v = 0; v < n; ++v) {
    min_label = std::min(min_label, labels[v]);
    max_label = std::max(max_label, labels[v]);
  }
  CLUSTAGG_CHECK(min_label >= Clustering::kMissing);
  return max_label;
}

std::size_t DenseLabels::Remap(const Clustering::Label* labels,
                               std::size_t n, Clustering::Label* out,
                               std::vector<std::uint32_t>* sizes) {
  using Label = Clustering::Label;
  if (sizes != nullptr) sizes->clear();
  const auto table_size =
      static_cast<std::uint64_t>(std::int64_t{MaxLabel(labels, n)} + 1);
  flat_ = FitsFlat(table_size, n);
  if (flat_) {
    ids_.assign(static_cast<std::size_t>(table_size), Clustering::kMissing);
  } else {
    distinct_.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (labels[v] != Clustering::kMissing) distinct_.push_back(labels[v]);
    }
    std::sort(distinct_.begin(), distinct_.end());
    distinct_.erase(std::unique(distinct_.begin(), distinct_.end()),
                    distinct_.end());
    ids_.assign(distinct_.size(), Clustering::kMissing);
  }

  Label next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const Label label = labels[v];
    Label id = Clustering::kMissing;
    if (label != Clustering::kMissing) {
      const auto slot = flat_
          ? static_cast<std::size_t>(label)
          : static_cast<std::size_t>(
                std::lower_bound(distinct_.begin(), distinct_.end(), label) -
                distinct_.begin());
      id = ids_[slot];
      if (id == Clustering::kMissing) {
        id = ids_[slot] = next++;
        if (sizes != nullptr) sizes->push_back(0);
      }
      if (sizes != nullptr) ++(*sizes)[static_cast<std::size_t>(id)];
    }
    if (out != nullptr) out[v] = id;
  }
  return static_cast<std::size_t>(next);
}

Clustering::Label DenseLabels::Find(Clustering::Label label) const {
  if (label == Clustering::kMissing) return Clustering::kMissing;
  if (flat_) {
    return static_cast<std::size_t>(label) < ids_.size()
               ? ids_[static_cast<std::size_t>(label)]
               : Clustering::kMissing;
  }
  const auto it = std::lower_bound(distinct_.begin(), distinct_.end(), label);
  if (it == distinct_.end() || *it != label) return Clustering::kMissing;
  return ids_[static_cast<std::size_t>(it - distinct_.begin())];
}

std::uint64_t PairsWithin(const std::vector<std::uint32_t>& sizes) {
  std::uint64_t pairs = 0;
  for (std::uint64_t s : sizes) pairs += s * (s - 1) / 2;
  return pairs;
}

PairCounter::PairCounter(const Clustering& reference)
    : n_(reference.size()) {
  CLUSTAGG_CHECK(n_ <= UINT32_MAX);
  const Clustering::Label* labels = reference.labels().data();
  const Clustering::Label max_label = MaxLabel(labels, n_);
  const auto flat_rows = static_cast<std::uint64_t>(std::int64_t{max_label} + 1);
  if (FitsFlat(flat_rows, n_)) {
    // Rows are the label values themselves; unused labels are empty rows.
    num_rows_ = static_cast<std::size_t>(flat_rows);
    sizes_.assign(num_rows_, 0);
    for (std::size_t v = 0; v < n_; ++v) {
      CLUSTAGG_CHECK(labels[v] != Clustering::kMissing);
      ++sizes_[static_cast<std::size_t>(labels[v])];
    }
    rows_ = labels;
  } else {
    dense_rows_.resize(n_);
    num_rows_ = remap_.Remap(labels, n_, dense_rows_.data(), &sizes_);
    for (Clustering::Label id : dense_rows_) {
      CLUSTAGG_CHECK(id != Clustering::kMissing);
    }
    rows_ = dense_rows_.data();
  }
  pairs_ = PairsWithin(sizes_);
  starts_.assign(num_rows_ + 1, 0);
  for (std::size_t g = 0; g < num_rows_; ++g) {
    starts_[g + 1] = starts_[g] + sizes_[g];
  }
}

std::vector<PairCounts> PairCounter::Count(
    std::span<const Clustering> cs,
    std::span<const Clustering::Label> max_labels) {
  CLUSTAGG_CHECK(max_labels.size() == cs.size());
  std::vector<PairCounts> out(cs.size());
  // Clusterings whose contingency tables fit in O(n) together are
  // counted in one fused pass over the objects (interleaving the
  // tables also keeps repeated increments of one cell from serializing);
  // a clustering whose table alone is too large is counted grouped.
  std::vector<std::size_t> batch;
  std::vector<std::size_t> widths(cs.size());
  std::uint64_t batch_cells = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    CLUSTAGG_CHECK(cs[i].size() == n_);
    const auto width =
        static_cast<std::uint64_t>(std::int64_t{max_labels[i]} + 2);
    const std::uint64_t cells = width * num_rows_;
    if (!FitsFlat(cells, n_)) {
      out[i] = CountGrouped(cs[i]);
      continue;
    }
    if (!FitsFlat(batch_cells + cells, n_)) {
      CountTables(cs, batch, widths, &out);
      batch.clear();
      batch_cells = 0;
    }
    widths[i] = static_cast<std::size_t>(width);
    batch.push_back(i);
    batch_cells += cells;
  }
  CountTables(cs, batch, widths, &out);
  return out;
}

void PairCounter::CountTables(std::span<const Clustering> cs,
                              const std::vector<std::size_t>& batch,
                              const std::vector<std::size_t>& widths,
                              std::vector<PairCounts>* out) {
  if (batch.empty()) return;
  // One row of cells_ per reference row, with the batch's tables side by
  // side: table b occupies columns offset_b..offset_b + width_b, where
  // column offset_b + label + 1 counts the objects with that label and
  // column offset_b the unlabeled ones.
  struct Table {
    const Clustering::Label* labels;
    std::size_t offset;  // already includes the +1 of the label column
  };
  std::vector<Table> tables;
  std::size_t row_width = 0;
  for (std::size_t i : batch) {
    tables.push_back({cs[i].labels().data(), row_width + 1});
    row_width += widths[i];
  }
  cells_.assign(num_rows_ * row_width, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    std::uint32_t* row =
        cells_.data() + static_cast<std::size_t>(rows_[v]) * row_width;
    for (const Table& t : tables) {
      ++row[static_cast<std::ptrdiff_t>(t.offset) + t.labels[v]];
    }
  }
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const std::size_t width = widths[batch[b]];
    PairCounts& counts = (*out)[batch[b]];
    sizes_.assign(width, 0);
    for (std::size_t g = 0; g < num_rows_; ++g) {
      const std::uint32_t* cells =
          cells_.data() + g * row_width + tables[b].offset - 1;
      std::uint64_t present = 0;
      for (std::size_t col = 1; col < width; ++col) {
        const std::uint64_t cell = cells[col];
        present += cell;
        counts.joint_pairs += cell * (cell - 1) / 2;
        sizes_[col] += cells[col];
      }
      counts.present += present;
      counts.reference_pairs += present * (present - 1) / 2;
    }
    counts.pairs = PairsWithin(sizes_);
  }
}

PairCounts PairCounter::CountGrouped(const Clustering& c) {
  if (order_.empty() && n_ > 0) {
    // Stable counting sort of the reference by row, built on first use:
    // members stay ascending within each row.
    std::vector<std::uint32_t> next(starts_.begin(), starts_.end() - 1);
    order_.resize(n_);
    for (std::size_t v = 0; v < n_; ++v) {
      order_[next[static_cast<std::size_t>(rows_[v])]++] =
          static_cast<std::uint32_t>(v);
    }
  }
  ids_.resize(c.size());
  const std::size_t k =
      remap_.Remap(c.labels().data(), c.size(), ids_.data(), &sizes_);
  counts_.assign(k, 0);
  PairCounts out;
  out.pairs = PairsWithin(sizes_);
  for (std::size_t g = 0; g < num_rows_; ++g) {
    std::uint64_t present = 0;
    for (std::uint32_t t = starts_[g]; t < starts_[g + 1]; ++t) {
      const Clustering::Label id = ids_[order_[t]];
      if (id == Clustering::kMissing) continue;
      ++present;
      if (counts_[static_cast<std::size_t>(id)]++ == 0) touched_.push_back(id);
    }
    out.present += present;
    out.reference_pairs += present * (present - 1) / 2;
    for (Clustering::Label id : touched_) {
      const std::uint64_t joint = counts_[static_cast<std::size_t>(id)];
      out.joint_pairs += joint * (joint - 1) / 2;
      counts_[static_cast<std::size_t>(id)] = 0;
    }
    touched_.clear();
  }
  return out;
}

}  // namespace internal
}  // namespace clustagg
