#include "stream/stream_aggregator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/symmetric_matrix.h"
#include "core/distance_source.h"
#include "core/instrumentation.h"

namespace clustagg {

namespace {

/// Packed column-major strict-lower-triangle index of the pair {u, v},
/// u < v: column v's entries (0,v) .. (v-1,v) are contiguous, so adding
/// object n appends the block for column n at the end of the counter
/// arrays without disturbing existing entries (unlike SymmetricMatrix's
/// row-major packing, which interleaves new entries into every row).
std::size_t PairIndex(std::size_t u, std::size_t v) {
  return v * (v - 1) / 2 + u;
}

constexpr std::uint64_t kHashOffset = 1469598103934665603ULL;
constexpr std::uint64_t kHashPrime = 1099511628211ULL;

/// FNV-1a step folding one more clustering's label into a signature
/// hash. Extending a group hash is O(1) per clustering because all
/// members of a group share the label being appended.
std::uint64_t MixHash(std::uint64_t h, Clustering::Label label) {
  return (h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(label))) *
         kHashPrime;
}

Status BadLabels(const std::vector<Clustering::Label>& labels,
                 const char* what) {
  for (Clustering::Label label : labels) {
    if (label < 0 && label != Clustering::kMissing) {
      return Status::InvalidArgument(std::string(what) +
                                     " carries a negative label " +
                                     std::to_string(label));
    }
  }
  return Status::OK();
}

/// Index of `id` in an ascending stable-id vector, or npos.
std::size_t FindId(const std::vector<std::uint64_t>& ids, std::uint64_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - ids.begin());
}

}  // namespace

StreamAggregator::StreamAggregator(StreamAggregatorOptions options)
    : options_(std::move(options)) {}

Status StreamAggregator::Ingest(StreamEvent event) {
  if (const auto* add = std::get_if<AddClusteringEvent>(&event)) {
    // While no clustering exists yet (applied or queued) there are no
    // label tuples to contradict, so the first AddClustering may carry
    // more labels than the stream has objects: it defines them, exactly
    // like ClusteringSet::Create infers n from its first clustering.
    const bool defines_objects =
        pending_m_ == 0 && add->labels.size() >= pending_n_;
    if (!defines_objects && add->labels.size() != pending_n_) {
      return Status::InvalidArgument(
          "AddClustering carries " + std::to_string(add->labels.size()) +
          " labels for a stream of " + std::to_string(pending_n_) +
          " objects (queued events included)");
    }
    Status labels_ok = BadLabels(add->labels, "AddClustering");
    if (!labels_ok.ok()) return labels_ok;
    if (!std::isfinite(add->weight) || !(add->weight > 0.0)) {
      return Status::InvalidArgument(
          "AddClustering weight must be a finite positive number");
    }
    if (defines_objects) {
      while (pending_object_ids_.size() < add->labels.size()) {
        pending_object_ids_.push_back(pending_next_object_id_++);
      }
      pending_n_ = pending_object_ids_.size();
    }
    pending_clustering_ids_.push_back(pending_next_clustering_id_++);
    // Mirror the window eviction Flush will perform after applying this
    // add, so later queued removals validate against what will actually
    // be alive.
    while (options_.window > 0 &&
           pending_clustering_ids_.size() > options_.window) {
      pending_clustering_ids_.erase(pending_clustering_ids_.begin());
    }
    pending_m_ = pending_clustering_ids_.size();
  } else if (const auto* object = std::get_if<AddObjectEvent>(&event)) {
    if (object->labels.size() != pending_m_) {
      return Status::InvalidArgument(
          "AddObject carries " + std::to_string(object->labels.size()) +
          " labels for a stream of " + std::to_string(pending_m_) +
          " clusterings (queued events included)");
    }
    Status labels_ok = BadLabels(object->labels, "AddObject");
    if (!labels_ok.ok()) return labels_ok;
    pending_object_ids_.push_back(pending_next_object_id_++);
    pending_n_ = pending_object_ids_.size();
  } else if (const auto* rm = std::get_if<RemoveClusteringEvent>(&event)) {
    const std::size_t pos = FindId(pending_clustering_ids_, rm->id);
    if (pos == static_cast<std::size_t>(-1)) {
      return Status::InvalidArgument(
          "RemoveClustering names unknown or already-removed clustering id " +
          std::to_string(rm->id) + " (queued events and window evictions "
          "included)");
    }
    pending_clustering_ids_.erase(
        pending_clustering_ids_.begin() + static_cast<std::ptrdiff_t>(pos));
    pending_m_ = pending_clustering_ids_.size();
  } else {
    const auto& remove = std::get<RemoveObjectEvent>(event);
    const std::size_t pos = FindId(pending_object_ids_, remove.id);
    if (pos == static_cast<std::size_t>(-1)) {
      return Status::InvalidArgument(
          "RemoveObject names unknown or already-removed object id " +
          std::to_string(remove.id) + " (queued events included)");
    }
    pending_object_ids_.erase(pending_object_ids_.begin() +
                              static_cast<std::ptrdiff_t>(pos));
    pending_n_ = pending_object_ids_.size();
  }
  pending_.push_back(std::move(event));
  return Status::OK();
}

double StreamAggregator::PairDistanceRaw(double disagreeing,
                                         double opinionated) const {
  // Mirror of ColumnDistance (src/core/distance_source.cc): the counters
  // were accumulated in ascending clustering order, so finishing with the
  // same policy arithmetic reproduces the batch value bit for bit. The
  // batch kernels' packed (d, o) value table needs no twin here: its
  // entries are this arithmetic evaluated on the exact integer sums that
  // unit weights produce, so the argument on DistanceColumns applies
  // verbatim.
  if (total_weight_ == 0.0) return 0.0;
  switch (options_.missing.policy) {
    case MissingValuePolicy::kRandomCoin:
      disagreeing += (total_weight_ - opinionated) *
                     (1.0 - options_.missing.coin_together_probability);
      return disagreeing / total_weight_;
    case MissingValuePolicy::kIgnore:
      if (opinionated == 0.0) return 0.5;
      return disagreeing / opinionated;
  }
  CLUSTAGG_CHECK(false);
  return 0.0;
}

double StreamAggregator::PairDistance(std::size_t pair_index) const {
  // Round through float exactly like both batch backends.
  return static_cast<float>(
      PairDistanceRaw(separating_[pair_index], opinionated_[pair_index]));
}

double StreamAggregator::distance(std::size_t u, std::size_t v) const {
  CLUSTAGG_CHECK(u < n_ && v < n_);
  if (u == v || columns_.empty()) return 0.0;
  if (u > v) std::swap(u, v);
  return PairDistance(PairIndex(u, v));
}

double StreamAggregator::drift() const {
  const std::size_t pairs = n_ > 1 ? n_ * (n_ - 1) / 2 : 0;
  return pairs == 0 ? 0.0 : drift_accum_ / static_cast<double>(pairs);
}

void StreamAggregator::ApplyAddClustering(const AddClusteringEvent& event,
                                          StreamFlushReport* report) {
  // An object-defining first clustering (see Ingest) materializes its
  // objects as implicit empty-tuple AddObjects: zeroed counter blocks,
  // and one all-objects fold group (every empty tuple is one signature).
  while (n_ < event.labels.size()) {
    CLUSTAGG_CHECK(columns_.empty());
    ApplyAddObject(AddObjectEvent{}, report);
  }
  CLUSTAGG_CHECK(event.labels.size() == n_);
  const double old_weight = total_weight_;
  const std::size_t labeled = labels_.size();
  // Sweep every pair once: counters change only where both endpoints have
  // an opinion, but under the coin policy the denominator change moves
  // every X, so drift (and the tracked cost) must look at all of them.
  // The loop visits columns ascending, matching the packed layout.
  std::size_t idx = 0;
  for (std::size_t v = 1; v < n_; ++v) {
    const Clustering::Label lv = event.labels[v];
    for (std::size_t u = 0; u < v; ++u, ++idx) {
      const double old_x = static_cast<float>(
          PairDistanceRaw(separating_[idx], opinionated_[idx]));
      const Clustering::Label lu = event.labels[u];
      if (lu != Clustering::kMissing && lv != Clustering::kMissing) {
        opinionated_[idx] += event.weight;
        if (lu != lv) separating_[idx] += event.weight;
      }
      total_weight_ = old_weight + event.weight;
      const double new_x = static_cast<float>(
          PairDistanceRaw(separating_[idx], opinionated_[idx]));
      total_weight_ = old_weight;
      drift_accum_ += std::abs(new_x - old_x);
      if (v < labeled) {
        // Track the solution's cost under the moving distances; pairs
        // involving objects the solution does not cover yet are charged
        // wholesale when the solution is extended.
        predicted_cost_ +=
            labels_.SameCluster(u, v) ? new_x - old_x : old_x - new_x;
      }
    }
  }
  total_weight_ = old_weight + event.weight;
  columns_.push_back(event.labels);
  weights_.push_back(event.weight);
  clustering_ids_.push_back(next_clustering_id_++);
  report->pairs_touched += idx;
  if (options_.fold) RefineFoldGroups(event.labels);
}

void StreamAggregator::ApplyAddObject(const AddObjectEvent& event,
                                      StreamFlushReport* report) {
  const std::size_t m = columns_.size();
  CLUSTAGG_CHECK(event.labels.size() == m);
  const std::size_t v = n_;
  // The new object's pairs occupy the contiguous block for column v; the
  // counters accumulate over clusterings in ascending index order, the
  // same order future AddClustering events will extend them in.
  separating_.resize(separating_.size() + v, 0.0);
  opinionated_.resize(opinionated_.size() + v, 0.0);
  const std::size_t base = PairIndex(0, v);
  for (std::size_t u = 0; u < v; ++u) {
    double& dis = separating_[base + u];
    double& opi = opinionated_[base + u];
    for (std::size_t i = 0; i < m; ++i) {
      const Clustering::Label lu = columns_[i][u];
      const Clustering::Label lv = event.labels[i];
      if (lu == Clustering::kMissing || lv == Clustering::kMissing) continue;
      opi += weights_[i];
      if (lu != lv) dis += weights_[i];
    }
    // A brand-new pair charges its unavoidable cost mass: whatever the
    // repaired solution does with it, it pays at least min(X, 1 - X).
    const double x = static_cast<float>(PairDistanceRaw(dis, opi));
    drift_accum_ += std::min(x, 1.0 - x);
  }
  for (std::size_t i = 0; i < m; ++i) columns_[i].push_back(event.labels[i]);
  ++n_;
  object_ids_.push_back(next_object_id_++);
  report->pairs_touched += v;
  if (options_.fold) PlaceObjectInFoldGroup(v, event.labels);
}

void StreamAggregator::ApplyRemoveClustering(std::uint64_t id,
                                             StreamFlushReport* report) {
  const std::size_t i = FindId(clustering_ids_, id);
  CLUSTAGG_CHECK(i != static_cast<std::size_t>(-1));  // Ingest validated it.
  const double removed_weight = weights_[i];
  // Bit-exactness strategy. The invariant is that every counter equals
  // the ascending-order accumulation over the alive clusterings, exactly
  // as the batch kernels compute it. Under uniform unit weights the
  // counters are integer sums, so subtracting the removed contribution
  // is exact and order-free. With general weights, floating-point
  // subtraction cannot undo an addition ((1e16 + 1) - 1e16 != 1), so the
  // touched counters are re-accumulated over the survivors instead —
  // O(n^2 m), the same shape as the batch build it must match.
  bool unit_weights = true;
  for (double w : weights_) {
    if (w != 1.0) {
      unit_weights = false;
      break;
    }
  }
  double new_total = 0.0;
  if (unit_weights) {
    new_total = total_weight_ - removed_weight;
  } else {
    for (std::size_t j = 0; j < weights_.size(); ++j) {
      if (j != i) new_total += weights_[j];
    }
  }
  const std::size_t labeled = labels_.size();
  const std::vector<Clustering::Label>& column = columns_[i];
  std::size_t idx = 0;
  for (std::size_t v = 1; v < n_; ++v) {
    const Clustering::Label lv = column[v];
    for (std::size_t u = 0; u < v; ++u, ++idx) {
      const double old_x = static_cast<float>(
          PairDistanceRaw(separating_[idx], opinionated_[idx]));
      if (unit_weights) {
        const Clustering::Label lu = column[u];
        if (lu != Clustering::kMissing && lv != Clustering::kMissing) {
          opinionated_[idx] -= removed_weight;
          if (lu != lv) separating_[idx] -= removed_weight;
        }
      } else {
        double dis = 0.0;
        double opi = 0.0;
        for (std::size_t j = 0; j < columns_.size(); ++j) {
          if (j == i) continue;
          const Clustering::Label a = columns_[j][u];
          const Clustering::Label b = columns_[j][v];
          if (a == Clustering::kMissing || b == Clustering::kMissing) {
            continue;
          }
          opi += weights_[j];
          if (a != b) dis += weights_[j];
        }
        separating_[idx] = dis;
        opinionated_[idx] = opi;
      }
      const double saved_total = total_weight_;
      total_weight_ = new_total;
      const double new_x = static_cast<float>(
          PairDistanceRaw(separating_[idx], opinionated_[idx]));
      total_weight_ = saved_total;
      drift_accum_ += std::abs(new_x - old_x);
      if (v < labeled) {
        predicted_cost_ +=
            labels_.SameCluster(u, v) ? new_x - old_x : old_x - new_x;
      }
    }
  }
  total_weight_ = new_total;
  columns_.erase(columns_.begin() + static_cast<std::ptrdiff_t>(i));
  weights_.erase(weights_.begin() + static_cast<std::ptrdiff_t>(i));
  clustering_ids_.erase(clustering_ids_.begin() +
                        static_cast<std::ptrdiff_t>(i));
  report->pairs_touched += idx;
  // A removal can merge fold groups (two tuples that differed only in
  // the removed clustering), which split-only refinement cannot
  // express: rebuild from the surviving columns.
  if (options_.fold) RebuildFoldGroups();
}

void StreamAggregator::ApplyRemoveObject(std::uint64_t id,
                                         StreamFlushReport* report) {
  const std::size_t pos = FindId(object_ids_, id);
  CLUSTAGG_CHECK(pos != static_cast<std::size_t>(-1));  // Ingest validated.
  const std::size_t labeled = labels_.size();
  // Charge the vanishing pairs to drift (the mirror image of the
  // brand-new-pair charge in ApplyAddObject: their unavoidable mass
  // leaves the objective) and remove their contribution from the
  // tracked cost where the solution covered them.
  if (!columns_.empty()) {
    for (std::size_t u = 0; u < n_; ++u) {
      if (u == pos) continue;
      const std::size_t idx =
          u < pos ? PairIndex(u, pos) : PairIndex(pos, u);
      const double x = PairDistance(idx);
      drift_accum_ += std::min(x, 1.0 - x);
      if (u < labeled && pos < labeled) {
        predicted_cost_ -= labels_.SameCluster(u, pos) ? x : 1.0 - x;
      }
    }
  }
  // Compact the packed column-major triangle: walking the old triangle
  // in packed order and keeping every pair not involving pos emits the
  // survivors exactly in the new packed order, so each surviving
  // counter is moved, never recomputed — bit-identical by construction.
  const std::size_t old_pairs = n_ > 1 ? n_ * (n_ - 1) / 2 : 0;
  std::vector<double> new_separating;
  std::vector<double> new_opinionated;
  if (old_pairs > 0) {
    const std::size_t kept = (n_ - 1) > 1 ? (n_ - 1) * (n_ - 2) / 2 : 0;
    new_separating.reserve(kept);
    new_opinionated.reserve(kept);
    std::size_t idx = 0;
    for (std::size_t v = 1; v < n_; ++v) {
      for (std::size_t u = 0; u < v; ++u, ++idx) {
        if (u == pos || v == pos) continue;
        new_separating.push_back(separating_[idx]);
        new_opinionated.push_back(opinionated_[idx]);
      }
    }
  }
  separating_ = std::move(new_separating);
  opinionated_ = std::move(new_opinionated);
  for (std::vector<Clustering::Label>& column : columns_) {
    column.erase(column.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  object_ids_.erase(object_ids_.begin() + static_cast<std::ptrdiff_t>(pos));
  if (pos < labeled) {
    std::vector<Clustering::Label> labels = labels_.labels();
    labels.erase(labels.begin() + static_cast<std::ptrdiff_t>(pos));
    labels_ = Clustering(std::move(labels));
  }
  --n_;
  report->pairs_touched += n_;
  // Every object index above pos shifted down: rebuild the grouping
  // over the compacted columns.
  if (options_.fold) RebuildFoldGroups();
}

void StreamAggregator::RefineFoldGroups(
    const std::vector<Clustering::Label>& labels) {
  std::vector<FoldGroup> refined;
  refined.reserve(groups_.size());
  for (const FoldGroup& group : groups_) {
    // Bucket the group's members by their new label in first-seen order;
    // members are ascending, so each bucket's front is its minimum.
    std::vector<Clustering::Label> seen;
    std::vector<std::size_t> bucket_of;
    const std::size_t first_new = refined.size();
    for (std::size_t member : group.members) {
      const Clustering::Label label = labels[member];
      std::size_t b = 0;
      while (b < seen.size() && seen[b] != label) ++b;
      if (b == seen.size()) {
        seen.push_back(label);
        FoldGroup split;
        split.hash = MixHash(group.hash, label);
        refined.push_back(std::move(split));
      }
      refined[first_new + b].members.push_back(member);
    }
  }
  // Renumber by minimum member ascending — SignatureIndex::Build numbers
  // signatures by first appearance over objects 0..n-1, which is exactly
  // this order.
  std::sort(refined.begin(), refined.end(),
            [](const FoldGroup& a, const FoldGroup& b) {
              return a.members.front() < b.members.front();
            });
  groups_ = std::move(refined);
  signature_of_.assign(n_, 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (std::size_t member : groups_[g].members) signature_of_[member] = g;
  }
}

void StreamAggregator::PlaceObjectInFoldGroup(
    std::size_t v, const std::vector<Clustering::Label>& tuple) {
  std::uint64_t hash = kHashOffset;
  for (Clustering::Label label : tuple) hash = MixHash(hash, label);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].hash != hash) continue;
    const std::size_t rep = groups_[g].members.front();
    bool equal = true;
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      if (columns_[i][rep] != tuple[i]) {
        equal = false;
        break;
      }
    }
    if (equal) {
      // v exceeds every existing id, so the group's minimum — and with it
      // the ordering invariant — is untouched.
      groups_[g].members.push_back(v);
      signature_of_.push_back(g);
      return;
    }
  }
  FoldGroup fresh;
  fresh.members.push_back(v);
  fresh.hash = hash;
  groups_.push_back(std::move(fresh));
  signature_of_.push_back(groups_.size() - 1);
}

void StreamAggregator::RebuildFoldGroups() {
  // Placing objects in ascending id order appends each to an existing
  // signature group or opens a fresh one whose minimum is the new
  // (maximal) id, so the groups come out ordered by minimum member with
  // consistent running hashes — the same grouping the incremental
  // maintenance produces for the same columns (see RestoreState).
  groups_.clear();
  signature_of_.clear();
  std::vector<Clustering::Label> tuple(columns_.size());
  for (std::size_t v = 0; v < n_; ++v) {
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      tuple[i] = columns_[i][v];
    }
    PlaceObjectInFoldGroup(v, tuple);
  }
}

void StreamAggregator::ExtendSolutionToNewObjects() {
  const std::size_t labeled = labels_.size();
  if (labeled == n_) return;
  std::vector<Clustering::Label> labels = labels_.labels();
  Clustering::Label next = 0;
  for (Clustering::Label label : labels) next = std::max(next, label + 1);
  labels.reserve(n_);
  for (std::size_t v = labeled; v < n_; ++v) labels.push_back(next++);
  labels_ = Clustering(std::move(labels));
  if (columns_.empty()) return;
  for (std::size_t v = labeled; v < n_; ++v) {
    const std::size_t base = PairIndex(0, v);
    for (std::size_t u = 0; u < v; ++u) {
      // The fresh singleton is apart from everything.
      predicted_cost_ += 1.0 - PairDistance(base + u);
    }
  }
}

Result<CorrelationInstance> StreamAggregator::BuildRepairInstance() const {
  if (options_.fold) {
    const std::size_t s = groups_.size();
    Result<SymmetricMatrix<float>> matrix = SymmetricMatrix<float>::Create(s);
    if (!matrix.ok()) return matrix.status();
    std::vector<double> multiplicities(s);
    for (std::size_t g = 0; g < s; ++g) {
      multiplicities[g] = static_cast<double>(groups_[g].members.size());
      const std::size_t rep_g = groups_[g].members.front();
      for (std::size_t h = g + 1; h < s; ++h) {
        // Group minima are ascending, so rep_g < rep_h and the counter
        // lookup needs no swap.
        const std::size_t rep_h = groups_[h].members.front();
        matrix->Set(g, h,
                    static_cast<float>(PairDistanceRaw(
                        separating_[PairIndex(rep_g, rep_h)],
                        opinionated_[PairIndex(rep_g, rep_h)])));
      }
    }
    return CorrelationInstance::FromSource(
        std::make_shared<const DenseDistanceSource>(std::move(matrix).value()),
        options_.num_threads, std::move(multiplicities));
  }
  Result<SymmetricMatrix<float>> matrix = SymmetricMatrix<float>::Create(n_);
  if (!matrix.ok()) return matrix.status();
  std::size_t idx = 0;
  for (std::size_t v = 1; v < n_; ++v) {
    for (std::size_t u = 0; u < v; ++u, ++idx) {
      matrix->Set(u, v, static_cast<float>(PairDistance(idx)));
    }
  }
  return CorrelationInstance::FromSource(
      std::make_shared<const DenseDistanceSource>(std::move(matrix).value()),
      options_.num_threads);
}

Clustering StreamAggregator::FoldSolution(const Clustering& labels) const {
  std::vector<Clustering::Label> folded(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    folded[g] = labels.label(groups_[g].members.front());
  }
  return Clustering(std::move(folded));
}

Clustering StreamAggregator::ExpandSolution(const Clustering& folded) const {
  std::vector<Clustering::Label> labels(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    labels[v] = folded.label(signature_of_[v]);
  }
  return Clustering(std::move(labels)).Normalized();
}

Result<ClusteringSet> StreamAggregator::CurrentInput() const {
  if (columns_.empty()) {
    return Status::FailedPrecondition(
        "the stream has no applied clusterings yet");
  }
  std::vector<Clustering> clusterings;
  clusterings.reserve(columns_.size());
  for (const std::vector<Clustering::Label>& column : columns_) {
    clusterings.emplace_back(column);
  }
  return ClusteringSet::Create(std::move(clusterings), weights_);
}

Result<CorrelationInstance> StreamAggregator::Instance() const {
  if (columns_.empty()) {
    return Status::FailedPrecondition(
        "the stream has no applied clusterings yet");
  }
  Result<SymmetricMatrix<float>> matrix = SymmetricMatrix<float>::Create(n_);
  if (!matrix.ok()) return matrix.status();
  std::size_t idx = 0;
  for (std::size_t v = 1; v < n_; ++v) {
    for (std::size_t u = 0; u < v; ++u, ++idx) {
      matrix->Set(u, v, static_cast<float>(PairDistance(idx)));
    }
  }
  return CorrelationInstance::FromSource(
      std::make_shared<const DenseDistanceSource>(std::move(matrix).value()),
      options_.num_threads);
}

std::size_t StreamAggregator::fold_signatures() const {
  return options_.fold ? groups_.size() : n_;
}

std::vector<std::size_t> StreamAggregator::fold_representatives() const {
  std::vector<std::size_t> reps;
  if (!options_.fold) {
    reps.resize(n_);
    for (std::size_t v = 0; v < n_; ++v) reps[v] = v;
    return reps;
  }
  reps.reserve(groups_.size());
  for (const FoldGroup& group : groups_) reps.push_back(group.members.front());
  return reps;
}

std::vector<double> StreamAggregator::fold_multiplicities() const {
  if (!options_.fold) return std::vector<double>(n_, 1.0);
  std::vector<double> multiplicities;
  multiplicities.reserve(groups_.size());
  for (const FoldGroup& group : groups_) {
    multiplicities.push_back(static_cast<double>(group.members.size()));
  }
  return multiplicities;
}

std::size_t StreamAggregator::signature_of(std::size_t v) const {
  CLUSTAGG_CHECK(v < n_);
  return options_.fold ? signature_of_[v] : v;
}

Result<StreamAggregatorState> StreamAggregator::ExportState() const {
  if (!pending_.empty()) {
    return Status::FailedPrecondition(
        "cannot export stream state with " +
        std::to_string(pending_.size()) +
        " queued events; Flush to a batch boundary first");
  }
  StreamAggregatorState state;
  state.num_objects = n_;
  state.columns = columns_;
  state.weights = weights_;
  state.total_weight = total_weight_;
  state.separating = separating_;
  state.opinionated = opinionated_;
  state.labels = labels_.labels();
  state.ever_clustered = ever_clustered_;
  state.cost = cost_;
  state.predicted_cost = predicted_cost_;
  state.drift_accum = drift_accum_;
  state.flush_count = flush_count_;
  state.clustering_ids = clustering_ids_;
  state.object_ids = object_ids_;
  state.next_clustering_id = next_clustering_id_;
  state.next_object_id = next_object_id_;
  return state;
}

Status StreamAggregator::RestoreState(StreamAggregatorState state) {
  if (!pending_.empty()) {
    return Status::FailedPrecondition(
        "cannot restore state into a stream with queued events");
  }
  const std::size_t n = state.num_objects;
  const std::size_t pairs = n > 1 ? n * (n - 1) / 2 : 0;
  if (state.weights.size() != state.columns.size()) {
    return Status::DataLoss("stream state holds " +
                            std::to_string(state.weights.size()) +
                            " weights for " +
                            std::to_string(state.columns.size()) +
                            " clusterings");
  }
  for (const std::vector<Clustering::Label>& column : state.columns) {
    if (column.size() != n) {
      return Status::DataLoss(
          "stream state clustering covers " + std::to_string(column.size()) +
          " objects, expected " + std::to_string(n));
    }
  }
  if (state.separating.size() != pairs || state.opinionated.size() != pairs) {
    return Status::DataLoss(
        "stream state counter triangles hold " +
        std::to_string(state.separating.size()) + " / " +
        std::to_string(state.opinionated.size()) + " pairs, expected " +
        std::to_string(pairs));
  }
  if (!state.labels.empty() && state.labels.size() != n) {
    return Status::DataLoss("stream state solution labels " +
                            std::to_string(state.labels.size()) +
                            " objects, expected " + std::to_string(n));
  }
  if (state.clustering_ids.size() != state.columns.size()) {
    return Status::DataLoss("stream state carries " +
                            std::to_string(state.clustering_ids.size()) +
                            " clustering ids for " +
                            std::to_string(state.columns.size()) +
                            " clusterings");
  }
  if (state.object_ids.size() != n) {
    return Status::DataLoss(
        "stream state carries " + std::to_string(state.object_ids.size()) +
        " object ids for " + std::to_string(n) + " objects");
  }
  const auto ids_valid = [](const std::vector<std::uint64_t>& ids,
                            std::uint64_t next) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= next) return false;
      if (i > 0 && ids[i] <= ids[i - 1]) return false;
    }
    return true;
  };
  if (!ids_valid(state.clustering_ids, state.next_clustering_id) ||
      !ids_valid(state.object_ids, state.next_object_id)) {
    return Status::DataLoss(
        "stream state id vectors are not strictly ascending below their "
        "next-id counters");
  }
  n_ = n;
  columns_ = std::move(state.columns);
  weights_ = std::move(state.weights);
  total_weight_ = state.total_weight;
  separating_ = std::move(state.separating);
  opinionated_ = std::move(state.opinionated);
  labels_ = Clustering(std::move(state.labels));
  ever_clustered_ = state.ever_clustered;
  cost_ = state.cost;
  predicted_cost_ = state.predicted_cost;
  drift_accum_ = state.drift_accum;
  flush_count_ = state.flush_count;
  clustering_ids_ = std::move(state.clustering_ids);
  object_ids_ = std::move(state.object_ids);
  next_clustering_id_ = state.next_clustering_id;
  next_object_id_ = state.next_object_id;
  pending_n_ = n_;
  pending_m_ = columns_.size();
  pending_clustering_ids_ = clustering_ids_;
  pending_object_ids_ = object_ids_;
  pending_next_clustering_id_ = next_clustering_id_;
  pending_next_object_id_ = next_object_id_;
  // Rebuild the fold grouping by placing objects in ascending id order
  // (see RebuildFoldGroups): the result is ordered by minimum member
  // with the same tuple partition the incremental maintenance held.
  groups_.clear();
  signature_of_.clear();
  if (options_.fold) RebuildFoldGroups();
  return Status::OK();
}

Result<StreamFlushReport> StreamAggregator::Flush(const RunContext& run) {
  StreamFlushReport report;
  Telemetry* telemetry = run.telemetry();
  InstrumentedSpan flush_span(telemetry, "stream.flush");
  TelemetryCount(telemetry, "stream.flushes");
  {
    InstrumentedSpan span(telemetry, "stream.ingest");
    InstrumentedTimer timer(telemetry, "stream.ingest.batch_nanos");
    std::size_t applied = 0;
    while (applied < pending_.size()) {
      const RunOutcome poll = run.Poll();
      if (poll != RunOutcome::kConverged) {
        report.outcome = MergeOutcomes(report.outcome, poll);
        break;
      }
      const StreamEvent& event = pending_[applied];
      const std::size_t before = report.pairs_touched;
      if (const auto* add = std::get_if<AddClusteringEvent>(&event)) {
        ApplyAddClustering(*add, &report);
        TelemetryCount(telemetry, "stream.ingest.clusterings");
        // The window evicts the oldest survivor as soon as the add
        // overflows it — the same order Ingest's pending mirror
        // simulated, so queued removals stay valid.
        while (options_.window > 0 && columns_.size() > options_.window) {
          InstrumentedSpan evict_span(telemetry, "stream.evict");
          const std::size_t before_evict = report.pairs_touched;
          ApplyRemoveClustering(clustering_ids_.front(), &report);
          ++evictions_;
          ++report.evictions;
          TelemetryCount(telemetry, "stream.evict.clusterings");
          TelemetryCount(telemetry, "stream.evict.pairs_touched",
                         report.pairs_touched - before_evict);
        }
      } else if (const auto* object = std::get_if<AddObjectEvent>(&event)) {
        ApplyAddObject(*object, &report);
        TelemetryCount(telemetry, "stream.ingest.objects");
      } else if (const auto* rm = std::get_if<RemoveClusteringEvent>(&event)) {
        ApplyRemoveClustering(rm->id, &report);
        TelemetryCount(telemetry, "stream.ingest.removals");
      } else {
        ApplyRemoveObject(std::get<RemoveObjectEvent>(event).id, &report);
        TelemetryCount(telemetry, "stream.ingest.removals");
      }
      run.ChargeIterations(report.pairs_touched - before);
      ++applied;
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(applied));
    report.events_applied = applied;
    TelemetryCount(telemetry, "stream.ingest.events", applied);
    TelemetryCount(telemetry, "stream.ingest.pairs_touched",
                   report.pairs_touched);
  }
  ExtendSolutionToNewObjects();
  TelemetrySetGauge(telemetry, "stream.objects",
                    static_cast<std::int64_t>(n_));
  TelemetrySetGauge(telemetry, "stream.clusterings",
                    static_cast<std::int64_t>(columns_.size()));
  report.drift = drift();
  report.pre_repair = labels_;
  if (columns_.empty()) {
    // Nothing expresses an opinion yet (or every clustering was removed
    // again): every partition costs 0 and the current labels are as
    // good as any.
    cost_ = 0.0;
    predicted_cost_ = 0.0;
    report.predicted_cost = 0.0;
    return report;
  }
  report.predicted_cost = predicted_cost_;
  Result<CorrelationInstance> repair_instance = BuildRepairInstance();
  if (!repair_instance.ok()) return repair_instance.status();
  const CorrelationInstance& instance = *repair_instance;
  // A batch cut short mid-apply skips the solution fix-up entirely: the
  // remaining events arrive at the next Flush, and the current labels are
  // still a valid partition of everything applied so far.
  if (report.outcome == RunOutcome::kConverged) {
    const bool rebuild =
        !ever_clustered_ || report.drift > options_.rebuild_threshold;
    if (rebuild) {
      InstrumentedSpan span(telemetry, "stream.rebuild");
      InstrumentedTimer timer(telemetry, "stream.repair.rebuild_nanos");
      Result<ClusteringSet> input = CurrentInput();
      if (!input.ok()) return input.status();
      AggregatorOptions aggregate = options_.rebuild;
      aggregate.missing = options_.missing;
      aggregate.num_threads = options_.num_threads;
      aggregate.fold = options_.fold;
      aggregate.run = run;
      Result<AggregationResult> result = Aggregate(*input, aggregate);
      if (!result.ok()) return result.status();
      labels_ = std::move(result->clustering);
      report.outcome = MergeOutcomes(report.outcome, result->outcome);
      report.rebuilt = true;
      drift_accum_ = 0.0;
      ever_clustered_ = true;
      TelemetryCount(telemetry, "stream.repair.rebuilds");
    } else {
      InstrumentedSpan span(telemetry, "stream.repair");
      InstrumentedTimer timer(telemetry, "stream.repair.nanos");
      const Clustering initial =
          options_.fold ? FoldSolution(labels_) : labels_;
      Result<ClustererRun> repaired =
          LocalSearchClusterer(options_.repair)
              .RunFromControlled(instance, initial, run);
      if (!repaired.ok()) return repaired.status();
      labels_ = options_.fold ? ExpandSolution(repaired->clustering)
                              : std::move(repaired->clustering);
      report.outcome = MergeOutcomes(report.outcome, repaired->outcome);
      report.repaired = true;
      TelemetryCount(telemetry, "stream.repair.runs");
    }
  }
  // Final scoring runs outside the batch budget, like Aggregate's: a
  // report without a cost would be useless.
  {
    InstrumentedSpan span(telemetry, "stream.score");
    const Clustering scored = options_.fold ? FoldSolution(labels_) : labels_;
    Result<double> cost = instance.Cost(scored);
    if (!cost.ok()) return cost.status();
    cost_ = *cost;
  }
  predicted_cost_ = cost_;
  report.cost = cost_;
  TelemetryTracePoint(telemetry, "stream", flush_count_, cost_,
                      report.events_applied);
  ++flush_count_;
  return report;
}

Result<StreamReplayResult> ReplayEventLog(
    StreamAggregator& stream, const std::vector<StreamRecord>& records,
    const std::function<RunContext()>& make_run,
    const std::vector<std::size_t>* lines) {
  StreamReplayResult result;
  const auto flush = [&]() -> Status {
    const RunContext run = make_run ? make_run() : RunContext();
    Result<StreamFlushReport> report = stream.Flush(run);
    if (!report.ok()) return report.status();
    result.outcome = MergeOutcomes(result.outcome, report->outcome);
    if (report->rebuilt) ++result.rebuilds;
    if (report->repaired) ++result.repairs;
    result.evictions += report->evictions;
    result.reports.push_back(*std::move(report));
    return Status::OK();
  };
  for (std::size_t r = 0; r < records.size(); ++r) {
    const StreamRecord& record = records[r];
    if (std::holds_alternative<FlushMarker>(record)) {
      Status status = flush();
      if (!status.ok()) return status;
      continue;
    }
    Status status = stream.Ingest(ToStreamEvent(record));
    if (!status.ok()) {
      // Ingest rejections are semantic InvalidArguments; with a line map
      // from ParseEventLog they read like parse errors, pointing at the
      // offending line of the original file.
      if (status.code() == StatusCode::kInvalidArgument && lines != nullptr &&
          r < lines->size()) {
        return Status::InvalidArgument(
            "event log line " + std::to_string((*lines)[r]) + ": " +
            std::string(status.message()));
      }
      return status;
    }
  }
  if (stream.pending_events() > 0 || result.reports.empty()) {
    Status status = flush();
    if (!status.ok()) return status;
  }
  return result;
}

}  // namespace clustagg
