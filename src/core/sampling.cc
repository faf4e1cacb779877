#include "core/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/aggregator.h"
#include "core/instrumentation.h"
#include "core/internal/label_counts.h"
#include "core/internal/pipeline.h"
#include "core/signature_index.h"

namespace clustagg {

namespace {

/// The assignment-phase sums M(v, C_j) = sum_{u in C_j} X_vu as table
/// rows. Under the coin policy clustering i contributes, for each sample
/// cluster j,
///   (present_{i,j} - count_{i,j}[label_i(v)]) + (1 - p) missing_{i,j}
/// when v has a label, and (1 - p) |C_j| when it has none, so the
/// contribution depends on v only through label_i(v). Each clustering
/// gets one k-wide row per dense label its sample members carry, a
/// default row for every other label (count 0) and a row for an
/// unlabeled v, each entry holding weight(i) * contribution; M(v, .) is
/// then m row additions in ascending i followed by the division by the
/// total weight. The tables take O(m * (members + 2) * k) doubles,
/// independent of n and of the label range. Only valid for
/// MissingValuePolicy::kRandomCoin (the kIgnore policy normalizes per
/// pair and does not decompose).
class AssignmentIndex {
 public:
  AssignmentIndex(const ClusteringSet& input,
                  const std::vector<std::vector<std::size_t>>& clusters,
                  double coin_together_probability)
      : input_(input), k_(clusters.size()), tables_(input.num_clusterings()) {
    const double expected_missing = 1.0 - coin_together_probability;
    std::vector<Clustering::Label> member_labels;
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      const Clustering& c = input.clustering(i);
      member_labels.clear();
      for (const std::vector<std::size_t>& members : clusters) {
        for (std::size_t u : members) member_labels.push_back(c.label(u));
      }
      Table& table = tables_[i];
      table.rows = table.labels.Remap(member_labels.data(),
                                      member_labels.size(),
                                      member_labels.data());
      // Count first: values[row * k + j] = members of C_j with that
      // label; the default row (labels no member carries) stays 0.
      table.values.assign((table.rows + 2) * k_, 0.0);
      std::vector<double> missing(k_, 0.0);
      const Clustering::Label* row = member_labels.data();
      for (std::size_t j = 0; j < k_; ++j) {
        for (std::size_t t = 0; t < clusters[j].size(); ++t, ++row) {
          if (*row == Clustering::kMissing) {
            missing[j] += 1.0;
          } else {
            table.values[static_cast<std::size_t>(*row) * k_ + j] += 1.0;
          }
        }
      }
      const double w = input.weight(i);
      for (std::size_t j = 0; j < k_; ++j) {
        const double size = static_cast<double>(clusters[j].size());
        const double present = size - missing[j];
        for (std::size_t r = 0; r <= table.rows; ++r) {
          double& value = table.values[r * k_ + j];
          value = w * ((present - value) + expected_missing * missing[j]);
        }
        table.values[(table.rows + 1) * k_ + j] = w * (expected_missing * size);
      }
    }
  }

  /// Writes M(v, C_j) for every sample cluster j into m_row[0..k).
  void M(std::size_t v, double* m_row) const {
    std::fill(m_row, m_row + k_, 0.0);
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      const Table& table = tables_[i];
      const Clustering::Label label = input_.clustering(i).label(v);
      std::size_t row = table.rows + 1;  // v unlabeled
      if (label != Clustering::kMissing) {
        const Clustering::Label found = table.labels.Find(label);
        row = found == Clustering::kMissing ? table.rows
                                            : static_cast<std::size_t>(found);
      }
      const double* values = table.values.data() + row * k_;
      for (std::size_t j = 0; j < k_; ++j) m_row[j] += values[j];
    }
    for (std::size_t j = 0; j < k_; ++j) m_row[j] /= input_.total_weight();
  }

 private:
  struct Table {
    internal::DenseLabels labels;  // member label -> row
    std::size_t rows = 0;          // distinct member labels
    std::vector<double> values;    // (rows + 2) x k, row-major
  };

  const ClusteringSet& input_;
  std::size_t k_;
  std::vector<Table> tables_;
};

/// Relabels `final_labels[member]` for each object of `sub_clustering`
/// (which partitions `members`) with fresh labels starting at
/// `*next_label`.
void ApplySubClustering(const Clustering& sub_clustering,
                        const std::vector<std::size_t>& members,
                        std::vector<Clustering::Label>* final_labels,
                        Clustering::Label* next_label) {
  const Clustering norm = sub_clustering.Normalized();
  Clustering::Label max_label = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Clustering::Label l = norm.label(i);
    CLUSTAGG_CHECK(l != Clustering::kMissing);
    (*final_labels)[members[i]] = *next_label + l;
    max_label = std::max(max_label, l);
  }
  *next_label += max_label + 1;
}

/// Solves `subset` with `base` — folded to one weighted representative
/// per duplicate signature when `opts.fold` is on — and returns labels in
/// subset space. Clusterers degrade internally, so an interrupt status
/// escaping here came from the instance build.
Result<ClustererRun> SolveSubset(const ClusteringSet& input,
                                 const CorrelationClusterer& base,
                                 const RunContext& run,
                                 const SamplingOptions& opts,
                                 const std::vector<std::size_t>& subset) {
  std::optional<SignatureIndex> fold;
  if (opts.fold) {
    SignatureIndex signatures = SignatureIndex::BuildSubset(input, subset);
    if (!signatures.trivial()) {
      TelemetryCount(run.telemetry(), "sampling.folds");
      fold.emplace(std::move(signatures));
    }
  }
  AggregatorOptions options;
  options.missing = opts.missing;
  options.run = run;
  options.allow_fallbacks = false;
  const internal::SubsetSolve sub{base, opts.source};
  Result<internal::Solved> solved = internal::Solve(
      input, fold ? &fold->representatives() : &subset,
      fold ? fold->multiplicities() : internal::kUnfolded, options, &sub);
  if (!solved.ok()) return solved.status();
  return ClustererRun{fold ? fold->Expand(*solved->clustering)
                           : std::move(*solved->clustering),
                      solved->outcome};
}

}  // namespace

Result<Clustering> SamplingAggregate(const ClusteringSet& input,
                                     const CorrelationClusterer& base,
                                     const SamplingOptions& options,
                                     SamplingStats* stats) {
  Result<ClustererRun> run =
      SamplingAggregateControlled(input, base, RunContext(), options, stats);
  if (!run.ok()) return run.status();
  return std::move(run->clustering);
}

Result<ClustererRun> SamplingAggregateControlled(
    const ClusteringSet& input, const CorrelationClusterer& base,
    const RunContext& run, const SamplingOptions& options,
    SamplingStats* stats) {
  const std::size_t n = input.num_objects();
  if (n == 0) return ClustererRun{Clustering(), RunOutcome::kConverged};

  // Thread the budget into the subset-instance builds (their dense fill
  // is the quadratic part of the pipeline) unless the caller already set
  // a budget of their own there, and the telemetry sink unless the
  // caller set one there.
  SamplingOptions opts = options;
  if (!run.unlimited() && opts.source.run.unlimited()) {
    opts.source.run = run;
  }
  if (opts.source.run.telemetry() == nullptr) {
    opts.source.run = opts.source.run.WithTelemetry(run.telemetry());
  }
  RunOutcome outcome = RunOutcome::kConverged;

  std::size_t sample_size = opts.sample_size;
  if (sample_size == 0) {
    sample_size = static_cast<std::size_t>(std::llround(
        opts.sample_log_factor * std::log(static_cast<double>(n) + 1.0)));
  }
  sample_size = std::clamp<std::size_t>(sample_size, std::min<std::size_t>(
      n, 2), n);
  if (stats != nullptr) *stats = SamplingStats{};
  if (stats != nullptr) stats->sample_size = sample_size;
  Telemetry* telemetry = run.telemetry();
  TelemetrySetGauge(telemetry, "sampling.sample_size",
                    static_cast<std::int64_t>(sample_size));

  Stopwatch watch;

  // Phase 1: aggregate a uniform sample.
  const std::size_t sample_span = TelemetryBeginSpan(telemetry,
                                                     "sampling.sample");
  Rng rng(opts.seed);
  std::vector<std::size_t> sample = rng.SampleWithoutReplacement(n,
                                                                 sample_size);
  std::sort(sample.begin(), sample.end());
  Result<ClustererRun> sample_run =
      SolveSubset(input, base, run, opts, sample);
  if (!sample_run.ok()) {
    if (RunContext::IsInterrupt(sample_run.status())) {
      // The sample instance build was cut short; nothing was clustered
      // yet, so all singletons is the valid floor.
      return ClustererRun{
          Clustering::AllSingletons(n),
          RunContext::OutcomeFromInterrupt(sample_run.status())};
    }
    return sample_run.status();
  }
  outcome = MergeOutcomes(outcome, sample_run->outcome);
  const Clustering& sample_clustering = sample_run->clustering;
  if (stats != nullptr) stats->sample_phase_seconds = watch.ElapsedSeconds();
  watch.Restart();
  TelemetryEndSpan(telemetry, sample_span);
  const std::size_t assign_span = TelemetryBeginSpan(telemetry,
                                                     "sampling.assign");

  // Cluster member lists in *global* object ids.
  std::vector<std::vector<std::size_t>> clusters;
  for (const std::vector<std::size_t>& members :
       sample_clustering.Clusters()) {
    std::vector<std::size_t> global;
    global.reserve(members.size());
    for (std::size_t i : members) global.push_back(sample[i]);
    clusters.push_back(std::move(global));
  }

  // Phase 2: assign every non-sampled object to the sample cluster that
  // incurs the least correlation cost, or to a fresh singleton, using the
  // same bookkeeping identity as LOCALSEARCH:
  //   join(j) = T + 2 M(v, C_j) - |C_j|,   singleton = T,
  // with T = sum_j (|C_j| - M(v, C_j)).
  std::vector<Clustering::Label> final_labels(n, Clustering::kMissing);
  for (std::size_t j = 0; j < clusters.size(); ++j) {
    for (std::size_t v : clusters[j]) {
      final_labels[v] = static_cast<Clustering::Label>(j);
    }
  }
  Clustering::Label next_label =
      static_cast<Clustering::Label>(clusters.size());

  std::vector<bool> in_sample(n, false);
  for (std::size_t v : sample) in_sample[v] = true;

  // Row tables for the O(m k)-per-object path (coin policy).
  const bool use_index =
      opts.missing.policy == MissingValuePolicy::kRandomCoin;
  std::unique_ptr<AssignmentIndex> index;
  if (use_index) {
    index = std::make_unique<AssignmentIndex>(
        input, clusters, opts.missing.coin_together_probability);
  }

  // The cluster index that minimizes v's correlation cost, or
  // clusters.size() for a fresh singleton.
  std::vector<double> m_row(clusters.size());
  auto best_cluster = [&](std::size_t v) {
    if (use_index) {
      index->M(v, m_row.data());
    } else {
      for (std::size_t j = 0; j < clusters.size(); ++j) {
        double mj = 0.0;
        for (std::size_t u : clusters[j]) {
          mj += input.PairwiseDistance(v, u, options.missing);
        }
        m_row[j] = mj;
      }
    }
    double t = 0.0;
    for (std::size_t j = 0; j < clusters.size(); ++j) {
      t += static_cast<double>(clusters[j].size()) - m_row[j];
    }
    double best_cost = t;  // fresh singleton
    std::size_t best = clusters.size();
    for (std::size_t j = 0; j < clusters.size(); ++j) {
      const double cost =
          t + 2.0 * m_row[j] - static_cast<double>(clusters[j].size());
      if (cost < best_cost) {
        best_cost = cost;
        best = j;
      }
    }
    return best;
  };

  // M(v, .) depends on v only through its label row, so the choice is
  // made once per signature and reused for its later objects (each of
  // which still gets a fresh label when the choice is a singleton). The
  // grouping pays off only on inputs with repeated rows: a sample
  // without one says s is close to n, where the O(n m) grouping pass
  // and its per-object arrays buy nothing, so every object is decided
  // on its own. The index is built at the first object actually
  // decided, so a run interrupted before that never pays for it.
  const bool per_signature =
      SignatureIndex::BuildSubset(input, sample).num_signatures() <
      sample.size();
  std::optional<SignatureIndex> signatures;
  constexpr std::size_t kUndecided = static_cast<std::size_t>(-1);
  std::vector<std::size_t> choice;

  std::vector<std::size_t> singleton_objects;
  for (std::size_t v = 0; v < n; ++v) {
    if (in_sample[v]) continue;
    // Each decision costs O(k m); poll every 16 objects so the
    // interval stays bounded. Objects past an interrupt become
    // singletons — the same fallback the assignment itself uses for
    // far-from-everything objects — so the partition stays valid.
    if (v % 16 == 0 && outcome == RunOutcome::kConverged) {
      run.ChargeIterations(16);
      outcome = run.Poll();
    }
    std::size_t best = clusters.size();
    if (outcome == RunOutcome::kConverged && !per_signature) {
      best = best_cluster(v);
    } else if (outcome == RunOutcome::kConverged) {
      if (!signatures) {
        signatures = SignatureIndex::Build(input);
        choice.assign(signatures->num_signatures(), kUndecided);
      }
      std::size_t& chosen = choice[signatures->signature_of(v)];
      if (chosen == kUndecided) chosen = best_cluster(v);
      best = chosen;
    }
    if (best < clusters.size()) {
      final_labels[v] = static_cast<Clustering::Label>(best);
    } else {
      final_labels[v] = next_label++;
      singleton_objects.push_back(v);
    }
  }
  if (stats != nullptr) stats->assign_phase_seconds = watch.ElapsedSeconds();
  watch.Restart();
  TelemetryEndSpan(telemetry, assign_span);
  const std::size_t recluster_span = TelemetryBeginSpan(
      telemetry, "sampling.recluster");

  // Phase 3: the assignment phase leaves too many singletons (Section
  // 4.1); collect every current singleton — including size-1 sample
  // clusters — and aggregate them again. When even the singleton pool is
  // too large for a quadratic instance, recurse through SAMPLING once
  // (with reclustering off), keeping the whole pipeline sub-quadratic.
  if (opts.recluster_singletons && outcome == RunOutcome::kConverged) {
    for (const std::vector<std::size_t>& members : clusters) {
      if (members.size() == 1) singleton_objects.push_back(members[0]);
    }
    std::sort(singleton_objects.begin(), singleton_objects.end());
    const std::size_t quadratic_cap =
        std::max<std::size_t>(2 * sample_size, 2000);
    if (singleton_objects.size() >= 2 &&
        singleton_objects.size() <= quadratic_cap) {
      Result<ClustererRun> reclustered =
          SolveSubset(input, base, run, opts, singleton_objects);
      if (!reclustered.ok()) {
        if (RunContext::IsInterrupt(reclustered.status())) {
          // The re-clustering instance build was cut short; skip the
          // polish — the assignment-phase partition stands.
          outcome = MergeOutcomes(outcome, RunContext::OutcomeFromInterrupt(
                                               reclustered.status()));
          return ClustererRun{Clustering(std::move(final_labels)).Normalized(),
                              outcome};
        }
        return reclustered.status();
      }
      outcome = MergeOutcomes(outcome, reclustered->outcome);
      ApplySubClustering(reclustered->clustering, singleton_objects,
                         &final_labels, &next_label);
    } else if (singleton_objects.size() > quadratic_cap) {
      std::vector<Clustering> restricted;
      std::vector<double> restricted_weights;
      restricted.reserve(input.num_clusterings());
      restricted_weights.reserve(input.num_clusterings());
      for (std::size_t i = 0; i < input.num_clusterings(); ++i) {
        restricted.push_back(
            input.clustering(i).Restrict(singleton_objects));
        restricted_weights.push_back(input.weight(i));
      }
      Result<ClusteringSet> sub_input = ClusteringSet::Create(
          std::move(restricted), std::move(restricted_weights));
      if (!sub_input.ok()) return sub_input.status();
      SamplingOptions sub_options = opts;
      sub_options.recluster_singletons = false;
      sub_options.sample_size = sample_size;
      Result<ClustererRun> reclustered =
          SamplingAggregateControlled(*sub_input, base, run, sub_options);
      if (!reclustered.ok()) return reclustered.status();
      outcome = MergeOutcomes(outcome, reclustered->outcome);
      ApplySubClustering(reclustered->clustering, singleton_objects,
                         &final_labels, &next_label);
    }
  }
  if (stats != nullptr) {
    stats->recluster_phase_seconds = watch.ElapsedSeconds();
    stats->singletons_after_assignment = singleton_objects.size();
  }
  TelemetryEndSpan(telemetry, recluster_span);
  TelemetrySetGauge(telemetry, "sampling.singletons_after_assignment",
                    static_cast<std::int64_t>(singleton_objects.size()));

  return ClustererRun{Clustering(std::move(final_labels)).Normalized(),
                      outcome};
}

}  // namespace clustagg
