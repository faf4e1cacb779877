// Tests for the SAMPLING meta-algorithm: planted-cluster recovery,
// singleton reclustering, stats reporting, and degenerate sizes.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "core/agglomerative.h"
#include "core/clustering_set.h"
#include "core/local_search.h"
#include "core/sampling.h"
#include "core/signature_index.h"
#include "eval/metrics.h"

namespace clustagg {
namespace {

/// m noisy copies of a planted clustering: each object keeps its planted
/// label with probability 1 - noise and moves to a random cluster
/// otherwise.
ClusteringSet NoisyCopies(const Clustering& planted, std::size_t m,
                          double noise, uint64_t seed) {
  Rng rng(seed);
  const std::size_t k = planted.NumClusters();
  std::vector<Clustering> copies;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(planted.labels());
    for (auto& l : labels) {
      if (rng.NextBernoulli(noise)) {
        l = static_cast<Clustering::Label>(rng.NextBounded(k));
      }
    }
    copies.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(copies));
}

Clustering Planted(std::size_t n, std::size_t k) {
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = static_cast<Clustering::Label>(v % k);
  }
  return Clustering(std::move(labels));
}

TEST(SamplingTest, RecoversPlantedClusters) {
  const std::size_t n = 2000;
  const Clustering planted = Planted(n, 4);
  const ClusteringSet input = NoisyCopies(planted, 7, 0.1, 42);

  SamplingOptions options;
  options.sample_size = 200;
  options.seed = 17;
  SamplingStats stats;
  const AgglomerativeClusterer base;
  Result<Clustering> result =
      SamplingAggregate(input, base, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.sample_size, 200u);
  Result<double> ari = AdjustedRandIndex(*result, planted);
  ASSERT_TRUE(ari.ok());
  EXPECT_GT(*ari, 0.95);
}

TEST(SamplingTest, DefaultSampleSizeIsLogarithmic) {
  const Clustering planted = Planted(5000, 3);
  const ClusteringSet input = NoisyCopies(planted, 5, 0.05, 7);
  SamplingOptions options;  // sample_size = 0 -> factor * ln(n)
  options.sample_log_factor = 30.0;
  SamplingStats stats;
  const AgglomerativeClusterer base;
  Result<Clustering> result =
      SamplingAggregate(input, base, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.sample_size, 100u);
  EXPECT_LT(stats.sample_size, 1000u);
}

TEST(SamplingTest, SampleCoveringEverythingMatchesDirectRun) {
  const std::size_t n = 60;
  const Clustering planted = Planted(n, 3);
  const ClusteringSet input = NoisyCopies(planted, 5, 0.05, 3);
  SamplingOptions options;
  options.sample_size = n;  // degenerate: sample everything
  const AgglomerativeClusterer base;
  Result<Clustering> sampled = SamplingAggregate(input, base, options);
  ASSERT_TRUE(sampled.ok());
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  Result<Clustering> direct = base.Run(instance);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(sampled->SamePartition(*direct));
}

TEST(SamplingTest, StatsPhasesAreReported) {
  const ClusteringSet input = NoisyCopies(Planted(500, 4), 5, 0.1, 9);
  SamplingOptions options;
  options.sample_size = 64;
  SamplingStats stats;
  const AgglomerativeClusterer base;
  ASSERT_TRUE(SamplingAggregate(input, base, options, &stats).ok());
  EXPECT_EQ(stats.sample_size, 64u);
  EXPECT_GE(stats.sample_phase_seconds, 0.0);
  EXPECT_GE(stats.assign_phase_seconds, 0.0);
  EXPECT_GE(stats.recluster_phase_seconds, 0.0);
}

TEST(SamplingTest, ReclusterSingletonsReducesSingletonCount) {
  // Noise-heavy input leaves stragglers after assignment; reclustering
  // them should group some together (or at least not fail).
  const ClusteringSet input = NoisyCopies(Planted(800, 5), 5, 0.25, 31);
  const AgglomerativeClusterer base;

  SamplingOptions with;
  with.sample_size = 80;
  with.recluster_singletons = true;
  Result<Clustering> reclustered = SamplingAggregate(input, base, with);
  ASSERT_TRUE(reclustered.ok());

  SamplingOptions without = with;
  without.recluster_singletons = false;
  Result<Clustering> raw = SamplingAggregate(input, base, without);
  ASSERT_TRUE(raw.ok());

  auto singletons = [](const Clustering& c) {
    std::size_t count = 0;
    for (std::size_t s : c.ClusterSizes()) {
      if (s == 1) ++count;
    }
    return count;
  };
  EXPECT_LE(singletons(*reclustered), singletons(*raw));
}

TEST(SamplingTest, WorksWithLocalSearchBase) {
  const Clustering planted = Planted(600, 3);
  const ClusteringSet input = NoisyCopies(planted, 5, 0.08, 13);
  SamplingOptions options;
  options.sample_size = 100;
  const LocalSearchClusterer base;
  Result<Clustering> result = SamplingAggregate(input, base, options);
  ASSERT_TRUE(result.ok());
  Result<double> ari = AdjustedRandIndex(*result, planted);
  EXPECT_GT(*ari, 0.9);
}

TEST(SamplingTest, EmptyInput) {
  // Zero objects: trivially empty result.
  Result<ClusteringSet> input = ClusteringSet::Create({Clustering()});
  ASSERT_TRUE(input.ok());
  const AgglomerativeClusterer base;
  Result<Clustering> result = SamplingAggregate(*input, base, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(SamplingTest, TinyInput) {
  const ClusteringSet input = NoisyCopies(Planted(3, 2), 3, 0.0, 1);
  SamplingOptions options;
  options.sample_size = 2;
  const AgglomerativeClusterer base;
  Result<Clustering> result = SamplingAggregate(input, base, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  EXPECT_FALSE(result->HasMissing());
}

TEST(SamplingTest, FullSampleMatchesDirectRunForEveryBase) {
  // sample == n degenerates to the base algorithm (assignment and
  // reclustering become no-ops on clean data) for every deterministic
  // base.
  const std::size_t n = 50;
  const Clustering planted = Planted(n, 3);
  const ClusteringSet input = NoisyCopies(planted, 5, 0.04, 29);
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  SamplingOptions options;
  options.sample_size = n;

  const AgglomerativeClusterer agglomerative;
  const LocalSearchClusterer local_search;
  const CorrelationClusterer* bases[] = {&agglomerative, &local_search};
  for (const CorrelationClusterer* base : bases) {
    Result<Clustering> sampled = SamplingAggregate(input, *base, options);
    ASSERT_TRUE(sampled.ok()) << base->name();
    Result<Clustering> direct = base->Run(instance);
    ASSERT_TRUE(direct.ok()) << base->name();
    EXPECT_TRUE(sampled->SamePartition(*direct)) << base->name();
  }
}

TEST(SamplingTest, HugeSingletonPoolTriggersRecursionSafely) {
  // Inputs that agree on nothing: the assignment phase strands many
  // objects as singletons, exceeding the quadratic cap, and the
  // recursive SAMPLING path must still produce a complete clustering.
  Rng rng(41);
  const std::size_t n = 6000;
  std::vector<Clustering> chaos;
  for (int i = 0; i < 4; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (auto& l : labels) {
      l = static_cast<Clustering::Label>(rng.NextBounded(800));
    }
    chaos.emplace_back(std::move(labels));
  }
  const ClusteringSet input = *ClusteringSet::Create(std::move(chaos));
  SamplingOptions options;
  options.sample_size = 64;
  options.seed = 2;
  const AgglomerativeClusterer base;
  Result<Clustering> result = SamplingAggregate(input, base, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), n);
  EXPECT_FALSE(result->HasMissing());
}

TEST(SamplingTest, DeterministicForFixedSeed) {
  const ClusteringSet input = NoisyCopies(Planted(400, 4), 5, 0.15, 21);
  SamplingOptions options;
  options.sample_size = 60;
  options.seed = 5;
  const AgglomerativeClusterer base;
  Result<Clustering> a = SamplingAggregate(input, base, options);
  Result<Clustering> b = SamplingAggregate(input, base, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels(), b->labels());
}

/// FNV-1a over a label vector: a compact fingerprint for pinning a
/// clustering bit-for-bit.
std::uint64_t LabelChecksum(const Clustering& c) {
  std::uint64_t h = 1469598103934665603ULL;
  for (Clustering::Label l : c.labels()) {
    h ^= static_cast<std::uint32_t>(l);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Runs SAMPLING + AGGLOMERATIVE on `input` and returns the label
/// checksum and the cost D of the result under `missing`.
std::pair<std::uint64_t, double> SamplingFingerprint(
    const ClusteringSet& input, const MissingValueOptions& missing) {
  SamplingOptions options;
  options.sample_size = 150;
  options.seed = 9;
  options.missing = missing;
  const AgglomerativeClusterer base;
  Result<Clustering> result = SamplingAggregate(input, base, options);
  EXPECT_TRUE(result.ok());
  if (!result.ok()) return {0, 0.0};
  Result<double> d = input.TotalDisagreements(*result, missing);
  EXPECT_TRUE(d.ok());
  return {LabelChecksum(*result), d.ok() ? *d : 0.0};
}

// The assignment phase's M(v, C_j) table is pinned bit-for-bit: these
// fingerprints were recorded from the hash-map implementation it
// replaced, on a plain input, a weighted input with missing labels
// under a biased coin, an input whose labels are sparse and huge, and
// a wide-alphabet input (flat and sparse) whose sample misses labels.
TEST(SamplingTest, AssignmentBitIdenticalOnPinnedInputs) {
  const ClusteringSet plain = NoisyCopies(Planted(3000, 5), 7, 0.15, 101);
  const auto [plain_sum, plain_d] = SamplingFingerprint(plain, {});
  EXPECT_EQ(plain_sum, 0x2fdbefae33f32177ULL);
  EXPECT_EQ(plain_d, 0x1.57072p+21);

  Rng rng(202);
  const ClusteringSet noisy = NoisyCopies(Planted(3000, 6), 7, 0.2, 202);
  std::vector<Clustering> holey;
  for (const Clustering& c : noisy.clusterings()) {
    std::vector<Clustering::Label> labels(c.labels());
    for (auto& l : labels) {
      if (rng.NextBernoulli(0.1)) l = Clustering::kMissing;
    }
    holey.emplace_back(std::move(labels));
  }
  const ClusteringSet missing = *ClusteringSet::Create(
      std::move(holey), {1.5, 0.5, 2.0, 1.0, 3.0, 0.25, 1.0});
  MissingValueOptions coin;
  coin.coin_together_probability = 0.3;
  const auto [missing_sum, missing_d] = SamplingFingerprint(missing, coin);
  EXPECT_EQ(missing_sum, 0xa41c5719a244c426ULL);
  EXPECT_EQ(missing_d, 0x1.6a850f199999ap+22);

  const ClusteringSet dense = NoisyCopies(Planted(3000, 5), 5, 0.15, 303);
  std::vector<Clustering> huge;
  for (const Clustering& c : dense.clusterings()) {
    std::vector<Clustering::Label> labels(c.labels());
    for (auto& l : labels) l = 2000000000 - 123456789 * l;
    huge.emplace_back(std::move(labels));
  }
  const ClusteringSet sparse = *ClusteringSet::Create(std::move(huge));
  const auto [sparse_sum, sparse_d] = SamplingFingerprint(sparse, {});
  EXPECT_EQ(sparse_sum, 0xae74c220f8f9a0a1ULL);
  EXPECT_EQ(sparse_d, 0x1.ed994p+20);

  // A wide alphabet: many labels are carried by no sample member, so
  // the assignment reads the default row, through the flat label table
  // (labels below 300) and through the sorted one (the same labels
  // spread up to 2e9).
  Rng wide_rng(404);
  std::vector<Clustering> wide;
  std::vector<Clustering> wide_huge;
  for (int i = 0; i < 5; ++i) {
    std::vector<Clustering::Label> labels(3000);
    for (std::size_t v = 0; v < labels.size(); ++v) {
      labels[v] = wide_rng.NextBernoulli(0.3)
                      ? static_cast<Clustering::Label>(
                            5 + wide_rng.NextBounded(295))
                      : static_cast<Clustering::Label>(v % 5);
    }
    std::vector<Clustering::Label> spread(labels);
    for (auto& l : spread) l = 2000000000 - 6000011 * l;
    wide.emplace_back(std::move(labels));
    wide_huge.emplace_back(std::move(spread));
  }
  const auto [wide_sum, wide_d] =
      SamplingFingerprint(*ClusteringSet::Create(std::move(wide)), {});
  EXPECT_EQ(wide_sum, 0xa184b072a9b88a3aULL);
  EXPECT_EQ(wide_d, 0x1.7d62ep+20);
  const auto [spread_sum, spread_d] =
      SamplingFingerprint(*ClusteringSet::Create(std::move(wide_huge)), {});
  EXPECT_EQ(spread_sum, 0xa184b072a9b88a3aULL);
  EXPECT_EQ(spread_d, 0x1.7d62ep+20);
}

#if defined(CLUSTAGG_TELEMETRY_ENABLED)
TEST(SamplingTest, UnlimitedRunThreadsTelemetryIntoSubInstanceBuilds) {
  // The sample and the singleton pool each build one dense instance; an
  // unlimited run that carries a sink records both, as a budgeted one
  // does.
  const ClusteringSet input = NoisyCopies(Planted(100, 4), 5, 0.3, 17);
  SamplingOptions options;
  options.sample_size = 40;
  const AgglomerativeClusterer base;
  for (const RunContext& run :
       {RunContext(), RunContext::WithIterationBudget(1u << 30)}) {
    Telemetry telemetry;
    Result<ClustererRun> result = SamplingAggregateControlled(
        input, base, run.WithTelemetry(&telemetry), options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->outcome, RunOutcome::kConverged);
    EXPECT_EQ(telemetry.counter("build.dense_builds")->value(), 2u)
        << (run.unlimited() ? "unlimited" : "budgeted");
  }
}
#endif  // CLUSTAGG_TELEMETRY_ENABLED

/// A duplicate-heavy input: n objects drawn from a few hundred label
/// rows (4 unit-weight clusterings of 3 planted groups, 20% label noise
/// and 10% missing labels). Under the coin policy with p = 1/2 every
/// X_uv is a multiple of 1/8, so any summation order of M(v, C_j) gives
/// the same double and a per-object reference can be compared exactly.
ClusteringSet DuplicateHeavyInput(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = rng.NextBernoulli(0.1)   ? Clustering::kMissing
                  : rng.NextBernoulli(0.2) ? static_cast<Clustering::Label>(
                                                 rng.NextBounded(3))
                                           : static_cast<Clustering::Label>(
                                                 v % 3);
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

/// What a per-object assignment loop produces.
struct ReferenceAssignment {
  Clustering clustering;
  std::size_t singletons = 0;
  RunOutcome outcome = RunOutcome::kConverged;
};

/// The per-object reference of SAMPLING's assignment phase with
/// reclustering off. The sample is redrawn from the seed, and its
/// clusters are read off `result` in order of their smallest member,
/// the order SAMPLING numbers them in. Every other object before `cut`
/// takes the cluster minimizing T + 2 M(v, C_j) - |C_j| against the
/// singleton cost T, with M(v, C_j) summed pair by pair; ties keep the
/// lowest j and the singleton. Objects from `cut` on (an interrupt) and
/// singleton choices get a fresh label each.
class AssignmentReference {
 public:
  AssignmentReference(const ClusteringSet& input,
                      const SamplingOptions& options,
                      const Clustering& result)
      : n_(input.num_objects()), in_sample_(n_, false),
        label_(n_, Clustering::kMissing) {
    Rng rng(options.seed);
    std::vector<std::size_t> sample =
        rng.SampleWithoutReplacement(n_, options.sample_size);
    std::sort(sample.begin(), sample.end());
    std::vector<std::vector<std::size_t>> clusters;
    std::vector<std::size_t> cluster_of_label(n_, n_);
    for (std::size_t v : sample) {
      in_sample_[v] = true;
      std::size_t& j =
          cluster_of_label[static_cast<std::size_t>(result.label(v))];
      if (j == n_) {
        j = clusters.size();
        clusters.emplace_back();
      }
      clusters[j].push_back(v);
      label_[v] = static_cast<Clustering::Label>(j);
    }
    k_ = clusters.size();
    choice_.assign(n_, k_);
    for (std::size_t v = 0; v < n_; ++v) {
      if (in_sample_[v]) continue;
      std::vector<double> m_row(k_, 0.0);
      double t = 0.0;
      for (std::size_t j = 0; j < k_; ++j) {
        for (std::size_t u : clusters[j]) {
          m_row[j] += input.PairwiseDistance(v, u, options.missing);
        }
        t += static_cast<double>(clusters[j].size()) - m_row[j];
      }
      double best_cost = t;
      for (std::size_t j = 0; j < k_; ++j) {
        const double cost =
            t + 2.0 * m_row[j] - static_cast<double>(clusters[j].size());
        if (cost < best_cost) {
          best_cost = cost;
          choice_[v] = j;
        }
      }
    }
  }

  ReferenceAssignment Cut(std::size_t cut) const {
    ReferenceAssignment out;
    std::vector<Clustering::Label> labels = label_;
    auto next = static_cast<Clustering::Label>(k_);
    for (std::size_t v = 0; v < n_; ++v) {
      if (in_sample_[v]) continue;
      if (v < cut && choice_[v] < k_) {
        labels[v] = static_cast<Clustering::Label>(choice_[v]);
      } else {
        labels[v] = next++;
        ++out.singletons;
      }
    }
    out.clustering = Clustering(std::move(labels)).Normalized();
    out.outcome =
        cut < n_ ? RunOutcome::kDeadlineExceeded : RunOutcome::kConverged;
    return out;
  }

  /// Objects from `cut` on that the uninterrupted loop would assign to a
  /// sample cluster.
  std::size_t AssignedFrom(std::size_t cut) const {
    std::size_t count = 0;
    for (std::size_t v = cut; v < n_; ++v) {
      count += !in_sample_[v] && choice_[v] < k_;
    }
    return count;
  }

 private:
  std::size_t n_;
  std::size_t k_ = 0;
  std::vector<bool> in_sample_;
  std::vector<Clustering::Label> label_;
  std::vector<std::size_t> choice_;
};

/// An iteration budget under which the sample phase of the test below
/// finishes (it charges about 2000) and the assignment loop (16 per 16
/// objects, 6000 objects) runs out of budget part-way.
constexpr std::uint64_t kMidAssignmentBudget = 4000;

// SAMPLING decides each signature once and reuses the decision for its
// later objects. That must equal deciding every object on its own, with
// and without an interrupt part-way through the assignment loop (which
// polls every 16 objects).
TEST(SamplingTest, PerSignatureAssignmentMatchesPerObjectLoop) {
  const ClusteringSet input = DuplicateHeavyInput(6000, 77);
  const AgglomerativeClusterer base;
  MissingValueOptions ignore;
  ignore.policy = MissingValuePolicy::kIgnore;
  for (const MissingValueOptions& missing : {MissingValueOptions{}, ignore}) {
    SCOPED_TRACE(missing.policy == MissingValuePolicy::kIgnore ? "ignore"
                                                               : "coin");
    SamplingOptions options;
    options.sample_size = 1000;
    options.seed = 3;
    options.recluster_singletons = false;
    options.missing = missing;

    SamplingStats stats;
    Result<ClustererRun> full = SamplingAggregateControlled(
        input, base, RunContext(), options, &stats);
    ASSERT_TRUE(full.ok()) << full.status();
    const AssignmentReference reference(input, options, full->clustering);
    const ReferenceAssignment expected = reference.Cut(input.num_objects());
    EXPECT_EQ(full->clustering, expected.clustering);
    EXPECT_EQ(stats.singletons_after_assignment, expected.singletons);
    EXPECT_EQ(full->outcome, expected.outcome);

    // A budget that the sample phase leaves room under, and that runs out
    // part-way through the assignment.
    Result<ClustererRun> cut_short = SamplingAggregateControlled(
        input, base, RunContext::WithIterationBudget(kMidAssignmentBudget),
        options, &stats);
    ASSERT_TRUE(cut_short.ok()) << cut_short.status();
    const AssignmentReference cut_reference(input, options,
                                            cut_short->clustering);
    std::size_t cut = 0;
    while (cut < input.num_objects() &&
           cut_reference.Cut(cut).clustering != cut_short->clustering) {
      cut += 16;
    }
    ASSERT_LT(cut, input.num_objects()) << "no interrupt point matches";
    // The poll cadence is the per-object loop's: its interrupt landed at
    // object 2576 too (recorded from it, for both policies).
    EXPECT_EQ(cut, 2576u);
    EXPECT_GT(cut_reference.AssignedFrom(cut), 0u);
    const ReferenceAssignment cut_expected = cut_reference.Cut(cut);
    EXPECT_EQ(stats.singletons_after_assignment, cut_expected.singletons);
    EXPECT_EQ(cut_short->outcome, cut_expected.outcome);
  }
}

// On an input whose sample repeats no label row, SAMPLING skips the
// grouping and decides every object on its own; the result must be the
// per-object loop's all the same.
TEST(SamplingTest, DistinctRowsAssignmentMatchesPerObjectLoop) {
  // Three noise clusterings over 1000 labels keep rows distinct; six
  // copies of 3 planted groups with 10% noise keep clusters to join.
  const std::size_t n = 3000;
  Rng rng(91);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < 9; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<Clustering::Label>(
          i < 3 ? rng.NextBounded(1000)
                : rng.NextBernoulli(0.1) ? rng.NextBounded(3) : v % 3);
    }
    clusterings.emplace_back(std::move(labels));
  }
  const ClusteringSet input = *ClusteringSet::Create(std::move(clusterings));
  const AgglomerativeClusterer base;
  MissingValueOptions ignore;
  ignore.policy = MissingValuePolicy::kIgnore;
  for (const MissingValueOptions& missing : {MissingValueOptions{}, ignore}) {
    SCOPED_TRACE(missing.policy == MissingValuePolicy::kIgnore ? "ignore"
                                                               : "coin");
    SamplingOptions options;
    options.sample_size = 1000;
    options.seed = 5;
    options.recluster_singletons = false;
    options.missing = missing;
    Rng sample_rng(options.seed);
    std::vector<std::size_t> sample =
        sample_rng.SampleWithoutReplacement(n, options.sample_size);
    std::sort(sample.begin(), sample.end());
    ASSERT_EQ(SignatureIndex::BuildSubset(input, sample).num_signatures(),
              sample.size());

    SamplingStats stats;
    Result<ClustererRun> full = SamplingAggregateControlled(
        input, base, RunContext(), options, &stats);
    ASSERT_TRUE(full.ok()) << full.status();
    const AssignmentReference reference(input, options, full->clustering);
    const ReferenceAssignment expected = reference.Cut(n);
    EXPECT_GT(reference.AssignedFrom(0), 0u);
    EXPECT_EQ(full->clustering, expected.clustering);
    EXPECT_EQ(stats.singletons_after_assignment, expected.singletons);
    EXPECT_EQ(full->outcome, expected.outcome);
  }
}

}  // namespace
}  // namespace clustagg
