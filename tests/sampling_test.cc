// Tests for the SAMPLING meta-algorithm: planted-cluster recovery,
// singleton reclustering, stats reporting, and degenerate sizes.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/agglomerative.h"
#include "core/clustering_set.h"
#include "core/local_search.h"
#include "core/sampling.h"
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

}  // namespace
}  // namespace clustagg
