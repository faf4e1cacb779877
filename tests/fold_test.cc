// Duplicate-signature folding suite: SignatureIndex semantics, the
// weighted-objective identity that makes folding exact (the folded
// multiplicity-weighted cost of a partition equals the unfolded cost of
// its expansion), and the end-to-end property that every aggregation
// algorithm returns the same clustering and the same E_D with folding on
// and off — on duplicate-heavy fixtures with and without missing labels
// and non-uniform clustering weights.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "core/aggregator.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/signature_index.h"

namespace clustagg {
namespace {

// ------------------------------------------------------------ fixtures

/// m clusterings that all equal the planted partition given by
/// `group_of`, so every within-group distance is 0 and every cross-group
/// distance is 1: the one fixture every algorithm — greedy, hierarchical,
/// randomized, annealed, exact — provably recovers, folded or not.
/// Objects of a group share their full label tuple, so the signature
/// groups are exactly the planted clusters.
ClusteringSet PlantedInput(const std::vector<std::size_t>& group_of,
                           std::size_t m,
                           const std::vector<double>& weights = {},
                           bool missing_group0_in_first = false) {
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(group_of.size());
    for (std::size_t v = 0; v < group_of.size(); ++v) {
      // Optionally blank out group 0 in the first clustering (the whole
      // group, so tuples stay identical within it): exercises signatures
      // that contain the missing sentinel.
      if (missing_group0_in_first && i == 0 && group_of[v] == 0) {
        labels[v] = Clustering::kMissing;
      } else {
        labels[v] = static_cast<Clustering::Label>(group_of[v]);
      }
    }
    clusterings.emplace_back(std::move(labels));
  }
  std::vector<double> w = weights;
  return *ClusteringSet::Create(std::move(clusterings), std::move(w));
}

/// Planted group assignment with distinct group sizes (ties between
/// clusters would make move-based sweeps order-dependent), interleaved so
/// duplicate groups are not contiguous in object id.
std::vector<std::size_t> PlantedGroups(std::size_t n, std::size_t g) {
  std::vector<std::size_t> group_of(n);
  // Distinct sizes 1c, 2c, 3c, ... scaled to sum to ~n; remainder goes to
  // the last (largest) group.
  const std::size_t unit = n / (g * (g + 1) / 2);
  std::vector<std::size_t> sizes(g);
  std::size_t used = 0;
  for (std::size_t c = 0; c + 1 < g; ++c) {
    sizes[c] = unit * (c + 1);
    used += sizes[c];
  }
  sizes[g - 1] = n - used;
  std::size_t v = 0;
  for (std::size_t c = 0; c < g; ++c) {
    for (std::size_t i = 0; i < sizes[c]; ++i) group_of[v++] = c;
  }
  // Interleave deterministically.
  Rng rng(99);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(group_of[i - 1], group_of[rng.NextBounded(i)]);
  }
  return group_of;
}

/// Noisy duplicated input: `base_n` random distinct signatures, each
/// repeated `copies` times (interleaved), with optional missing labels
/// and non-uniform clustering weights. Distances are generic (not 0/1),
/// so this is the fixture for arithmetic identities, not for expecting a
/// particular clustering.
ClusteringSet NoisyDuplicatedInput(std::size_t base_n, std::size_t copies,
                                   std::size_t m, std::size_t k,
                                   std::uint64_t seed,
                                   double missing_rate = 0.0,
                                   bool weighted = false) {
  Rng rng(seed);
  const std::size_t n = base_n * copies;
  std::vector<Clustering> clusterings;
  std::vector<double> weights;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> base(base_n);
    for (std::size_t b = 0; b < base_n; ++b) {
      base[b] = rng.NextBernoulli(missing_rate)
                    ? Clustering::kMissing
                    : static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) labels[v] = base[v % base_n];
    clusterings.emplace_back(std::move(labels));
    if (weighted) weights.push_back(0.5 + rng.NextDouble());
  }
  return *ClusteringSet::Create(std::move(clusterings), std::move(weights));
}

// ------------------------------------------------- SignatureIndex unit

TEST(SignatureIndexTest, GroupsIdenticalTuplesAndCountsMultiplicities) {
  // Objects 0/2/4 share one signature, 1/3 another, 5 its own.
  Clustering a({0, 1, 0, 1, 0, 1});
  Clustering b({2, 3, 2, 3, 2, 2});
  const ClusteringSet input = *ClusteringSet::Create({a, b});
  const SignatureIndex index = SignatureIndex::Build(input);
  EXPECT_EQ(index.num_objects(), 6u);
  EXPECT_EQ(index.num_signatures(), 3u);
  EXPECT_FALSE(index.trivial());
  EXPECT_DOUBLE_EQ(index.fold_ratio(), 0.5);
  // Representatives are first occurrences, in ascending object order.
  EXPECT_EQ(index.representatives(), (std::vector<std::size_t>{0, 1, 5}));
  EXPECT_EQ(index.signature_of(0), 0u);
  EXPECT_EQ(index.signature_of(2), 0u);
  EXPECT_EQ(index.signature_of(4), 0u);
  EXPECT_EQ(index.signature_of(1), 1u);
  EXPECT_EQ(index.signature_of(3), 1u);
  EXPECT_EQ(index.signature_of(5), 2u);
  EXPECT_EQ(index.multiplicities(), (std::vector<double>{3.0, 2.0, 1.0}));
}

TEST(SignatureIndexTest, MissingLabelsArePartOfTheSignature) {
  // Objects 0 and 1 agree wherever both are labeled, but 1 is missing in
  // the second clustering: different signatures, no fold.
  Clustering a({0, 0});
  Clustering b({1, Clustering::kMissing});
  const ClusteringSet input = *ClusteringSet::Create({a, b});
  const SignatureIndex index = SignatureIndex::Build(input);
  EXPECT_EQ(index.num_signatures(), 2u);
  EXPECT_TRUE(index.trivial());
  // Two objects both missing in the same place do share a signature.
  Clustering c({0, 0});
  Clustering d({Clustering::kMissing, Clustering::kMissing});
  const ClusteringSet pair = *ClusteringSet::Create({c, d});
  EXPECT_EQ(SignatureIndex::Build(pair).num_signatures(), 1u);
}

TEST(SignatureIndexTest, TrivialWhenAllObjectsAreUnique) {
  Clustering a({0, 1, 2, 3});
  const ClusteringSet input = *ClusteringSet::Create({a});
  const SignatureIndex index = SignatureIndex::Build(input);
  EXPECT_TRUE(index.trivial());
  EXPECT_EQ(index.num_signatures(), 4u);
  EXPECT_DOUBLE_EQ(index.fold_ratio(), 1.0);
  EXPECT_EQ(index.multiplicities(),
            (std::vector<double>{1.0, 1.0, 1.0, 1.0}));
}

TEST(SignatureIndexTest, BuildSubsetIndexesInSubsetSpace) {
  // Global signature structure: 0/2/4 identical, 1/3 identical.
  Clustering a({0, 1, 0, 1, 0, 2});
  const ClusteringSet input = *ClusteringSet::Create({a});
  const std::vector<std::size_t> subset = {1, 2, 4};
  const SignatureIndex index = SignatureIndex::BuildSubset(input, subset);
  EXPECT_EQ(index.num_objects(), 3u);
  EXPECT_EQ(index.num_signatures(), 2u);
  // Representatives are global ids; signature_of is subset-indexed.
  EXPECT_EQ(index.representatives(), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(index.signature_of(0), 0u);  // subset[0] = object 1
  EXPECT_EQ(index.signature_of(1), 1u);  // subset[1] = object 2
  EXPECT_EQ(index.signature_of(2), 1u);  // subset[2] = object 4
  EXPECT_EQ(index.multiplicities(), (std::vector<double>{1.0, 2.0}));
}

TEST(SignatureIndexTest, ExpandMapsSignatureLabelsBackToObjects) {
  Clustering a({0, 1, 0, 1, 0, 2});
  const ClusteringSet input = *ClusteringSet::Create({a});
  const SignatureIndex index = SignatureIndex::Build(input);
  ASSERT_EQ(index.num_signatures(), 3u);
  // Fold signatures {0,2} together, 1 alone; expansion follows
  // signature_of and comes back normalized.
  const Clustering folded({0, 1, 0});
  const Clustering expanded = index.Expand(folded);
  EXPECT_EQ(expanded, Clustering({0, 1, 0, 1, 0, 0}));
}

// --------------------------------------------- weighted-cost identity

TEST(FoldExactnessTest, FoldedCostEqualsUnfoldedCostOfExpansion) {
  // For any partition P of the signatures, the multiplicity-weighted
  // folded cost must equal the plain cost of Expand(P) on the full
  // instance (no missing labels, so within-group distances are exactly
  // 0). Same for the lower bound. Summation order differs, so this is a
  // near-equality of doubles, not bit-identity.
  for (bool weighted : {false, true}) {
    const ClusteringSet input =
        NoisyDuplicatedInput(12, 4, 5, 3, 101, 0.0, weighted);
    const SignatureIndex index = SignatureIndex::Build(input);
    ASSERT_FALSE(index.trivial());
    Result<CorrelationInstance> full =
        CorrelationInstance::Build(input, {}, {DistanceBackend::kDense, 0,
                                               {}});
    ASSERT_TRUE(full.ok());
    Result<CorrelationInstance> folded_plain =
        CorrelationInstance::BuildSubset(input, index.representatives(), {},
                                         {DistanceBackend::kDense, 0, {}});
    ASSERT_TRUE(folded_plain.ok());
    Result<CorrelationInstance> folded = CorrelationInstance::FromSource(
        folded_plain->shared_source(), 0, index.multiplicities());
    ASSERT_TRUE(folded.ok());
    EXPECT_TRUE(folded->folded());
    Rng rng(7);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<Clustering::Label> labels(index.num_signatures());
      for (auto& l : labels) {
        l = static_cast<Clustering::Label>(rng.NextBounded(3));
      }
      const Clustering partition(std::move(labels));
      const double folded_cost = *folded->Cost(partition);
      const double full_cost = *full->Cost(index.Expand(partition));
      EXPECT_NEAR(folded_cost, full_cost,
                  1e-9 * (1.0 + std::abs(full_cost)));
    }
    EXPECT_NEAR(folded->LowerBound(), full->LowerBound(),
                1e-9 * (1.0 + full->LowerBound()));
  }
}

// ------------------------------------------------ end-to-end property

struct FoldCase {
  const char* name;
  ClusteringSet input;
  std::size_t expected_signatures;
};

std::vector<FoldCase> FoldCases() {
  const std::vector<std::size_t> groups = PlantedGroups(90, 4);
  std::vector<FoldCase> cases;
  cases.push_back({"planted", PlantedInput(groups, 4), 4});
  cases.push_back(
      {"planted_missing", PlantedInput(groups, 4, {}, true), 4});
  cases.push_back(
      {"planted_weighted",
       PlantedInput(groups, 4, {1.0, 2.0, 0.5, 1.5}), 4});
  return cases;
}

class FoldEquivalenceTest
    : public ::testing::TestWithParam<AggregationAlgorithm> {};

TEST_P(FoldEquivalenceTest, FoldOnAndOffAgreeOnPlantedFixtures) {
  // Every algorithm must produce the identical normalized clustering and
  // the identical E_D with folding on and off. The planted fixtures are
  // chosen so each algorithm deterministically recovers the planted
  // partition in both spaces (randomized algorithms traverse different
  // RNG sequences folded vs unfolded, so a generic noisy fixture could
  // not promise equality).
  const AggregationAlgorithm algorithm = GetParam();
  for (const FoldCase& c : FoldCases()) {
    for (DistanceBackend backend :
         {DistanceBackend::kDense, DistanceBackend::kLazy}) {
      AggregatorOptions options;
      options.algorithm = algorithm;
      options.backend = backend;
      if (algorithm == AggregationAlgorithm::kExact) {
        // n = 90 is far beyond the exact cap, but s = 4 is trivial:
        // folding is exactly what makes EXACT reach this input. Disable
        // the fallback so the unfolded run errors instead of silently
        // comparing BALLS to EXACT.
        options.exact.max_objects = 4;
        options.allow_fallbacks = false;
        options.fold = true;
        Result<AggregationResult> folded = Aggregate(c.input, options);
        ASSERT_TRUE(folded.ok()) << c.name << ": " << folded.status();
        EXPECT_TRUE(folded->folded) << c.name;
        EXPECT_EQ(folded->fold_signatures, c.expected_signatures) << c.name;
        // The planted partition is the optimum; EXACT must find it.
        EXPECT_EQ(folded->total_disagreements,
                  *c.input.TotalDisagreements(folded->clustering))
            << c.name;
        EXPECT_EQ(folded->clustering.NumClusters(), 4u) << c.name;
        continue;
      }
      options.fold = false;
      Result<AggregationResult> plain = Aggregate(c.input, options);
      options.fold = true;
      Result<AggregationResult> folded = Aggregate(c.input, options);
      ASSERT_TRUE(plain.ok()) << c.name << ": " << plain.status();
      ASSERT_TRUE(folded.ok()) << c.name << ": " << folded.status();
      EXPECT_FALSE(plain->folded) << c.name;
      EXPECT_TRUE(folded->folded) << c.name;
      EXPECT_EQ(folded->fold_signatures, c.expected_signatures) << c.name;
      // Aggregate normalizes, so identical partitions are identical
      // label vectors; E_D is computed by the same reduction on the same
      // clustering, hence bit-identical.
      EXPECT_EQ(plain->clustering, folded->clustering) << c.name;
      EXPECT_EQ(plain->total_disagreements, folded->total_disagreements)
          << c.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, FoldEquivalenceTest,
    ::testing::Values(AggregationAlgorithm::kBalls,
                      AggregationAlgorithm::kAgglomerative,
                      AggregationAlgorithm::kFurthest,
                      AggregationAlgorithm::kLocalSearch,
                      AggregationAlgorithm::kPivot,
                      AggregationAlgorithm::kAnnealing,
                      AggregationAlgorithm::kMajority,
                      AggregationAlgorithm::kExact),
    [](const ::testing::TestParamInfo<AggregationAlgorithm>& info) {
      const char* name = AggregationAlgorithmName(info.param);
      return info.param == AggregationAlgorithm::kPivot ? "CCPIVOT" : name;
    });

TEST(FoldAggregateTest, ExactFoldedMatchesExactUnfoldedOnNoisyInput) {
  // 3 distinct signatures x 4 copies = 12 objects: small enough for the
  // unfolded exact solver, generic distances, unique optimum. Folded
  // EXACT searches only duplicate-preserving partitions — which contain
  // the optimum, because duplicates are at distance 0.
  const ClusteringSet input = NoisyDuplicatedInput(3, 4, 5, 3, 211);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  options.fold = false;
  Result<AggregationResult> plain = Aggregate(input, options);
  options.fold = true;
  Result<AggregationResult> folded = Aggregate(input, options);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(folded.ok()) << folded.status();
  EXPECT_TRUE(folded->folded);
  EXPECT_EQ(folded->fold_signatures, 3u);
  EXPECT_EQ(plain->clustering, folded->clustering);
  EXPECT_EQ(plain->total_disagreements, folded->total_disagreements);
}

TEST(FoldAggregateTest, ExactSizeGateDecidesOnFoldedSignatures) {
  // n = 2000 objects under three random binary clusterings fold to at
  // most 2^3 = 8 signatures, well inside EXACT's reach. The tractability
  // check must look at those s signatures, not the n objects: deciding
  // on n fell back to BALLS + LOCALSEARCH and returned a worse D
  // (1998098 here) with outcome fell_back.
  Rng rng(2000);
  std::vector<Clustering> clusterings;
  for (int i = 0; i < 3; ++i) {
    std::vector<Clustering::Label> labels(2000);
    for (Clustering::Label& label : labels) {
      label = static_cast<Clustering::Label>(rng.NextBounded(2));
    }
    clusterings.emplace_back(std::move(labels));
  }
  const ClusteringSet input = *ClusteringSet::Create(std::move(clusterings));
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  options.fold = true;
  Result<AggregationResult> folded = Aggregate(input, options);
  ASSERT_TRUE(folded.ok()) << folded.status();
  EXPECT_TRUE(folded->folded);
  EXPECT_EQ(folded->fold_signatures, 8u);
  EXPECT_EQ(folded->outcome, RunOutcome::kConverged);
  EXPECT_TRUE(folded->fallbacks.empty());
  EXPECT_EQ(folded->total_disagreements, 1996804.0);
  // The same optimum the solver reaches with fallbacks disabled.
  options.allow_fallbacks = false;
  Result<AggregationResult> strict = Aggregate(input, options);
  ASSERT_TRUE(strict.ok()) << strict.status();
  EXPECT_EQ(strict->total_disagreements, folded->total_disagreements);
  EXPECT_EQ(strict->clustering, folded->clustering);
  // Unfolded, n = 2000 really is beyond EXACT: the fallback still fires.
  options.allow_fallbacks = true;
  options.fold = false;
  Result<AggregationResult> unfolded = Aggregate(input, options);
  ASSERT_TRUE(unfolded.ok()) << unfolded.status();
  EXPECT_EQ(unfolded->outcome, RunOutcome::kFellBack);
  EXPECT_EQ(unfolded->fallbacks.size(), 1u);
}

TEST(FoldAggregateTest, FoldIsANoOpWhenEveryObjectIsUnique) {
  // All-distinct signatures: the fold must report s == n, set
  // folded = false, and take exactly the unfolded build path, so the
  // result is bit-identical to fold = false.
  Rng rng(17);
  std::vector<Clustering::Label> a(30), b(30);
  for (std::size_t v = 0; v < 30; ++v) {
    a[v] = static_cast<Clustering::Label>(v);  // all distinct already
    b[v] = static_cast<Clustering::Label>(rng.NextBounded(4));
  }
  const ClusteringSet input =
      *ClusteringSet::Create({Clustering(std::move(a)),
                              Clustering(std::move(b))});
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  options.fold = true;
  Result<AggregationResult> folded = Aggregate(input, options);
  options.fold = false;
  Result<AggregationResult> plain = Aggregate(input, options);
  ASSERT_TRUE(folded.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(folded->folded);
  EXPECT_EQ(folded->fold_signatures, 30u);
  EXPECT_EQ(plain->fold_signatures, 0u);
  EXPECT_EQ(plain->clustering, folded->clustering);
  EXPECT_EQ(plain->total_disagreements, folded->total_disagreements);
}

TEST(FoldAggregateTest, SamplingFoldsItsSubInstances) {
  // Under sampling the fold applies to the sampled sub-instances; on a
  // planted duplicated fixture both runs recover the planted partition.
  const std::vector<std::size_t> groups = PlantedGroups(300, 4);
  const ClusteringSet input = PlantedInput(groups, 4);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kAgglomerative;
  options.sampling_size = 40;
  options.fold = false;
  Result<AggregationResult> plain = Aggregate(input, options);
  options.fold = true;
  Result<AggregationResult> folded = Aggregate(input, options);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(folded.ok()) << folded.status();
  // Sampling does not surface instance-level fold stats.
  EXPECT_FALSE(folded->folded);
  EXPECT_EQ(folded->fold_signatures, 0u);
  EXPECT_EQ(plain->clustering, folded->clustering);
  EXPECT_EQ(plain->total_disagreements, folded->total_disagreements);
}

TEST(FoldAggregateTest, FoldSurvivesTheDenseToLazyFallback) {
  // An injected dense-allocation fault must degrade the *folded* build
  // to the lazy backend and still return the planted partition.
  const std::vector<std::size_t> groups = PlantedGroups(90, 4);
  const ClusteringSet input = PlantedInput(groups, 4);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  options.fold = true;
  RunContext faulty = RunContext::Cancellable();
  FaultHooks hooks;
  hooks.fail_allocation = [](std::size_t) { return true; };
  faulty.set_fault_hooks(hooks);
  options.run = faulty;
  Result<AggregationResult> faulted = Aggregate(input, options);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_TRUE(faulted->folded);
  EXPECT_EQ(faulted->outcome, RunOutcome::kFellBack);
  options.run = RunContext();
  Result<AggregationResult> clean = Aggregate(input, options);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(faulted->clustering, clean->clustering);
  EXPECT_EQ(faulted->total_disagreements, clean->total_disagreements);
}

}  // namespace
}  // namespace clustagg
