// Composed-pipeline suite: pinned outputs of the fold -> (shard | sample
// | whole) -> solve -> refine -> expand -> score composition, and the
// telemetry shape of one Aggregate call (one fold, one score, however
// many shards).
//
// The pinned rows were recorded before the per-shard solves stopped
// re-entering Aggregate on a restricted input; each row pins the label
// checksum, E_D and every plan field of AggregationResult, so any drift
// in how shards, folds and sampled sub-instances are built, solved or
// stitched shows as a mismatch.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "core/aggregator.h"
#include "core/clustering_set.h"

namespace clustagg {
namespace {

// ------------------------------------------------------------ fixtures

/// n objects in g planted groups, m clusterings that each keep an
/// object's group with probability 0.8 and otherwise draw a label from
/// [0, g + 2); `missing` blanks that share of the labels. Few distinct
/// label tuples, so folding shrinks the instance, and the noise leaves
/// the agreement graph with more than one component but not one per
/// group.
ClusteringSet NoisyPlanted(std::size_t n, std::size_t g, std::size_t m,
                           double missing, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> group_of(n);
  for (std::size_t v = 0; v < n; ++v) group_of[v] = rng.NextBounded(g);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.NextBernoulli(missing)) {
        labels[v] = Clustering::kMissing;
      } else if (rng.NextBernoulli(0.8)) {
        labels[v] = static_cast<Clustering::Label>(group_of[v]);
      } else {
        labels[v] = static_cast<Clustering::Label>(rng.NextBounded(g + 2));
      }
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

std::uint64_t LabelChecksum(const Clustering& c) {
  std::uint64_t h = 1469598103934665603ull;
  for (Clustering::Label label : c.labels()) {
    h = (h ^ static_cast<std::uint32_t>(label)) * 1099511628211ull;
  }
  return h;
}

std::string Join(const std::vector<std::string>& notes) {
  std::string out;
  for (const std::string& note : notes) {
    if (!out.empty()) out += " | ";
    out += note;
  }
  return out;
}

/// Everything a pinned run must reproduce.
struct Pin {
  std::uint64_t checksum;
  double disagreements;
  std::string fallbacks;
  RunOutcome outcome;
  bool folded;
  std::size_t fold_signatures;
  bool sharded;
  std::size_t shard_count;
  std::size_t shard_components;
  double stitch_error_bound;
};

const char* OutcomeEnumerator(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kConverged:
      return "Converged";
    case RunOutcome::kDeadlineExceeded:
      return "DeadlineExceeded";
    case RunOutcome::kCancelled:
      return "Cancelled";
    case RunOutcome::kFellBack:
      return "FellBack";
  }
  return "?";
}

std::string Describe(const Pin& p) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{0x%016llxull, %a, \"%s\", RunOutcome::k%s, %s, %zu, %s, "
                "%zu, %zu, %a}",
                static_cast<unsigned long long>(p.checksum), p.disagreements,
                p.fallbacks.c_str(), OutcomeEnumerator(p.outcome),
                p.folded ? "true" : "false",
                p.fold_signatures, p.sharded ? "true" : "false",
                p.shard_count, p.shard_components, p.stitch_error_bound);
  return buffer;
}

/// One pinned row, run once per listed backend: both backends answer
/// bit-identically, so they share the row.
struct PinCase {
  std::string name;
  int input;  // index into PinInput
  std::vector<DistanceBackend> backends;
  std::function<AggregatorOptions(DistanceBackend)> options;
};

/// 0: 300 objects, 6 groups, 5 clusterings, no missing labels.
/// 1: 240 objects, 5 groups, 6 clusterings, 5% missing labels.
/// 2: 40 objects, 4 groups, 4 clusterings (sized for EXACT's gate).
const ClusteringSet& PinInput(int which) {
  static const ClusteringSet inputs[] = {
      NoisyPlanted(300, 6, 5, 0.0, 11),
      NoisyPlanted(240, 5, 6, 0.05, 12),
      NoisyPlanted(40, 4, 4, 0.0, 13),
  };
  return inputs[which];
}

AggregatorOptions Base(AggregationAlgorithm algorithm, bool fold,
                       DistanceBackend backend) {
  AggregatorOptions options;
  options.algorithm = algorithm;
  options.fold = fold;
  options.backend = backend;
  options.num_threads = 1;
  if (algorithm == AggregationAlgorithm::kBalls) {
    options.balls.alpha = 0.4;
    options.refine_with_local_search = true;
  }
  return options;
}

/// "whole", "fixedN", "auto" (fires on every input here) or "autohigh"
/// (fires on 300 objects but not on their 178 signatures) applied to
/// `options`.
AggregatorOptions Shape(AggregatorOptions options, const std::string& shape) {
  if (shape == "auto") {
    options.shard.mode = ShardingMode::kAuto;
    options.shard.min_objects = 16;
    options.shard.max_shard_size = 24;
  } else if (shape == "autohigh") {
    options.shard.mode = ShardingMode::kAuto;
    options.shard.min_objects = 200;
    options.shard.max_shard_size = 100;
  } else if (shape.rfind("fixed", 0) == 0) {
    options.shard.mode = ShardingMode::kFixed;
    options.shard.num_shards = std::stoul(shape.substr(5));
  }
  return options;
}

/// The pinned runs, in the order of kPins below.
std::vector<PinCase> PinCases() {
  const std::vector<DistanceBackend> both = {DistanceBackend::kDense,
                                             DistanceBackend::kLazy};
  const std::vector<DistanceBackend> dense = {DistanceBackend::kDense};
  std::vector<PinCase> cases;
  for (int input : {0, 1}) {
    for (bool fold : {false, true}) {
      for (AggregationAlgorithm algorithm :
           {AggregationAlgorithm::kBalls, AggregationAlgorithm::kAgglomerative,
            AggregationAlgorithm::kLocalSearch}) {
        for (const char* shape :
             {"whole", "fixed1", "fixed3", "fixed4", "auto", "autohigh"}) {
          cases.push_back({std::to_string(input) + "/" +
                               AggregationAlgorithmName(algorithm) + "/" +
                               shape + (fold ? "/fold" : ""),
                           input, both, [=](DistanceBackend backend) {
                             return Shape(Base(algorithm, fold, backend),
                                          shape);
                           }});
        }
      }
    }
  }
  // EXACT under the size gate: 40 objects fall back to BALLS + refine
  // whole, while shards of at most 12 nodes run EXACT proper.
  for (bool fold : {false, true}) {
    for (const char* shape : {"whole", "fixed1", "fixed3", "fixed4"}) {
      cases.push_back(
          {std::string("2/EXACT/") + shape + (fold ? "/fold" : ""), 2, dense,
           [=](DistanceBackend backend) {
             return Shape(Base(AggregationAlgorithm::kExact, fold, backend),
                          shape);
           }});
    }
  }
  // Folded SAMPLING (refine requested but not applied), with and without
  // a shard request (sampling takes precedence), and EXACT, which ignores
  // the sampling size yet still leaves the shard request unrouted.
  for (int input : {0, 1}) {
    for (AggregationAlgorithm algorithm :
         {AggregationAlgorithm::kBalls, AggregationAlgorithm::kAgglomerative}) {
      for (const char* shape : {"whole", "fixed3"}) {
        cases.push_back({std::to_string(input) + "/SAMPLING/" +
                             AggregationAlgorithmName(algorithm) + "/" + shape,
                         input, dense, [=](DistanceBackend backend) {
                           AggregatorOptions options =
                               Shape(Base(algorithm, true, backend), shape);
                           options.sampling_size = 60;
                           return options;
                         }});
      }
    }
  }
  cases.push_back({"2/SAMPLING/EXACT/fixed3/fold", 2, dense,
                   [](DistanceBackend backend) {
                     AggregatorOptions options = Shape(
                         Base(AggregationAlgorithm::kExact, true, backend),
                         "fixed3");
                     options.sampling_size = 20;
                     return options;
                   }});
  // Iteration budgets from starvation up: the agreement scan, the shard
  // loop, the per-shard builds and the per-shard solves each get cut
  // somewhere in this sweep. The backends charge the budget differently,
  // so each gets its own row.
  for (std::uint64_t budget : {1u, 300u, 600u, 1200u, 2000u, 20000u}) {
    for (bool fold : {false, true}) {
      for (DistanceBackend backend : both) {
        cases.push_back(
            {"0/BALLS/fixed3/budget" + std::to_string(budget) +
                 (fold ? "/fold" : ""),
             0, {backend}, [=](DistanceBackend b) {
               AggregatorOptions options =
                   Shape(Base(AggregationAlgorithm::kBalls, fold, b),
                         "fixed3");
               options.run = RunContext::WithIterationBudget(budget);
               return options;
             }});
      }
    }
  }
  return cases;
}

const Pin kPins[] = {
    // 0/BALLS/whole
    {0x05c8be826df2262cull, 0x1.3fdcp+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 0/BALLS/fixed1
    {0x05c8be826df2262cull, 0x1.3fdcp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 1, 1, 0x0p+0},
    // 0/BALLS/fixed3
    {0x4262715ada82afe2ull, 0x1.7d1cp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/fixed4
    {0xc38b19bf51a11b6dull, 0x1.7674p+14,
     "",
     RunOutcome::kConverged, false, 0, true, 4, 1, 0x1.f8bfff474p+11},
    // 0/BALLS/auto
    {0xe79f93dbe6c071b4ull, 0x1.c3ccp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 13, 1, 0x1.2287ffa9c4p+13},
    // 0/BALLS/autohigh
    {0x4262715ada82afe2ull, 0x1.7d1cp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/AGGLOMERATIVE/whole
    {0x099d078b24f8bf35ull, 0x1.40e4p+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 0/AGGLOMERATIVE/fixed1
    {0x099d078b24f8bf35ull, 0x1.40e4p+14,
     "",
     RunOutcome::kConverged, false, 0, true, 1, 1, 0x0p+0},
    // 0/AGGLOMERATIVE/fixed3
    {0x6c30e09885218b8bull, 0x1.7eap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/AGGLOMERATIVE/fixed4
    {0x9452bad3b29de7c1ull, 0x1.770cp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 4, 1, 0x1.f8bfff474p+11},
    // 0/AGGLOMERATIVE/auto
    {0xbacacde5e02ba1d9ull, 0x1.c3f4p+14,
     "",
     RunOutcome::kConverged, false, 0, true, 13, 1, 0x1.2287ffa9c4p+13},
    // 0/AGGLOMERATIVE/autohigh
    {0x6c30e09885218b8bull, 0x1.7eap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/LOCALSEARCH/whole
    {0xcfd5d09e0a6363fdull, 0x1.3fe4p+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 0/LOCALSEARCH/fixed1
    {0xcfd5d09e0a6363fdull, 0x1.3fe4p+14,
     "",
     RunOutcome::kConverged, false, 0, true, 1, 1, 0x0p+0},
    // 0/LOCALSEARCH/fixed3
    {0x677322e035acc012ull, 0x1.7dap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/LOCALSEARCH/fixed4
    {0x18264cf4e086bbd2ull, 0x1.76b8p+14,
     "",
     RunOutcome::kConverged, false, 0, true, 4, 1, 0x1.f8bfff474p+11},
    // 0/LOCALSEARCH/auto
    {0x2e7d563d6eb0582bull, 0x1.c46cp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 13, 1, 0x1.2287ffa9c4p+13},
    // 0/LOCALSEARCH/autohigh
    {0x677322e035acc012ull, 0x1.7dap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/whole/fold
    {0x987234a423924922ull, 0x1.3fe4p+14,
     "",
     RunOutcome::kConverged, true, 178, false, 0, 0, 0x0p+0},
    // 0/BALLS/fixed1/fold
    {0x987234a423924922ull, 0x1.3fe4p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 1, 1, 0x0p+0},
    // 0/BALLS/fixed3/fold
    {0xeff0387c48e3734cull, 0x1.7088p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed4/fold
    {0x0b66c3e4dd866a37ull, 0x1.8294p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 4, 1, 0x1.2dbfff918p+12},
    // 0/BALLS/auto/fold
    {0x8039d83c762bf014ull, 0x1.8968p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 8, 1, 0x1.50dfff81cp+12},
    // 0/BALLS/autohigh/fold
    {0x987234a423924922ull, 0x1.3fe4p+14,
     "",
     RunOutcome::kConverged, true, 178, false, 0, 0, 0x0p+0},
    // 0/AGGLOMERATIVE/whole/fold
    {0x099d078b24f8bf35ull, 0x1.40e4p+14,
     "",
     RunOutcome::kConverged, true, 178, false, 0, 0, 0x0p+0},
    // 0/AGGLOMERATIVE/fixed1/fold
    {0x099d078b24f8bf35ull, 0x1.40e4p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 1, 1, 0x0p+0},
    // 0/AGGLOMERATIVE/fixed3/fold
    {0xdc38f3fac39acb96ull, 0x1.7218p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/AGGLOMERATIVE/fixed4/fold
    {0x8d0e1816c4a48028ull, 0x1.84bcp+14,
     "",
     RunOutcome::kConverged, true, 178, true, 4, 1, 0x1.2dbfff918p+12},
    // 0/AGGLOMERATIVE/auto/fold
    {0x8298125cc65703a9ull, 0x1.8afp+14,
     "",
     RunOutcome::kConverged, true, 178, true, 8, 1, 0x1.50dfff81cp+12},
    // 0/AGGLOMERATIVE/autohigh/fold
    {0x099d078b24f8bf35ull, 0x1.40e4p+14,
     "",
     RunOutcome::kConverged, true, 178, false, 0, 0, 0x0p+0},
    // 0/LOCALSEARCH/whole/fold
    {0x987234a423924922ull, 0x1.3fe4p+14,
     "",
     RunOutcome::kConverged, true, 178, false, 0, 0, 0x0p+0},
    // 0/LOCALSEARCH/fixed1/fold
    {0x987234a423924922ull, 0x1.3fe4p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 1, 1, 0x0p+0},
    // 0/LOCALSEARCH/fixed3/fold
    {0xf5285aee16e7fabbull, 0x1.7144p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/LOCALSEARCH/fixed4/fold
    {0x3e0f69bf0d41df10ull, 0x1.84b8p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 4, 1, 0x1.2dbfff918p+12},
    // 0/LOCALSEARCH/auto/fold
    {0xf53f8c6061df5a88ull, 0x1.8b9p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 8, 1, 0x1.50dfff81cp+12},
    // 0/LOCALSEARCH/autohigh/fold
    {0x987234a423924922ull, 0x1.3fe4p+14,
     "",
     RunOutcome::kConverged, true, 178, false, 0, 0, 0x0p+0},
    // 1/BALLS/whole
    {0xe9ef8155967b38bdull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 1/BALLS/fixed1
    {0xe9ef8155967b38bdull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 1, 3, 0x0p+0},
    // 1/BALLS/fixed3
    {0xeeaeeb8d6fd54398ull, 0x1.7b6ep+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 3, 0x1.f27fffc08p+10},
    // 1/BALLS/fixed4
    {0xb150d0fa3b332da3ull, 0x1.9682p+14,
     "",
     RunOutcome::kConverged, false, 0, true, 4, 3, 0x1.dabfffab1p+11},
    // 1/BALLS/auto
    {0x5d3f52aa32cde5fdull, 0x1.e2d6p+14,
     "",
     RunOutcome::kConverged, false, 0, true, 10, 3, 0x1.1257ffd1p+13},
    // 1/BALLS/autohigh
    {0xeeaeeb8d6fd54398ull, 0x1.7b6ep+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 3, 0x1.f27fffc08p+10},
    // 1/AGGLOMERATIVE/whole
    {0x742d03187e218233ull, 0x1.5ffap+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 1/AGGLOMERATIVE/fixed1
    {0x742d03187e218233ull, 0x1.5ffap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 1, 3, 0x0p+0},
    // 1/AGGLOMERATIVE/fixed3
    {0x02029f1519679352ull, 0x1.7d6ap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 3, 0x1.f27fffc08p+10},
    // 1/AGGLOMERATIVE/fixed4
    {0xdbec235953767760ull, 0x1.9812p+14,
     "",
     RunOutcome::kConverged, false, 0, true, 4, 3, 0x1.dabfffab1p+11},
    // 1/AGGLOMERATIVE/auto
    {0x8e24278bc9aeb4a9ull, 0x1.e30ep+14,
     "",
     RunOutcome::kConverged, false, 0, true, 10, 3, 0x1.1257ffd1p+13},
    // 1/AGGLOMERATIVE/autohigh
    {0x02029f1519679352ull, 0x1.7d6ap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 3, 0x1.f27fffc08p+10},
    // 1/LOCALSEARCH/whole
    {0x794e49ddd90c56caull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 1/LOCALSEARCH/fixed1
    {0x794e49ddd90c56caull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 1, 3, 0x0p+0},
    // 1/LOCALSEARCH/fixed3
    {0xc5f791a5bc25ad16ull, 0x1.7b6ep+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 3, 0x1.f27fffc08p+10},
    // 1/LOCALSEARCH/fixed4
    {0xe879cca42140a4cdull, 0x1.968ap+14,
     "",
     RunOutcome::kConverged, false, 0, true, 4, 3, 0x1.dabfffab1p+11},
    // 1/LOCALSEARCH/auto
    {0xd14ae4fa676df89dull, 0x1.e2d2p+14,
     "",
     RunOutcome::kConverged, false, 0, true, 10, 3, 0x1.1257ffd1p+13},
    // 1/LOCALSEARCH/autohigh
    {0xc5f791a5bc25ad16ull, 0x1.7b6ep+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 3, 0x1.f27fffc08p+10},
    // 1/BALLS/whole/fold
    {0xe9ef8155967b38bdull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, true, 156, false, 0, 0, 0x0p+0},
    // 1/BALLS/fixed1/fold
    {0xe9ef8155967b38bdull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, true, 156, true, 1, 3, 0x0p+0},
    // 1/BALLS/fixed3/fold
    {0x15b2e98729ec69ddull, 0x1.6c8ap+14,
     "",
     RunOutcome::kConverged, true, 156, true, 3, 3, 0x1.0d0000016p+10},
    // 1/BALLS/fixed4/fold
    {0x5c8fa2678a81df16ull, 0x1.938ap+14,
     "",
     RunOutcome::kConverged, true, 156, true, 4, 3, 0x1.c2dfffb51p+11},
    // 1/BALLS/auto/fold
    {0x25a9a9d917528c3cull, 0x1.c4e2p+14,
     "",
     RunOutcome::kConverged, true, 156, true, 7, 3, 0x1.acefffb1ep+12},
    // 1/BALLS/autohigh/fold
    {0xe9ef8155967b38bdull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, true, 156, false, 0, 0, 0x0p+0},
    // 1/AGGLOMERATIVE/whole/fold
    {0x742d03187e218233ull, 0x1.5ffap+14,
     "",
     RunOutcome::kConverged, true, 156, false, 0, 0, 0x0p+0},
    // 1/AGGLOMERATIVE/fixed1/fold
    {0x742d03187e218233ull, 0x1.5ffap+14,
     "",
     RunOutcome::kConverged, true, 156, true, 1, 3, 0x0p+0},
    // 1/AGGLOMERATIVE/fixed3/fold
    {0xacca9c44b2249eaaull, 0x1.6e7ep+14,
     "",
     RunOutcome::kConverged, true, 156, true, 3, 3, 0x1.0d0000016p+10},
    // 1/AGGLOMERATIVE/fixed4/fold
    {0x4e545990497c8ef7ull, 0x1.950ep+14,
     "",
     RunOutcome::kConverged, true, 156, true, 4, 3, 0x1.c2dfffb51p+11},
    // 1/AGGLOMERATIVE/auto/fold
    {0x972c8fe6a1e848f1ull, 0x1.c56ep+14,
     "",
     RunOutcome::kConverged, true, 156, true, 7, 3, 0x1.acefffb1ep+12},
    // 1/AGGLOMERATIVE/autohigh/fold
    {0x742d03187e218233ull, 0x1.5ffap+14,
     "",
     RunOutcome::kConverged, true, 156, false, 0, 0, 0x0p+0},
    // 1/LOCALSEARCH/whole/fold
    {0x794e49ddd90c56caull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, true, 156, false, 0, 0, 0x0p+0},
    // 1/LOCALSEARCH/fixed1/fold
    {0x794e49ddd90c56caull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, true, 156, true, 1, 3, 0x0p+0},
    // 1/LOCALSEARCH/fixed3/fold
    {0xa6217d3bf4d44946ull, 0x1.6c8ap+14,
     "",
     RunOutcome::kConverged, true, 156, true, 3, 3, 0x1.0d0000016p+10},
    // 1/LOCALSEARCH/fixed4/fold
    {0xda6fb731a660b022ull, 0x1.9382p+14,
     "",
     RunOutcome::kConverged, true, 156, true, 4, 3, 0x1.c2dfffb51p+11},
    // 1/LOCALSEARCH/auto/fold
    {0x49a89bb24f0c0f1cull, 0x1.c4e2p+14,
     "",
     RunOutcome::kConverged, true, 156, true, 7, 3, 0x1.acefffb1ep+12},
    // 1/LOCALSEARCH/autohigh/fold
    {0x794e49ddd90c56caull, 0x1.5d9ap+14,
     "",
     RunOutcome::kConverged, true, 156, false, 0, 0, 0x0p+0},
    // 2/EXACT/whole
    {0x003cfd06ccb7318cull, 0x1.65p+8,
     "EXACT is intractable at n=40 (max 12); fell back to BALLS + "
     "LOCALSEARCH refinement",
     RunOutcome::kFellBack, false, 0, false, 0, 0, 0x0p+0},
    // 2/EXACT/fixed1
    {0x003cfd06ccb7318cull, 0x1.65p+8,
     "shard 0/1: EXACT is intractable at n=40 (max 12); fell back to "
     "BALLS + LOCALSEARCH refinement",
     RunOutcome::kFellBack, false, 0, true, 1, 5, 0x0p+0},
    // 2/EXACT/fixed3
    {0x4de64c77bb7307a6ull, 0x1.7fp+8,
     "shard 2/4: EXACT is intractable at n=14 (max 12); fell back to "
     "BALLS + LOCALSEARCH refinement",
     RunOutcome::kFellBack, false, 0, true, 4, 5, 0x1.ep+4},
    // 2/EXACT/fixed4
    {0xe108920b39ca5445ull, 0x1.bfp+8,
     "",
     RunOutcome::kConverged, false, 0, true, 5, 5, 0x1.78p+6},
    // 2/EXACT/whole/fold
    {0x003cfd06ccb7318cull, 0x1.65p+8,
     "EXACT is intractable at n=26 (max 12); fell back to BALLS + "
     "LOCALSEARCH refinement",
     RunOutcome::kFellBack, true, 26, false, 0, 0, 0x0p+0},
    // 2/EXACT/fixed1/fold
    {0x003cfd06ccb7318cull, 0x1.65p+8,
     "shard 0/1: EXACT is intractable at n=26 (max 12); fell back to "
     "BALLS + LOCALSEARCH refinement",
     RunOutcome::kFellBack, true, 26, true, 1, 5, 0x0p+0},
    // 2/EXACT/fixed3/fold
    {0x4de65177bb731025ull, 0x1.65p+8,
     "",
     RunOutcome::kConverged, true, 26, true, 4, 5, 0x1p+2},
    // 2/EXACT/fixed4/fold
    {0x4de65177bb731025ull, 0x1.65p+8,
     "",
     RunOutcome::kConverged, true, 26, true, 4, 5, 0x1p+2},
    // 0/SAMPLING/BALLS/whole
    {0x6248409e0154546eull, 0x1.433cp+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 0/SAMPLING/BALLS/fixed3
    {0x6248409e0154546eull, 0x1.433cp+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 0/SAMPLING/AGGLOMERATIVE/whole
    {0x786220d9ece7fcdeull, 0x1.4548p+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 0/SAMPLING/AGGLOMERATIVE/fixed3
    {0x786220d9ece7fcdeull, 0x1.4548p+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 1/SAMPLING/BALLS/whole
    {0xd31273ff8b8b3d6eull, 0x1.5e02p+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 1/SAMPLING/BALLS/fixed3
    {0xd31273ff8b8b3d6eull, 0x1.5e02p+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 1/SAMPLING/AGGLOMERATIVE/whole
    {0xb535fe7126bfced2ull, 0x1.5dfap+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 1/SAMPLING/AGGLOMERATIVE/fixed3
    {0xb535fe7126bfced2ull, 0x1.5dfap+14,
     "",
     RunOutcome::kConverged, false, 0, false, 0, 0, 0x0p+0},
    // 2/SAMPLING/EXACT/fixed3/fold
    {0x003cfd06ccb7318cull, 0x1.65p+8,
     "EXACT is intractable at n=26 (max 12); fell back to BALLS + "
     "LOCALSEARCH refinement",
     RunOutcome::kFellBack, true, 26, false, 0, 0, 0x0p+0},
    // 0/BALLS/fixed3/budget1
    {0x25403be45f0b0717ull, 0x1.0858p+15,
     "budget fired during the shard agreement scan; running unsharded | "
     "budget fired during instance construction; returning the "
     "all-singletons partition",
     RunOutcome::kDeadlineExceeded, false, 0, false, 0, 0, 0x0p+0},
    // 0/BALLS/fixed3/budget1/lazy
    {0x25403be45f0b0717ull, 0x1.0858p+15,
     "budget fired during the shard agreement scan; running unsharded | "
     "budget fired before LOCALSEARCH refinement; returning the unrefined "
     "clustering",
     RunOutcome::kDeadlineExceeded, false, 0, false, 0, 0, 0x0p+0},
    // 0/BALLS/fixed3/budget1/fold
    {0x25403be45f0b0717ull, 0x1.0858p+15,
     "budget fired during the shard agreement scan; running unsharded | "
     "budget fired during instance construction; returning the "
     "all-singletons partition",
     RunOutcome::kDeadlineExceeded, true, 178, false, 0, 0, 0x0p+0},
    // 0/BALLS/fixed3/budget1/fold/lazy
    {0xb18727593e875d4aull, 0x1.ce84p+14,
     "budget fired during the shard agreement scan; running unsharded | "
     "budget fired before LOCALSEARCH refinement; returning the unrefined "
     "clustering",
     RunOutcome::kDeadlineExceeded, true, 178, false, 0, 0, 0x0p+0},
    // 0/BALLS/fixed3/budget300
    {0x25403be45f0b0717ull, 0x1.0858p+15,
     "budget fired during the shard agreement scan; running unsharded | "
     "budget fired during instance construction; returning the "
     "all-singletons partition",
     RunOutcome::kDeadlineExceeded, false, 0, false, 0, 0, 0x0p+0},
    // 0/BALLS/fixed3/budget300/lazy
    {0x25403be45f0b0717ull, 0x1.0858p+15,
     "budget fired during the shard agreement scan; running unsharded | "
     "budget fired before LOCALSEARCH refinement; returning the unrefined "
     "clustering",
     RunOutcome::kDeadlineExceeded, false, 0, false, 0, 0, 0x0p+0},
    // 0/BALLS/fixed3/budget300/fold
    {0x2ab97e2e607f6397ull, 0x1.e748p+14,
     "shard 0/3: budget fired before LOCALSEARCH refinement; returning "
     "the unrefined clustering | shard 1/3: budget fired during instance "
     "construction; returning the all-singletons partition | shard 2/3: "
     "budget fired during instance construction; returning the "
     "all-singletons partition",
     RunOutcome::kDeadlineExceeded, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed3/budget300/fold/lazy
    {0x75de329e86128fb3ull, 0x1.9858p+14,
     "shard 1/3: budget fired before LOCALSEARCH refinement; returning "
     "the unrefined clustering | shard 2/3: budget fired before "
     "LOCALSEARCH refinement; returning the unrefined clustering",
     RunOutcome::kDeadlineExceeded, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed3/budget600
    {0xfd4eca91a5d9fc77ull, 0x1.d118p+14,
     "shard 1/3: budget fired during instance construction; returning the "
     "all-singletons partition | shard 2/3: budget fired during instance "
     "construction; returning the all-singletons partition",
     RunOutcome::kDeadlineExceeded, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/fixed3/budget600/lazy
    {0xd7634ac8f55626a5ull, 0x1.d078p+14,
     "shard 1/3: budget fired before LOCALSEARCH refinement; returning "
     "the unrefined clustering | shard 2/3: budget fired before "
     "LOCALSEARCH refinement; returning the unrefined clustering",
     RunOutcome::kDeadlineExceeded, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/fixed3/budget600/fold
    {0xecdd8d52214b4cf7ull, 0x1.95e4p+14,
     "shard 1/3: budget fired before LOCALSEARCH refinement; returning "
     "the unrefined clustering | shard 2/3: budget fired during instance "
     "construction; returning the all-singletons partition",
     RunOutcome::kDeadlineExceeded, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed3/budget600/fold/lazy
    {0x20b02492fded1159ull, 0x1.8098p+14,
     "shard 2/3: budget fired before LOCALSEARCH refinement; returning "
     "the unrefined clustering",
     RunOutcome::kDeadlineExceeded, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed3/budget1200
    {0xe9273d8f9798528bull, 0x1.a92p+14,
     "shard 2/3: budget fired during instance construction; returning the "
     "all-singletons partition",
     RunOutcome::kDeadlineExceeded, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/fixed3/budget1200/lazy
    {0xe9273d8f9798528bull, 0x1.a92p+14,
     "shard 2/3: budget fired before LOCALSEARCH refinement; returning "
     "the unrefined clustering",
     RunOutcome::kDeadlineExceeded, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/fixed3/budget1200/fold
    {0xeff0387c48e3734cull, 0x1.7088p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed3/budget1200/fold/lazy
    {0xeff0387c48e3734cull, 0x1.7088p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed3/budget2000
    {0x4262715ada82afe2ull, 0x1.7d1cp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/fixed3/budget2000/lazy
    {0x4262715ada82afe2ull, 0x1.7d1cp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/fixed3/budget2000/fold
    {0xeff0387c48e3734cull, 0x1.7088p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed3/budget2000/fold/lazy
    {0xeff0387c48e3734cull, 0x1.7088p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed3/budget20000
    {0x4262715ada82afe2ull, 0x1.7d1cp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/fixed3/budget20000/lazy
    {0x4262715ada82afe2ull, 0x1.7d1cp+14,
     "",
     RunOutcome::kConverged, false, 0, true, 3, 1, 0x1.0cdfffab58p+12},
    // 0/BALLS/fixed3/budget20000/fold
    {0xeff0387c48e3734cull, 0x1.7088p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
    // 0/BALLS/fixed3/budget20000/fold/lazy
    {0xeff0387c48e3734cull, 0x1.7088p+14,
     "",
     RunOutcome::kConverged, true, 178, true, 3, 1, 0x1.d11fff3f1p+11},
};

TEST(PipelinePinTest, OutputsMatchTheRecordedRuns) {
  const std::vector<PinCase> cases = PinCases();
  ASSERT_EQ(cases.size(), sizeof(kPins) / sizeof(kPins[0]));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (DistanceBackend backend : cases[i].backends) {
      const std::string name =
          cases[i].name + (backend == DistanceBackend::kLazy ? "/lazy" : "");
      Result<AggregationResult> r =
          Aggregate(PinInput(cases[i].input), cases[i].options(backend));
      ASSERT_TRUE(r.ok()) << name << ": " << r.status();
      const Pin actual{LabelChecksum(r->clustering), r->total_disagreements,
                       Join(r->fallbacks),           r->outcome,
                       r->folded,                    r->fold_signatures,
                       r->sharded,                   r->shard_count,
                       r->shard_components,          r->stitch_error_bound};
      EXPECT_EQ(Describe(actual), Describe(kPins[i])) << name;
    }
  }
}

// ------------------------------------------------------------ telemetry

#if defined(CLUSTAGG_TELEMETRY_ENABLED)
std::size_t CountSpans(const Telemetry& telemetry, const std::string& name) {
  std::size_t count = 0;
  for (const Span& span : telemetry.Spans()) count += span.name == name;
  return count;
}

TEST(PipelineTelemetryTest, ShardedRunFoldsAndScoresOnce) {
  // One call, one fold, one score: the shards are solved on node lists
  // of the call's own fold and only the stitched clustering is scored.
  Telemetry telemetry;
  AggregatorOptions options =
      Shape(Base(AggregationAlgorithm::kAgglomerative, true,
                 DistanceBackend::kDense),
            "fixed3");
  options.run = RunContext().WithTelemetry(&telemetry);
  Result<AggregationResult> result = Aggregate(PinInput(0), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->sharded);
  ASSERT_EQ(result->shard_count, 3u);
  EXPECT_EQ(CountSpans(telemetry, "aggregate"), 1u);
  EXPECT_EQ(CountSpans(telemetry, "fold_index"), 1u);
  EXPECT_EQ(CountSpans(telemetry, "score"), 1u);
  EXPECT_EQ(CountSpans(telemetry, "build_instance"), 3u);
  EXPECT_EQ(CountSpans(telemetry, "cluster"), 3u);
  EXPECT_EQ(telemetry.counter("aggregate.folds")->value(), 1u);
}

TEST(PipelineTelemetryTest, AutoRunBelowTheTriggerFoldsOnce) {
  // 300 objects clear min_objects = 200, their 178 signatures do not:
  // the run is solved whole on the fold it already built.
  Telemetry telemetry;
  AggregatorOptions options =
      Shape(Base(AggregationAlgorithm::kAgglomerative, true,
                 DistanceBackend::kDense),
            "autohigh");
  options.run = RunContext().WithTelemetry(&telemetry);
  Result<AggregationResult> result = Aggregate(PinInput(0), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->sharded);
  EXPECT_TRUE(result->folded);
  EXPECT_EQ(CountSpans(telemetry, "fold_index"), 1u);
  EXPECT_EQ(CountSpans(telemetry, "score"), 1u);
  EXPECT_EQ(CountSpans(telemetry, "build_instance"), 1u);
}
#endif  // CLUSTAGG_TELEMETRY_ENABLED

}  // namespace
}  // namespace clustagg
