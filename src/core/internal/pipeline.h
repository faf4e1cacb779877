#ifndef CLUSTAGG_CORE_INTERNAL_PIPELINE_H_
#define CLUSTAGG_CORE_INTERNAL_PIPELINE_H_

// The stages Aggregate composes (docs/algorithms.md, "One pipeline"):
//
//   fold -> (shard | sample | whole) -> solve -> refine -> expand -> score
//
// Fold, the whole solve and the score live in core/aggregator.cc, the
// shard plan in shard/shard_aggregator.cc and SAMPLING in
// core/sampling.cc; all three solve their node lists through Solve, the
// only place that builds an instance, clusters and refines, and the only
// place that records the aggregate degradation chain.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/aggregator.h"
#include "core/signature_index.h"

namespace clustagg {
namespace internal {

/// What Solve produced for one node list.
struct Solved {
  /// Labels over the node list; empty when the budget fired while the
  /// instance was being built and nothing was clustered. Callers then
  /// return every object as a singleton (duplicates included: nothing
  /// was ever measured).
  std::optional<Clustering> clustering;
  RunOutcome outcome = RunOutcome::kConverged;
  /// The degradation notes the solve recorded, in the order taken.
  std::vector<std::string> fallbacks;
  /// The `aggregate.fallback.*` counter of each note. Solve records no
  /// telemetry itself: per-shard solves run in parallel, and the caller
  /// counts these from its own thread (RecordFallbackCounters).
  std::vector<const char*> counters;
};

/// Adds one to each of solved.counters in `telemetry` (null: nothing).
void RecordFallbackCounters(Telemetry* telemetry, const Solved& solved);

/// The multiplicities of an unfolded solve.
inline const std::vector<double> kUnfolded;

/// SAMPLING's sub-solves: their clusterer and build source come from the
/// SAMPLING call, not from AggregatorOptions.
struct SubsetSolve {
  const CorrelationClusterer& base;
  DistanceSourceOptions source;
};

/// The solve stage. Builds the correlation instance over `nodes` (an
/// ascending list of object ids; null = every object), re-wrapped with
/// `multiplicities` when non-empty (one per node, the fold group sizes),
/// clusters it and, when asked, polishes with LOCALSEARCH.
///
/// For Aggregate's whole and per-shard solves (`subset` null) the
/// algorithm and every knob come from `options`, and the degradation
/// chain applies: EXACT beyond options.exact.max_objects nodes becomes
/// BALLS + LOCALSEARCH (allow_fallbacks), a dense build that does not fit
/// is retried on the lazy backend (allow_fallbacks), a budget that fires
/// during the build yields no clustering, and one that fires before the
/// polish skips it. Each step is noted in Solved::fallbacks, with its
/// `aggregate.fallback.*` counter in Solved::counters.
///
/// For SAMPLING (`subset` set) it runs subset->base on subset->source
/// with no EXACT gate, no polish and no telemetry of its own, and an
/// interrupted build comes back as its status. Of `options` only
/// missing, run (the clusterer's budget) and allow_fallbacks (off for
/// SAMPLING: no lazy retry) are read then.
Result<Solved> Solve(const ClusteringSet& input,
                     const std::vector<std::size_t>* nodes,
                     const std::vector<double>& multiplicities,
                     const AggregatorOptions& options,
                     const SubsetSolve* subset = nullptr);

/// The fold stage: groups the input by signature when options.fold is
/// on, recording AggregationResult::folded / fold_signatures. Returns
/// the index only when it shrinks the instance (s < n).
std::optional<SignatureIndex> Fold(const ClusteringSet& input,
                                   const AggregatorOptions& options,
                                   AggregationResult* out);

/// Solves the whole input (its fold representatives when `fold` is set)
/// and expands the labels back to object space, merging the solve's
/// outcome and notes into `out`.
Result<Clustering> SolveWhole(const ClusteringSet& input,
                              const AggregatorOptions& options,
                              const std::optional<SignatureIndex>& fold,
                              AggregationResult* out);

/// The score stage: D(C) of `clustering` against the input, stored with
/// the clustering in `out`, which is then returned. An error in
/// `clustering` passes through unscored.
Result<AggregationResult> Score(const ClusteringSet& input,
                                const AggregatorOptions& options,
                                Result<Clustering> clustering,
                                AggregationResult* out);

}  // namespace internal
}  // namespace clustagg

#endif  // CLUSTAGG_CORE_INTERNAL_PIPELINE_H_
