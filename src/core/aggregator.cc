#include "core/aggregator.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/best_clustering.h"
#include "core/correlation_instance.h"
#include "core/instrumentation.h"
#include "core/internal/pipeline.h"
#include "core/signature_index.h"
#include "shard/shard_aggregator.h"

namespace clustagg {

const char* AggregationAlgorithmName(AggregationAlgorithm algorithm) {
  switch (algorithm) {
    case AggregationAlgorithm::kBestClustering:
      return "BESTCLUSTERING";
    case AggregationAlgorithm::kBalls:
      return "BALLS";
    case AggregationAlgorithm::kAgglomerative:
      return "AGGLOMERATIVE";
    case AggregationAlgorithm::kFurthest:
      return "FURTHEST";
    case AggregationAlgorithm::kLocalSearch:
      return "LOCALSEARCH";
    case AggregationAlgorithm::kPivot:
      return "CC-PIVOT";
    case AggregationAlgorithm::kAnnealing:
      return "ANNEALING";
    case AggregationAlgorithm::kMajority:
      return "MAJORITY";
    case AggregationAlgorithm::kExact:
      return "EXACT";
  }
  return "UNKNOWN";
}

Result<std::unique_ptr<CorrelationClusterer>> MakeClusterer(
    const AggregatorOptions& options) {
  switch (options.algorithm) {
    case AggregationAlgorithm::kBalls:
      return std::unique_ptr<CorrelationClusterer>(
          new BallsClusterer(options.balls));
    case AggregationAlgorithm::kAgglomerative:
      return std::unique_ptr<CorrelationClusterer>(
          new AgglomerativeClusterer(options.agglomerative));
    case AggregationAlgorithm::kFurthest:
      return std::unique_ptr<CorrelationClusterer>(
          new FurthestClusterer(options.furthest));
    case AggregationAlgorithm::kLocalSearch:
      return std::unique_ptr<CorrelationClusterer>(
          new LocalSearchClusterer(options.local_search));
    case AggregationAlgorithm::kPivot:
      return std::unique_ptr<CorrelationClusterer>(
          new PivotClusterer(options.pivot));
    case AggregationAlgorithm::kAnnealing:
      return std::unique_ptr<CorrelationClusterer>(
          new AnnealingClusterer(options.annealing));
    case AggregationAlgorithm::kMajority:
      return std::unique_ptr<CorrelationClusterer>(
          new MajorityClusterer(options.majority));
    case AggregationAlgorithm::kExact:
      return std::unique_ptr<CorrelationClusterer>(
          new ExactClusterer(options.exact));
    case AggregationAlgorithm::kBestClustering:
      return Status::InvalidArgument(
          "BESTCLUSTERING needs the original clusterings, not a "
          "correlation instance; call Aggregate or BestClustering directly");
  }
  return Status::InvalidArgument("unknown aggregation algorithm");
}

namespace {

/// The options the clusterers run with: max_cluster_size also caps the
/// LOCALSEARCH runs and polish.
AggregatorOptions Effective(const AggregatorOptions& options) {
  AggregatorOptions effective = options;
  if (options.max_cluster_size > 0) {
    effective.local_search.max_cluster_size = options.max_cluster_size;
  }
  return effective;
}

}  // namespace

namespace internal {

Result<Solved> Solve(const ClusteringSet& input,
                     const std::vector<std::size_t>* nodes,
                     const std::vector<double>& multiplicities,
                     const AggregatorOptions& options,
                     const SubsetSolve* subset) {
  Solved out;
  const RunContext& run = options.run;
  // SAMPLING's sub-solves run inside its own phase spans.
  Telemetry* telemetry = subset == nullptr ? run.telemetry() : nullptr;
  const std::size_t size =
      nodes != nullptr ? nodes->size() : input.num_objects();

  DistanceSourceOptions source =
      subset != nullptr ? subset->source
                        : DistanceSourceOptions{options.backend,
                                                options.num_threads, run};
  const CorrelationClusterer* clusterer =
      subset != nullptr ? &subset->base : nullptr;
  std::unique_ptr<CorrelationClusterer> owned;
  std::optional<LocalSearchOptions> refine;
  if (subset == nullptr) {
    AggregatorOptions effective = Effective(options);
    // Degradation 1: the exact solver beyond its tractable size would be
    // a hard ResourceExhausted; aggregation callers prefer a good answer
    // over none, so swap in BALLS polished by LOCALSEARCH (the paper's
    // recommended refinement). The gate counts the nodes this solve
    // sees: s signatures when folded, one shard's nodes when sharded.
    if (options.allow_fallbacks &&
        options.algorithm == AggregationAlgorithm::kExact &&
        size > options.exact.max_objects) {
      effective.algorithm = AggregationAlgorithm::kBalls;
      effective.refine_with_local_search = true;
      out.fallbacks.push_back(
          "EXACT is intractable at n=" + std::to_string(size) + " (max " +
          std::to_string(options.exact.max_objects) +
          "); fell back to BALLS + LOCALSEARCH refinement");
      out.outcome = RunOutcome::kFellBack;
      out.counters.push_back("aggregate.fallback.exact_to_balls");
    }
    Result<std::unique_ptr<CorrelationClusterer>> made =
        MakeClusterer(effective);
    if (!made.ok()) return made.status();
    owned = std::move(made).value();
    clusterer = owned.get();
    if (effective.refine_with_local_search &&
        effective.algorithm != AggregationAlgorithm::kLocalSearch) {
      refine = effective.local_search;
    }
  }

  Result<CorrelationInstance> built = [&]() -> Result<CorrelationInstance> {
    InstrumentedSpan build_span(telemetry, "build_instance");
    auto build = [&] {
      return nodes != nullptr
                 ? CorrelationInstance::BuildSubset(input, *nodes,
                                                    options.missing, source)
                 : CorrelationInstance::Build(input, options.missing, source);
    };
    Result<CorrelationInstance> first = build();
    if (!first.ok() && source.backend == DistanceBackend::kDense &&
        options.allow_fallbacks &&
        first.status().code() == StatusCode::kResourceExhausted) {
      // Degradation 2: the dense O(n^2/2) matrix did not fit (really, or
      // via an injected fault). The lazy backend answers bit-identically
      // from O(n m) memory, just slower per query.
      out.fallbacks.push_back(
          "dense backend allocation failed; retried with lazy backend");
      out.outcome = MergeOutcomes(out.outcome, RunOutcome::kFellBack);
      out.counters.push_back("aggregate.fallback.dense_to_lazy");
      source.backend = DistanceBackend::kLazy;
      return build();
    }
    return first;
  }();
  if (built.ok() && !multiplicities.empty()) {
    // Re-wrap a folded source with the signature multiplicities so every
    // clusterer and reduction weighs each representative by the
    // originals it stands for.
    built = CorrelationInstance::FromSource(
        built->shared_source(), source.num_threads, multiplicities);
  }
  if (!built.ok()) {
    if (subset == nullptr && RunContext::IsInterrupt(built.status())) {
      // Degradation 3: the budget fired while the instance was still
      // being built; no distances -> nothing was merged yet, so the
      // all-singletons partition is the honest best-so-far.
      out.fallbacks.push_back(
          "budget fired during instance construction; returning the "
          "all-singletons partition");
      out.outcome = MergeOutcomes(
          out.outcome, RunContext::OutcomeFromInterrupt(built.status()));
      out.counters.push_back("aggregate.fallback.build_interrupted");
      return out;
    }
    return built.status();
  }

  Result<ClustererRun> clustered = [&] {
    InstrumentedSpan cluster_span(telemetry, "cluster");
    return clusterer->RunControlled(*built, run);
  }();
  if (!clustered.ok()) return clustered.status();
  out.outcome = MergeOutcomes(out.outcome, clustered->outcome);
  out.clustering = std::move(clustered->clustering);
  if (!refine.has_value()) return out;
  if (out.outcome == RunOutcome::kCancelled ||
      out.outcome == RunOutcome::kDeadlineExceeded) {
    // Degradation 4: no budget left for the polish; ship the unrefined
    // clustering.
    out.fallbacks.push_back(
        "budget fired before LOCALSEARCH refinement; returning the "
        "unrefined clustering");
    out.counters.push_back("aggregate.fallback.refine_skipped");
    return out;
  }
  InstrumentedSpan refine_span(telemetry, "refine");
  Result<ClustererRun> refined = LocalSearchClusterer(*refine)
                                     .RunFromControlled(*built,
                                                        *out.clustering, run);
  if (!refined.ok()) return refined.status();
  out.outcome = MergeOutcomes(out.outcome, refined->outcome);
  out.clustering = std::move(refined->clustering);
  return out;
}

void RecordFallbackCounters(Telemetry* telemetry, const Solved& solved) {
  for (const char* counter : solved.counters) {
    TelemetryCount(telemetry, counter);
  }
}

std::optional<SignatureIndex> Fold(const ClusteringSet& input,
                                   const AggregatorOptions& options,
                                   AggregationResult* out) {
  if (!options.fold) return std::nullopt;
  Telemetry* telemetry = options.run.telemetry();
  InstrumentedSpan fold_span(telemetry, "fold_index");
  SignatureIndex signatures = SignatureIndex::Build(input);
  out->fold_signatures = signatures.num_signatures();
  TelemetrySetGauge(telemetry, "aggregate.fold_signatures",
                    static_cast<std::int64_t>(signatures.num_signatures()));
  if (signatures.trivial()) return std::nullopt;
  out->folded = true;
  TelemetryCount(telemetry, "aggregate.folds");
  return signatures;
}

Result<Clustering> SolveWhole(const ClusteringSet& input,
                              const AggregatorOptions& options,
                              const std::optional<SignatureIndex>& fold,
                              AggregationResult* out) {
  Result<Solved> solved =
      Solve(input, fold ? &fold->representatives() : nullptr,
            fold ? fold->multiplicities() : kUnfolded, options);
  if (!solved.ok()) return solved.status();
  RecordFallbackCounters(options.run.telemetry(), *solved);
  out->outcome = MergeOutcomes(out->outcome, solved->outcome);
  out->fallbacks.insert(out->fallbacks.end(), solved->fallbacks.begin(),
                        solved->fallbacks.end());
  if (!solved->clustering.has_value()) {
    return Clustering::AllSingletons(input.num_objects());
  }
  return fold ? fold->Expand(*solved->clustering)
              : std::move(*solved->clustering);
}

Result<AggregationResult> Score(const ClusteringSet& input,
                                const AggregatorOptions& options,
                                Result<Clustering> clustering,
                                AggregationResult* out) {
  if (!clustering.ok()) return clustering.status();
  Telemetry* telemetry = options.run.telemetry();
  InstrumentedSpan score_span(telemetry, "score");
  Result<double> disagreements =
      input.TotalDisagreements(*clustering, options.missing);
  if (!disagreements.ok()) return disagreements.status();
  if (telemetry != nullptr) {
    TelemetrySetGauge(telemetry, "aggregate.clusters",
                      static_cast<std::int64_t>(clustering->NumClusters()));
  }
  out->clustering = std::move(*clustering);
  out->total_disagreements = *disagreements;
  return std::move(*out);
}

}  // namespace internal

Result<AggregationResult> Aggregate(const ClusteringSet& input,
                                    const AggregatorOptions& options) {
  Telemetry* telemetry = options.run.telemetry();
  InstrumentedSpan aggregate_span(telemetry, "aggregate");
  TelemetrySetGauge(telemetry, "aggregate.num_objects",
                    static_cast<std::int64_t>(input.num_objects()));
  TelemetrySetGauge(telemetry, "aggregate.num_clusterings",
                    static_cast<std::int64_t>(input.num_clusterings()));

  if (options.algorithm == AggregationAlgorithm::kBestClustering) {
    InstrumentedSpan cluster_span(telemetry, "cluster");
    Result<BestClusteringResult> best =
        BestClustering(input, options.missing, options.run);
    if (!best.ok()) return best.status();
    AggregationResult out;
    out.clustering = std::move(best->clustering);
    out.total_disagreements = best->total_disagreements;
    out.outcome = best->outcome;
    return out;
  }

  // The objective decomposes exactly across agreement-graph components
  // (docs/sharding.md), so requested sharding runs the fold -> shard ->
  // score composition of src/shard/. Sampling keeps precedence: it
  // already avoids the O(n^2) instance sharding exists to split.
  if (ShardingRequested(options.shard) && options.sampling_size == 0) {
    return ShardedAggregate(input, options);
  }

  // Sampling eligibility is decided by the *requested* algorithm, not the
  // effective one: sampling_size is documented as ignored for kExact, and
  // that must stay true when the exact solver degrades to BALLS (the
  // recorded fallback promises "BALLS + LOCALSEARCH refinement", which
  // the sampling path would not deliver).
  AggregationResult out;
  if (options.sampling_size > 0 &&
      options.algorithm != AggregationAlgorithm::kExact) {
    // SAMPLING (Section 4.1): the selected algorithm runs on the sampled
    // sub-instances, which fold themselves when options.fold is on.
    Result<std::unique_ptr<CorrelationClusterer>> clusterer =
        MakeClusterer(Effective(options));
    if (!clusterer.ok()) return clusterer.status();
    Result<ClustererRun> sampled = [&] {
      InstrumentedSpan cluster_span(telemetry, "cluster");
      SamplingOptions sampling = options.sampling;
      sampling.sample_size = options.sampling_size;
      sampling.missing = options.missing;
      sampling.source.backend = options.backend;
      sampling.source.num_threads = options.num_threads;
      sampling.fold = options.fold;
      return SamplingAggregateControlled(input, **clusterer, options.run,
                                         sampling);
    }();
    if (!sampled.ok()) return sampled.status();
    out.outcome = sampled->outcome;
    return internal::Score(input, options, std::move(sampled->clustering),
                           &out);
  }
  const std::optional<SignatureIndex> fold =
      internal::Fold(input, options, &out);
  return internal::Score(input, options,
                         internal::SolveWhole(input, options, fold, &out),
                         &out);
}

}  // namespace clustagg
