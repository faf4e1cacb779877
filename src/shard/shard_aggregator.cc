#include "shard/shard_aggregator.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/run_context.h"
#include "core/clustering.h"
#include "core/distance_source.h"
#include "core/instrumentation.h"
#include "core/internal/pipeline.h"
#include "core/signature_index.h"
#include "shard/decompose.h"

namespace clustagg {

Result<AggregationResult> ShardedAggregate(const ClusteringSet& input,
                                           const AggregatorOptions& options) {
  const RunContext& run = options.run;
  Telemetry* telemetry = run.telemetry();
  const std::size_t n = input.num_objects();

  AggregationResult out;
  const std::optional<SignatureIndex> fold =
      internal::Fold(input, options, &out);
  auto solve_whole = [&] {
    return internal::Score(input, options,
                           internal::SolveWhole(input, options, fold, &out),
                           &out);
  };
  const std::size_t nodes = fold ? fold->num_signatures() : n;
  if (!ShardingRequested(options.shard) ||
      (options.shard.mode == ShardingMode::kAuto &&
       nodes < options.shard.min_objects)) {
    return solve_whole();
  }

  const std::vector<double>& multiplicities =
      fold ? fold->multiplicities() : internal::kUnfolded;
  Result<ShardPlan> plan = [&]() -> Result<ShardPlan> {
    InstrumentedSpan decompose_span(telemetry, "shard.decompose");
    // The scan always streams from a lazy source — one O(n m) column
    // store whatever backend the per-shard solves use — because both
    // backends answer bit-identically and the scan reads each row once.
    Result<std::shared_ptr<const LazyDistanceSource>> scan =
        fold ? LazyDistanceSource::BuildSubset(input, fold->representatives(),
                                               options.missing)
             : LazyDistanceSource::Build(input, options.missing);
    if (!scan.ok()) return scan.status();
    return DecomposeAgreementGraph(**scan, multiplicities, options.shard,
                                   options.num_threads, run);
  }();
  if (!plan.ok()) {
    if (RunContext::IsInterrupt(plan.status()) && options.allow_fallbacks) {
      // The half-scanned graph is unusable; the whole solve picks up
      // whatever budget remains and degrades from there.
      TelemetryCount(telemetry, "shard.fallback.decompose_interrupted");
      out.fallbacks.push_back(
          "budget fired during the shard agreement scan; running unsharded");
      out.outcome = RunOutcome::kFellBack;
      return solve_whole();
    }
    return plan.status();
  }

  TelemetrySetGauge(telemetry, "shard.components",
                    static_cast<std::int64_t>(plan->num_components));
  TelemetrySetGauge(telemetry, "shard.count",
                    static_cast<std::int64_t>(plan->shards.size()));
  TelemetryCount(telemetry, "shard.cut_edges", plan->cut_edges);
  TelemetryCount(telemetry, "shard.split_components", plan->split_components);
  if (telemetry != nullptr) {
    std::vector<std::size_t> component_size(plan->num_components, 0);
    for (std::int32_t c : plan->component_of) {
      ++component_size[static_cast<std::size_t>(c)];
    }
    for (std::size_t size : component_size) {
      TelemetryObserve(telemetry, "shard.component_size", size);
    }
    for (const std::vector<std::size_t>& shard : plan->shards) {
      TelemetryObserve(telemetry, "shard.size", shard.size());
    }
  }

  const std::size_t shard_count = plan->shards.size();
  out.sharded = true;
  out.shard_count = shard_count;
  out.shard_components = plan->num_components;
  // The plan's bound is in normalized X units (a cut pair's excess is
  // 1 - 2 X_uv <= 1); total_disagreements counts weighted clustering
  // opinions, where the same pair's excess is scaled by the input's
  // total weight. Surface the bound in the result's units.
  out.stitch_error_bound = plan->stitch_error_bound * input.total_weight();

  // Solve every shard's node list through the solve stage (backend
  // fallback, refinement, EXACT's size gate all apply per shard). Outer
  // parallelism goes across shards; each shard gets the leftover threads
  // for its own parallel phases.
  const std::size_t resolved = ResolveThreadCount(options.num_threads);
  const std::size_t outer = std::max<std::size_t>(
      1, std::min(shard_count, resolved));
  AggregatorOptions shard_options = options;
  shard_options.num_threads = std::max<std::size_t>(1, resolved / outer);
  // Telemetry spans are single-threaded by contract (Span begin/end must
  // come from one thread at a time), so parallel per-shard solves run
  // with the sink detached; the per-shard latency histogram and the
  // solves' fallback counters are recorded from this thread after the
  // join either way.
  shard_options.run = outer > 1 ? run.WithTelemetry(nullptr) : run;

  std::vector<std::optional<internal::Solved>> solved(shard_count);
  std::vector<std::optional<Status>> errors(shard_count);
  std::vector<std::uint64_t> solve_nanos(shard_count, 0);
  {
    InstrumentedSpan solve_span(telemetry, "shard.solve");
    ParallelForRowsCancellable(
        shard_count, outer, run, [&](std::size_t s, std::size_t) {
          const std::uint64_t start =
              telemetry != nullptr ? telemetry->clock().NowNanos() : 0;
          std::optional<InstrumentedSpan> shard_span;
          std::string span_name;
          if (outer == 1 && telemetry != nullptr) {
            span_name = "shard." + std::to_string(s);
            shard_span.emplace(telemetry, span_name);
          }
          // Folded shards solve their signatures' representatives (in
          // signature order, so ascending) weighted by the fold's group
          // sizes; a shard of unique signatures builds unfolded, as a
          // fold that does not shrink it would.
          std::vector<std::size_t> objects;
          std::vector<double> weights;
          for (std::size_t node : plan->shards[s]) {
            objects.push_back(fold ? fold->representatives()[node] : node);
            if (fold) weights.push_back(multiplicities[node]);
          }
          if (std::all_of(weights.begin(), weights.end(),
                          [](double w) { return w == 1.0; })) {
            weights.clear();
          }
          Result<internal::Solved> result =
              internal::Solve(input, &objects, weights, shard_options);
          if (!result.ok()) {
            errors[s] = result.status();
            return;
          }
          solved[s] = std::move(*result);
          if (telemetry != nullptr) {
            solve_nanos[s] = telemetry->clock().NowNanos() - start;
          }
        });
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (errors[s].has_value()) return *errors[s];
  }

  // Shards the interrupted loop never started degrade to singletons —
  // the same honest best-so-far an interrupted build returns.
  bool any_unsolved = false;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (solve_nanos[s] != 0) {
      TelemetryObserve(telemetry, "shard.solve_nanos", solve_nanos[s]);
    }
    if (solved[s].has_value()) {
      internal::RecordFallbackCounters(telemetry, *solved[s]);
    } else {
      any_unsolved = true;
      const RunOutcome interrupt = run.Poll();
      solved[s].emplace().outcome = interrupt == RunOutcome::kConverged
                                        ? RunOutcome::kDeadlineExceeded
                                        : interrupt;
    }
    out.outcome = MergeOutcomes(out.outcome, solved[s]->outcome);
    for (const std::string& note : solved[s]->fallbacks) {
      out.fallbacks.push_back("shard " + std::to_string(s) + "/" +
                              std::to_string(shard_count) + ": " + note);
    }
  }
  if (any_unsolved) {
    out.fallbacks.push_back(
        "budget fired before every shard was solved; unsolved shards "
        "return the all-singletons partition");
    TelemetryCount(telemetry, "shard.fallback.solve_interrupted");
  }

  // The stitch span closes before scoring: `score` is a child of
  // `aggregate` on every path.
  Clustering stitched = [&] {
    InstrumentedSpan stitch_span(telemetry, "shard.stitch");
    if (shard_count == 1 && solved[0]->clustering.has_value()) {
      // One shard over every node: its solve was the whole solve, label
      // for label.
      return fold ? fold->Expand(*solved[0]->clustering)
                  : std::move(*solved[0]->clustering);
    }
    // Each shard's labels move past the previous shards' range; objects
    // of a shard without a clustering (never started, or its build was
    // interrupted) get a label each.
    std::vector<Clustering::Label> offset(shard_count, 0);
    std::vector<std::size_t> position(nodes);
    Clustering::Label next = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::vector<std::size_t>& shard = plan->shards[s];
      for (std::size_t i = 0; i < shard.size(); ++i) position[shard[i]] = i;
      offset[s] = next;
      if (const std::optional<Clustering>& local = solved[s]->clustering) {
        next += *std::max_element(local->labels().begin(),
                                  local->labels().end()) + 1;
      }
    }
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t node = fold ? fold->signature_of(v) : v;
      const std::size_t s = plan->shard_of[node];
      const std::optional<Clustering>& local = solved[s]->clustering;
      labels[v] = local ? offset[s] + local->label(position[node]) : next++;
    }
    Clustering joined(std::move(labels));
    joined.Normalize();
    return joined;
  }();
  return internal::Score(input, options, std::move(stitched), &out);
}

}  // namespace clustagg
