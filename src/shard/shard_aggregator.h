#ifndef CLUSTAGG_SHARD_SHARD_AGGREGATOR_H_
#define CLUSTAGG_SHARD_SHARD_AGGREGATOR_H_

#include "common/status.h"
#include "core/aggregator.h"
#include "core/clustering_set.h"

namespace clustagg {

/// The shard-and-conquer branch of Aggregate (docs/sharding.md), which
/// routes here when sharding is requested and sampling is off:
///
///   1. fold — with AggregatorOptions::fold on, group the objects by
///      signature once (core/internal/pipeline.h). Duplicates have
///      distance 0, so they always share a component, and everything
///      below runs over the s signature nodes: the agreement scan drops
///      from O(n^2 m) to O(s^2 m).
///   2. decompose — stream the agreement graph (pairs with X_uv < 1/2)
///      from a lazy scan, find its connected components, split oversized
///      ones with the BFS partitioner, pack small ones
///      (shard/decompose.h).
///   3. solve — hand each shard's node list to the solve stage (same
///      algorithm, backend, refinement and size gates as a whole run),
///      weighted by the fold's group sizes, in parallel across shards.
///      Shards share the parent RunContext's deadline / iteration pool /
///      cancel flag and poll it independently, so a fired budget degrades
///      shard-by-shard: finished shards keep their results, interrupted
///      ones return their best-so-far, never-started ones fall back to
///      singletons.
///   4. stitch — expand and remap shard-local labels into one global
///      clustering, and score it once. The result carries `sharded`,
///      `shard_count`, `shard_components`, and the exact
///      `stitch_error_bound` (shard/decompose.h); a plan with a single
///      shard returns the whole solve verbatim, bit-identical to the
///      unsharded pipeline.
///
/// Solves the input whole, on the same fold, when sharding is off, the
/// kAuto trigger does not fire on the node count, or the decompose scan
/// is interrupted (with a recorded fallback). sampling_size is not read:
/// Aggregate gives SAMPLING precedence before it routes here, and
/// kBestClustering, which builds no instance, fails as in MakeClusterer.
Result<AggregationResult> ShardedAggregate(const ClusteringSet& input,
                                           const AggregatorOptions& options);

}  // namespace clustagg

#endif  // CLUSTAGG_SHARD_SHARD_AGGREGATOR_H_
