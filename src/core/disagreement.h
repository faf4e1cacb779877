#ifndef CLUSTAGG_CORE_DISAGREEMENT_H_
#define CLUSTAGG_CORE_DISAGREEMENT_H_

#include <cstdint>

#include "common/status.h"
#include "core/clustering.h"

namespace clustagg {

/// Disagreement distance between two *complete* clusterings (Section 3 of
/// the paper): the number of unordered object pairs (u, v) that one
/// clustering places together and the other apart. Satisfies the triangle
/// inequality (Observation 1).
///
/// The paper's worked example (Figure 1) counts unordered pairs — e.g.
/// C_1 vs. the optimum disagrees on exactly the four pairs listed — so we
/// count unordered pairs throughout; double the value for the ordered
/// V x V formulation.

/// Reference implementation straight from the definition; O(n^2). Used as
/// a testing oracle and in micro-benchmarks.
Result<std::uint64_t> DisagreementDistanceNaive(const Clustering& a,
                                                const Clustering& b);

/// Pair-counting implementation via the contingency table of the two
/// clusterings; O(n) time: b is grouped by cluster with a counting sort
/// and a's labels are counted within each group (only the nonzero
/// contingency cells are ever touched). The disagreement count equals
///   pairs(a) + pairs(b) - 2 * joint_pairs(a, b)
/// where pairs(x) is the number of co-clustered pairs of x and
/// joint_pairs counts pairs co-clustered in both.
Result<std::uint64_t> DisagreementDistance(const Clustering& a,
                                           const Clustering& b);

/// Number of unordered pairs co-clustered by `c`. Requires a complete
/// clustering.
Result<std::uint64_t> CoClusteredPairs(const Clustering& c);

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_DISAGREEMENT_H_
