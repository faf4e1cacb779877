#include "local/local_oracle.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/instrumentation.h"

namespace clustagg {

namespace {

/// Poll the RunContext once per this many candidate steps: frequent
/// enough that a deadline stops a chain within microseconds, cheap
/// enough that the packed point query stays ALU-bound.
constexpr std::uint64_t kPollInterval = 64;

}  // namespace

LocalMembershipOracle::LocalMembershipOracle(
    std::shared_ptr<const DistanceSource> source,
    const LocalOracleOptions& options, std::vector<std::size_t> sig_of,
    std::vector<std::size_t> rep_object)
    : source_(std::move(source)),
      options_(options),
      sig_of_(std::move(sig_of)),
      rep_object_(std::move(rep_object)),
      memo_(new Memo) {
  const std::size_t s = source_->size();
  // The exact stream PivotClusterer draws for its first repetition:
  // Rng(seed).Permutation(s). Pinning the draw here is what makes every
  // local answer bit-identical to the global run.
  Rng rng(options_.seed);
  perm_ = rng.Permutation(s);
  rank_.resize(s);
  for (std::size_t r = 0; r < s; ++r) rank_[perm_[r]] = r;
}

Result<LocalMembershipOracle> LocalMembershipOracle::Create(
    std::shared_ptr<const DistanceSource> source,
    const LocalOracleOptions& options) {
  if (source == nullptr) {
    return Status::InvalidArgument("local oracle needs a distance source");
  }
  if (!(options.join_threshold >= 0.0 && options.join_threshold <= 1.0)) {
    return Status::InvalidArgument("join_threshold must lie in [0, 1]");
  }
  return LocalMembershipOracle(std::move(source), options, {}, {});
}

Result<LocalMembershipOracle> LocalMembershipOracle::FromClusterings(
    const ClusteringSet& input, const MissingValueOptions& missing,
    const LocalOracleOptions& options) {
  Result<std::shared_ptr<const LazyDistanceSource>> source =
      LazyDistanceSource::Build(input, missing);
  if (!source.ok()) return source.status();
  return Create(*std::move(source), options);
}

Result<LocalMembershipOracle> LocalMembershipOracle::FromClusteringsFolded(
    const ClusteringSet& input, const MissingValueOptions& missing,
    const LocalOracleOptions& options) {
  if (!(options.join_threshold >= 0.0 && options.join_threshold <= 1.0)) {
    return Status::InvalidArgument("join_threshold must lie in [0, 1]");
  }
  SignatureIndex signatures = SignatureIndex::Build(input);
  Result<std::shared_ptr<const LazyDistanceSource>> source =
      LazyDistanceSource::BuildSubset(input, signatures.representatives(),
                                      missing);
  if (!source.ok()) return source.status();
  std::vector<std::size_t> sig_of(input.num_objects());
  for (std::size_t v = 0; v < sig_of.size(); ++v) {
    sig_of[v] = signatures.signature_of(v);
  }
  return LocalMembershipOracle(*std::move(source), options,
                               std::move(sig_of),
                               signatures.representatives());
}

bool LocalMembershipOracle::MemoLookup(std::size_t v,
                                       std::size_t* owner) const {
  if (options_.memo_capacity == 0) return false;
  std::lock_guard<std::mutex> lock(memo_->mu);
  auto it = memo_->entries.find(v);
  if (it == memo_->entries.end()) return false;
  // Touch: move to the recent end.
  memo_->lru.splice(memo_->lru.begin(), memo_->lru, it->second.second);
  *owner = it->second.first;
  return true;
}

void LocalMembershipOracle::MemoInsert(std::size_t v,
                                       std::size_t owner) const {
  if (options_.memo_capacity == 0) return;
  std::lock_guard<std::mutex> lock(memo_->mu);
  auto it = memo_->entries.find(v);
  if (it != memo_->entries.end()) {
    // A racing query resolved v first; adjudications are deterministic,
    // so the values necessarily agree.
    memo_->lru.splice(memo_->lru.begin(), memo_->lru, it->second.second);
    return;
  }
  if (memo_->entries.size() >= options_.memo_capacity) {
    memo_->entries.erase(memo_->lru.back());
    memo_->lru.pop_back();
  }
  memo_->lru.push_front(v);
  memo_->entries.emplace(v, std::make_pair(owner, memo_->lru.begin()));
}

void LocalMembershipOracle::ClearMemo() const {
  std::lock_guard<std::mutex> lock(memo_->mu);
  memo_->entries.clear();
  memo_->lru.clear();
}

std::size_t LocalMembershipOracle::memo_entries() const {
  std::lock_guard<std::mutex> lock(memo_->mu);
  return memo_->entries.size();
}

RunOutcome LocalMembershipOracle::ResolveOwner(std::size_t v,
                                               const RunContext& run,
                                               QueryStats* stats,
                                               std::size_t* owner) const {
  if (MemoLookup(v, owner)) {
    ++stats->memo_hits;
    return RunOutcome::kConverged;
  }
  // One frame per in-flight adjudication: walk candidates w = perm_[r]
  // for r in [0, limit) and stop at the first *pivot* within the join
  // threshold; reaching limit makes x a pivot. Descending to adjudicate
  // a candidate pushes a frame with a strictly smaller rank, so the
  // chain is acyclic and at most rank(v) deep.
  struct Frame {
    std::size_t x;      // object being adjudicated (simulation space)
    std::size_t limit;  // rank_[x]: candidates strictly before x
    std::size_t r;      // next candidate rank to examine
  };
  std::vector<Frame> stack;
  stack.push_back({v, rank_[v], 0});
  ++stats->inspections;
  stats->chain_depth = std::max<std::uint64_t>(stats->chain_depth, 1);
  const double threshold = options_.join_threshold;
  // Adjudications completed during *this* walk. The shared LRU memo is
  // an optimization only — it may be disabled or evict at any moment —
  // so a parent frame must never depend on finding its child's answer
  // there: without this walk-local map the parent would re-push the
  // resolved child forever.
  std::unordered_map<std::size_t, std::size_t> walk;
  std::uint64_t steps = 0;
  for (;;) {
    Frame& f = stack.back();
    bool descended = false;
    while (f.r < f.limit) {
      run.ChargeIterations(1);
      if ((++steps % kPollInterval) == 0) {
        if (RunOutcome o = run.Poll(); o != RunOutcome::kConverged) {
          return o;
        }
      }
      const std::size_t w = perm_[f.r];
      ++stats->distance_queries;
      if (!(source_->distance(w, f.x) < threshold)) {
        ++f.r;  // w can never own f.x, pivot or not
        continue;
      }
      std::size_t owner_w;
      if (auto it = walk.find(w); it != walk.end()) {
        owner_w = it->second;
      } else if (MemoLookup(w, &owner_w)) {
        ++stats->memo_hits;
      } else {
        // w's pivot status is unknown: adjudicate it first. On return
        // the walk map answers for w and this frame re-examines rank
        // f.r.
        stack.push_back({w, rank_[w], 0});
        ++stats->inspections;
        stats->chain_depth =
            std::max<std::uint64_t>(stats->chain_depth, stack.size());
        descended = true;
        break;
      }
      if (owner_w == w) break;  // captured: w is a pivot
      ++f.r;                    // w was itself captured earlier; skip
    }
    if (descended) continue;
    // Frame resolved: captured at rank f.r, or walked off the end and
    // f.x is a pivot.
    const std::size_t resolved =
        f.r < f.limit ? perm_[f.r] : f.x;
    walk.emplace(f.x, resolved);
    MemoInsert(f.x, resolved);
    if (stack.size() == 1) {
      *owner = resolved;
      return RunOutcome::kConverged;
    }
    stack.pop_back();
  }
}

MembershipAnswer LocalMembershipOracle::QuerySim(
    std::size_t sim_v, std::size_t query_object,
    const RunContext& run) const {
  Telemetry* telemetry = run.telemetry();
  MembershipAnswer answer;
  QueryStats stats;
  std::size_t owner = sim_v;
  const std::uint64_t start_nanos =
      telemetry != nullptr ? telemetry->clock().NowNanos() : 0;
  answer.outcome = ResolveOwner(sim_v, run, &stats, &owner);
  answer.pivot_inspections = stats.inspections;
  answer.chain_depth = stats.chain_depth;
  answer.distance_queries = stats.distance_queries;
  answer.memo_hits = stats.memo_hits;
  if (answer.outcome == RunOutcome::kConverged) {
    // Map the owning pivot back to query space: the representative's
    // global object id under folding, the object itself otherwise.
    answer.pivot = folded() ? rep_object_[owner] : owner;
  } else {
    // Budget fired mid-chain: degrade to the tagged best-so-far
    // placement — the singleton an interrupted global pass would leave
    // the object in (docs/robustness.md degradation contract).
    answer.pivot = query_object;
    TelemetryCount(telemetry, "local.interrupted_queries");
  }
  TelemetryCount(telemetry, "local.queries");
  TelemetryCount(telemetry, "local.pivot_inspections",
                 stats.inspections);
  TelemetryCount(telemetry, "local.distance_queries",
                 stats.distance_queries);
  TelemetryCount(telemetry, "local.memo_hits", stats.memo_hits);
  TelemetryObserve(telemetry, "local.chain_depth", stats.chain_depth);
  if (telemetry != nullptr) {
    telemetry->histogram("local.query_nanos")
        ->Observe(telemetry->clock().NowNanos() - start_nanos);
  }
  return answer;
}

Result<MembershipAnswer> LocalMembershipOracle::ClusterOf(
    std::size_t u, const RunContext& run) const {
  if (u >= size()) {
    return Status::InvalidArgument(
        "object id " + std::to_string(u) + " out of range [0, " +
        std::to_string(size()) + ")");
  }
  const std::size_t sim_v = folded() ? sig_of_[u] : u;
  return QuerySim(sim_v, u, run);
}

Result<SameClusterAnswer> LocalMembershipOracle::SameCluster(
    std::size_t u, std::size_t v, const RunContext& run) const {
  Result<MembershipAnswer> a = ClusterOf(u, run);
  if (!a.ok()) return a.status();
  Result<MembershipAnswer> b = ClusterOf(v, run);
  if (!b.ok()) return b.status();
  SameClusterAnswer answer;
  answer.pivot_u = a->pivot;
  answer.pivot_v = b->pivot;
  answer.outcome = MergeOutcomes(a->outcome, b->outcome);
  answer.same = a->pivot == b->pivot;
  return answer;
}

Result<Clustering> LocalMembershipOracle::MaterializeLabels(
    const RunContext& run) const {
  Telemetry* telemetry = run.telemetry();
  InstrumentedSpan span(telemetry, "local.materialize");
  const std::size_t n = size();
  std::vector<Clustering::Label> labels(n, Clustering::kMissing);
  std::unordered_map<std::size_t, Clustering::Label> label_of_pivot;
  Clustering::Label next = 0;
  for (std::size_t u = 0; u < n; ++u) {
    Result<MembershipAnswer> answer = ClusterOf(u, run);
    if (!answer.ok()) return answer.status();
    if (answer->outcome != RunOutcome::kConverged) {
      // Interrupted queries are fresh singletons — never shared, even
      // if the object later turns out to pivot for someone else; this
      // mirrors the singleton sweep of an interrupted global pass and
      // keeps the sweep a valid partition.
      labels[u] = next++;
      continue;
    }
    auto [it, inserted] = label_of_pivot.try_emplace(answer->pivot, next);
    if (inserted) ++next;
    labels[u] = it->second;
  }
  // Labels are assigned in first-appearance object order already, so
  // the result is normalized by construction; Normalized() also heals
  // the interrupted-singleton case.
  return Clustering(std::move(labels)).Normalized();
}

}  // namespace clustagg
