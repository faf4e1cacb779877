// The three batch workloads: one client thread making back-to-back
// Aggregate calls over a fixed job mix on generated inputs.
//
//   mushrooms-dense  MakeMushroomsLike, fold off, dense, 1 thread:
//                    BALLS(0.4)+refine, AGGLOMERATIVE, CC-PIVOT.
//   census-fold      MakeCensusLike, fold on, dense, N threads:
//                    BALLS(0.4)+refine, AGGLOMERATIVE,
//                    AGGLOMERATIVE with shard auto, LOCALSEARCH.
//   gaussian-1m      Fig 5 data (5 Gaussians + 20% noise, ~10^6 points,
//                    k-means k = 2..10), N threads:
//                    SAMPLING(1000)+AGGLOMERATIVE,
//                    SAMPLING(1000)+BALLS(0.4) on the lazy backend,
//                    fold+BALLS(0.4), fold+AGGLOMERATIVE.
//
// The untraced run times Aggregate itself. The traced run replays every
// job twice — Aggregate, then the same pipeline written out as public
// calls with a span around each layer — and requires both to agree bit
// for bit.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clustagg/clustagg.h"
#include "common/stopwatch.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace clustagg;

template <typename T>
T Take(Result<T> result, const std::string& what) {
  if (!result.ok()) SetupFailed(what, result.status().ToString());
  return std::move(result).value();
}

struct Job {
  std::string name;
  AggregatorOptions options;
};

/// One generated input plus the facts set-up derives from it.
struct BatchInput {
  std::optional<ClusteringSet> input;
  /// The paper's bound sum_{u<v} W * min(X, 1 - X) (W = total weight),
  /// on the folded weighted instance where the workload folds.
  double lower_bound = 0.0;
  std::size_t missing_cells = 0;
  /// Distinct signatures s (n when the workload does not fold).
  std::size_t signatures = 0;
};

std::size_t CountMissing(const ClusteringSet& input) {
  std::size_t missing = 0;
  for (const Clustering& c : input.clusterings()) {
    for (Clustering::Label label : c.labels()) {
      if (label == Clustering::kMissing) ++missing;
    }
  }
  return missing;
}

/// Lower bound straight from the n x n instance (one dense matrix, freed
/// on return).
double DirectLowerBound(const ClusteringSet& input, std::size_t threads) {
  DistanceSourceOptions dense;
  dense.num_threads = threads;
  const CorrelationInstance instance = Take(
      CorrelationInstance::Build(input, {}, dense), "lower-bound instance");
  return instance.LowerBound() * input.total_weight();
}

/// Lower bound on the folded weighted instance: exact, because duplicate
/// signatures contribute min(0, 1) = 0 and every cross pair is weighted
/// by the product of multiplicities.
double FoldedLowerBound(const ClusteringSet& input, std::size_t threads,
                        std::size_t* signatures) {
  const SignatureIndex index = SignatureIndex::Build(input);
  *signatures = index.num_signatures();
  DistanceSourceOptions dense;
  dense.num_threads = threads;
  std::shared_ptr<const DistanceSource> source =
      Take(BuildDistanceSourceSubset(input, index.representatives(), {}, dense),
           "folded lower-bound instance");
  const CorrelationInstance instance = CorrelationInstance::FromSource(
      std::move(source), threads, index.multiplicities());
  return instance.LowerBound() * input.total_weight();
}

ClusteringSet CategoricalInput(Result<SyntheticCategoricalData> data,
                               const std::string& what) {
  SyntheticCategoricalData table = Take(std::move(data), what);
  return Take(AttributeClusterings(table.table), what + " clusterings");
}

BatchInput SetupMushrooms(std::uint64_t seed, std::size_t threads) {
  BatchInput out;
  out.input = CategoricalInput(MakeMushroomsLike(seed), "mushrooms");
  out.missing_cells = CountMissing(*out.input);
  out.signatures = out.input->num_objects();
  out.lower_bound = DirectLowerBound(*out.input, threads);
  return out;
}

BatchInput SetupCensus(std::uint64_t seed, std::size_t threads) {
  BatchInput out;
  out.input = CategoricalInput(MakeCensusLike(seed), "census");
  out.missing_cells = CountMissing(*out.input);
  out.lower_bound = FoldedLowerBound(*out.input, threads, &out.signatures);
  return out;
}

/// The paper's Fig 5 recipe: 5 Gaussian clouds plus 20% uniform noise,
/// ~10^6 points, clustered by k-means for k = 2..10 (Lloyd capped at 25
/// iterations, k-means++ seed 1000 + k). The nine k-means runs are
/// independent and run on `threads` set-up threads.
BatchInput SetupGaussian(std::uint64_t seed, std::size_t threads) {
  GaussianMixtureOptions gen;
  gen.num_clusters = 5;
  gen.points_per_cluster = 1000000 / 6;
  gen.noise_fraction = 0.2;
  gen.seed = seed;
  const Dataset2D data = Take(GenerateGaussianMixture(gen), "gaussians");

  constexpr std::size_t kMinK = 2;
  constexpr std::size_t kMaxK = 10;
  std::vector<std::optional<Result<KMeansResult>>> runs(kMaxK - kMinK + 1);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < runs.size(); i = next++) {
      KMeansOptions options;
      options.k = kMinK + i;
      options.seed = 1000 + options.k;
      options.max_iterations = 25;
      runs[i].emplace(KMeans(data.points, options));
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(threads, runs.size()); ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) t.join();

  std::vector<Clustering> clusterings;
  for (std::optional<Result<KMeansResult>>& run : runs) {
    clusterings.push_back(Take(std::move(*run), "k-means").clustering);
  }
  BatchInput out;
  out.input = Take(ClusteringSet::Create(std::move(clusterings)), "gaussians");
  out.lower_bound = FoldedLowerBound(*out.input, threads, &out.signatures);
  return out;
}

AggregatorOptions Options(AggregationAlgorithm algorithm, std::size_t threads,
                          bool fold) {
  AggregatorOptions options;
  options.algorithm = algorithm;
  options.balls.alpha = 0.4;
  options.backend = DistanceBackend::kDense;
  options.num_threads = threads;
  options.fold = fold;
  return options;
}

std::vector<Job> MushroomsJobs() {
  constexpr std::size_t kThreads = 1;
  Job balls{"balls_refine", Options(AggregationAlgorithm::kBalls, kThreads,
                                    /*fold=*/false)};
  balls.options.refine_with_local_search = true;
  return {balls,
          {"agglomerative",
           Options(AggregationAlgorithm::kAgglomerative, kThreads, false)},
          {"pivot", Options(AggregationAlgorithm::kPivot, kThreads, false)}};
}

std::vector<Job> CensusJobs(std::size_t threads) {
  Job balls{"balls_refine",
            Options(AggregationAlgorithm::kBalls, threads, /*fold=*/true)};
  balls.options.refine_with_local_search = true;
  Job shard{"agglomerative_shard",
            Options(AggregationAlgorithm::kAgglomerative, threads, true)};
  shard.options.shard.mode = ShardingMode::kAuto;
  return {balls,
          {"agglomerative",
           Options(AggregationAlgorithm::kAgglomerative, threads, true)},
          shard,
          {"localsearch",
           Options(AggregationAlgorithm::kLocalSearch, threads, true)}};
}

std::vector<Job> GaussianJobs(std::size_t threads) {
  Job sample_agglo{"sampling_agglomerative",
                   Options(AggregationAlgorithm::kAgglomerative, threads,
                           /*fold=*/false)};
  sample_agglo.options.sampling_size = 1000;
  Job sample_balls{"sampling_balls_lazy",
                   Options(AggregationAlgorithm::kBalls, threads, false)};
  sample_balls.options.sampling_size = 1000;
  sample_balls.options.backend = DistanceBackend::kLazy;
  return {sample_agglo, sample_balls,
          {"fold_balls", Options(AggregationAlgorithm::kBalls, threads, true)},
          {"fold_agglomerative",
           Options(AggregationAlgorithm::kAgglomerative, threads, true)}};
}

struct WorkloadSpec {
  BatchInput (*setup)(std::uint64_t seed, std::size_t threads);
  std::vector<Job> jobs;
  /// Inputs drawn per run. The generators flip a per-seed coin for each
  /// attribute's informativeness (and k-means lands differently per
  /// seed), which moves one input's cost by up to 2.7x on census-fold;
  /// a run cycles over several inputs so its figures do not hinge on one
  /// flip.
  std::size_t inputs = 1;
};

WorkloadSpec SpecFor(const std::string& name, std::size_t threads) {
  if (name == "mushrooms-dense") return {SetupMushrooms, MushroomsJobs(), 3};
  if (name == "census-fold") return {SetupCensus, CensusJobs(threads), 4};
  return {SetupGaussian, GaussianJobs(threads), 2};
}

/// Generator seed of a run's k-th input; input 0 uses the workload seed
/// itself.
std::uint64_t InputSeed(std::uint64_t seed, std::size_t k) {
  return seed + 0x9e3779b97f4a7c15ull * k;
}

/// Set-ups per untraced run: one per input, and at least three, so that
/// setup_s is a median.
constexpr std::size_t kMinSetups = 3;

// ---------------------------------------------------------------------
// The traced pipeline: Aggregate written out as public calls.

/// Per-run accumulators for the counts the traced jobs expose.
struct LayerCounts {
  double fold_ratio_sum = 0.0;
  std::size_t folds = 0;
  double pairs = 0.0;
  double bytes = 0.0;
  double refine_gain_sum = 0.0;
  std::size_t refines = 0;
  double singleton_ratio_sum = 0.0;
  std::size_t samplings = 0;
  double sample_s = 0.0;
  double assign_s = 0.0;
  double recluster_s = 0.0;
  double shard_components = 0.0;
  double shard_count = 0.0;
  double shard_cut_edges = 0.0;
  double shard_stitch_bound = 0.0;
  double shard_decompose_s = 0.0;
  std::size_t shard_probes = 0;
};

struct TracedOutput {
  AggregationResult result;
  /// The clusterer's output before LOCALSEARCH refinement, in object
  /// space (empty when the job does not refine).
  std::optional<Clustering> pre_refine;
};

Result<TracedOutput> TracedPipeline(const ClusteringSet& input,
                                    const AggregatorOptions& options,
                                    Tracer& tracer, LayerCounts* counts) {
  TracedOutput out;
  AggregationResult& result = out.result;
  const RunContext run;
  if (ShardingRequested(options.shard) && options.sampling_size == 0) {
    ScopedSpan span(tracer, "shard");
    Result<AggregationResult> sharded = ShardedAggregate(input, options);
    if (!sharded.ok()) return sharded.status();
    result = std::move(sharded).value();
    return out;
  }

  Result<std::unique_ptr<CorrelationClusterer>> clusterer =
      MakeClusterer(options);
  if (!clusterer.ok()) return clusterer.status();

  Clustering clustering;
  if (options.sampling_size > 0) {
    SamplingStats stats;
    Result<ClustererRun> sampled = [&] {
      ScopedSpan span(tracer, "sampling");
      SamplingOptions sampling = options.sampling;
      sampling.sample_size = options.sampling_size;
      sampling.missing = options.missing;
      sampling.source.backend = options.backend;
      sampling.source.num_threads = options.num_threads;
      sampling.fold = options.fold;
      return SamplingAggregateControlled(input, **clusterer, run, sampling,
                                         &stats);
    }();
    if (!sampled.ok()) return sampled.status();
    result.outcome = sampled->outcome;
    clustering = std::move(sampled->clustering);
    counts->samplings += 1;
    counts->sample_s += stats.sample_phase_seconds;
    counts->assign_s += stats.assign_phase_seconds;
    counts->recluster_s += stats.recluster_phase_seconds;
    counts->singleton_ratio_sum +=
        static_cast<double>(stats.singletons_after_assignment) /
        static_cast<double>(input.num_objects());
  } else {
    std::optional<SignatureIndex> fold_index;
    if (options.fold) {
      ScopedSpan span(tracer, "fold_index");
      SignatureIndex signatures = SignatureIndex::Build(input);
      result.fold_signatures = signatures.num_signatures();
      if (!signatures.trivial()) {
        result.folded = true;
        fold_index.emplace(std::move(signatures));
      }
    }
    Clustering unrefined;
    {
      Result<CorrelationInstance> built = [&]() -> Result<CorrelationInstance> {
        ScopedSpan span(tracer, "build_instance");
        const DistanceSourceOptions source{options.backend,
                                           options.num_threads, run};
        Result<CorrelationInstance> instance =
            fold_index ? CorrelationInstance::BuildSubset(
                             input, fold_index->representatives(),
                             options.missing, source)
                       : CorrelationInstance::Build(input, options.missing,
                                                    source);
        if (instance.ok() && fold_index) {
          instance = CorrelationInstance::FromSource(
              instance->shared_source(), options.num_threads,
              fold_index->multiplicities());
        }
        return instance;
      }();
      if (!built.ok()) return built.status();
      const CorrelationInstance& instance = *built;
      if (instance.dense_matrix() != nullptr) {
        const double s = static_cast<double>(instance.size());
        counts->pairs += s * (s - 1.0) / 2.0;
        counts->bytes += s * (s - 1.0) / 2.0 * sizeof(float);
      }
      Result<ClustererRun> clustered = [&] {
        ScopedSpan span(tracer, "cluster");
        return (*clusterer)->RunControlled(instance, run);
      }();
      if (!clustered.ok()) return clustered.status();
      result.outcome = clustered->outcome;
      clustering = std::move(clustered->clustering);
      if (options.refine_with_local_search &&
          options.algorithm != AggregationAlgorithm::kLocalSearch) {
        Result<ClustererRun> refined = [&] {
          ScopedSpan span(tracer, "refine");
          return LocalSearchClusterer(options.local_search)
              .RunFromControlled(instance, clustering, run);
        }();
        if (!refined.ok()) return refined.status();
        result.outcome = MergeOutcomes(result.outcome, refined->outcome);
        unrefined = std::exchange(clustering, std::move(refined->clustering));
      }
    }  // the instance is released before scoring, as in Aggregate
    if (fold_index) {
      ScopedSpan span(tracer, "expand");
      clustering = fold_index->Expand(clustering);
    }
    if (unrefined.size() > 0) {
      out.pre_refine =
          fold_index ? fold_index->Expand(unrefined) : std::move(unrefined);
    }
    if (options.fold) {
      counts->folds += 1;
      counts->fold_ratio_sum += static_cast<double>(result.fold_signatures) /
                                static_cast<double>(input.num_objects());
    }
  }

  Result<double> disagreements = [&] {
    ScopedSpan span(tracer, "score");
    return input.TotalDisagreements(clustering, options.missing);
  }();
  if (!disagreements.ok()) return disagreements.status();
  result.clustering = std::move(clustering);
  result.total_disagreements = *disagreements;
  return out;
}

/// Decomposition of a shard job, measured apart from the job itself: the
/// fold, scan source and agreement-graph plan ShardedAggregate builds
/// internally, rebuilt here to read the plan's counts.
void ProbeShardPlan(const ClusteringSet& input,
                    const AggregatorOptions& options, Tracer& tracer,
                    LayerCounts* counts) {
  ScopedSpan probe(tracer, "shard.probe");
  std::optional<SignatureIndex> fold_index;
  if (options.fold) fold_index.emplace(SignatureIndex::Build(input));
  Result<std::shared_ptr<const LazyDistanceSource>> scan =
      fold_index ? LazyDistanceSource::BuildSubset(
                       input, fold_index->representatives(), options.missing)
                 : LazyDistanceSource::Build(input, options.missing);
  if (!scan.ok()) return;
  const std::vector<double> unit;
  Stopwatch watch;
  Result<ShardPlan> plan = [&] {
    ScopedSpan span(tracer, "shard.decompose");
    return DecomposeAgreementGraph(
        **scan, fold_index ? fold_index->multiplicities() : unit,
        options.shard, options.num_threads);
  }();
  if (!plan.ok()) return;
  counts->shard_decompose_s += watch.ElapsedSeconds();
  counts->shard_probes += 1;
  counts->shard_components += static_cast<double>(plan->num_components);
  counts->shard_count += static_cast<double>(plan->shards.size());
  counts->shard_cut_edges += static_cast<double>(plan->cut_edges);
  counts->shard_stitch_bound += plan->stitch_error_bound;
}

// ---------------------------------------------------------------------
// Output checks (always outside the timed region).

std::uint64_t LabelHash(const Clustering& c) {
  std::uint64_t h = 1469598103934665603ull;
  for (Clustering::Label label : c.labels()) {
    h = (h ^ static_cast<std::uint32_t>(label)) * 1099511628211ull;
  }
  return h;
}

/// First verified result of each job: later runs of the same job on the
/// same input must reproduce it exactly.
struct Reference {
  bool set = false;
  std::uint64_t label_hash = 0;
  double disagreements = 0.0;
};

bool CheckResult(const BatchInput& in, const Result<AggregationResult>& r,
                 Reference* reference, std::string* why) {
  if (!r.ok()) {
    *why = r.status().ToString();
    return false;
  }
  if (r->clustering.size() != in.input->num_objects()) {
    *why = "wrong label count";
    return false;
  }
  if (r->outcome != RunOutcome::kConverged || !r->fallbacks.empty()) {
    *why = std::string("outcome ") + RunOutcomeName(r->outcome);
    return false;
  }
  // The bound is summed from the instance's float distances, each off by
  // at most 2^-24 of itself, so an optimal D (these inputs reach it) can
  // sit that share below it: MakeMushroomsLike(107) gives D = 136732994
  // against a summed bound of 136732994.58.
  if (r->total_disagreements < in.lower_bound * (1.0 - 1e-6)) {
    *why = "D below the lower bound";
    return false;
  }
  const std::uint64_t hash = LabelHash(r->clustering);
  if (!reference->set) {
    Result<double> d = in.input->TotalDisagreements(r->clustering);
    if (!d.ok() || *d != r->total_disagreements) {
      *why = "recomputed D differs";
      return false;
    }
    *reference = {true, hash, r->total_disagreements};
    return true;
  }
  if (hash != reference->label_hash ||
      r->total_disagreements != reference->disagreements) {
    *why = "result differs from the job's first run";
    return false;
  }
  return true;
}

struct JobStats {
  std::vector<double> seconds;
  std::vector<double> traced_seconds;
  double excess_sum = 0.0;
};

}  // namespace

bool IsBatchWorkload(const std::string& name) {
  return name == "mushrooms-dense" || name == "census-fold" ||
         name == "gaussian-1m";
}

RunResult RunBatchWorkload(const RunConfig& config) {
  const WorkloadSpec spec = SpecFor(config.workload, config.threads);

  // Set-up: generate every input and its lower bound (input k % K on
  // the k-th set-up; a repeated set-up replaces the earlier copy).
  const std::size_t num_inputs = spec.inputs;
  const std::size_t num_jobs = spec.jobs.size();
  std::vector<BatchInput> inputs(num_inputs);
  std::vector<double> setup_seconds;
  const std::size_t setups =
      config.trace ? num_inputs : std::max(num_inputs, kMinSetups);
  for (std::size_t i = 0; i < setups; ++i) {
    BatchInput& in = inputs[i % num_inputs];
    in = BatchInput();
    Stopwatch watch;
    in = spec.setup(InputSeed(config.seed, i % num_inputs), config.threads);
    setup_seconds.push_back(watch.ElapsedSeconds());
  }

  RunResult out;
  std::vector<JobStats> stats(num_jobs);
  std::vector<Reference> references(num_inputs * num_jobs);
  std::vector<double> all_seconds;
  std::vector<double> probe_seconds;
  double since_probe = 0.0;
  double timed = 0.0;
  Tracer tracer;
  LayerCounts counts;
  std::uint64_t twin_mismatches = 0;
  double twin_untraced_seconds = 0.0;
  double clusters_sum = 0.0;
  auto fail = [&](const std::string& job, const std::string& why) {
    ++out.failed;
    std::fprintf(stderr, "perfbench: %s/%s failed: %s\n",
                 config.workload.c_str(), job.c_str(), why.c_str());
  };

  // Closed loop, one client: jobs round-robin, one whole job-mix cycle
  // per input in turn, until the timed total reaches the requested
  // seconds and every job ran at least once, on every input in an
  // untraced run (its rate needs each (job, input) kind; traced shares
  // do not).
  const std::uint64_t min_calls =
      config.trace ? num_jobs : num_jobs * num_inputs;
  std::vector<std::vector<double>> seconds_by_kind(num_inputs * num_jobs);
  std::uint64_t calls = 0;
  for (; calls < min_calls || timed < config.seconds; ++calls) {
    const std::size_t j = calls % num_jobs;
    const std::size_t k = (calls / num_jobs) % num_inputs;
    const Job& job = spec.jobs[j];
    const BatchInput& in = inputs[k];
    const ClusteringSet& input = *in.input;
    Stopwatch watch;
    Result<AggregationResult> result = Aggregate(input, job.options);
    const double seconds = watch.ElapsedSeconds();
    timed += seconds;
    ++out.attempted;
    std::string why;
    if (!CheckResult(in, result, &references[k * num_jobs + j], &why)) {
      fail(job.name, why);
      continue;
    }
    stats[j].seconds.push_back(seconds);
    seconds_by_kind[k * num_jobs + j].push_back(seconds);
    all_seconds.push_back(seconds);
    stats[j].excess_sum +=
        (result->total_disagreements - in.lower_bound) / in.lower_bound;
    if (!config.trace) {
      since_probe += seconds;
      if (since_probe >= kProbeEverySeconds) {
        probe_seconds.push_back(HostProbeSeconds());
        since_probe = 0.0;
      }
      continue;
    }

    // Traced twin of the same job.
    tracer.SetJob(calls);
    if (ShardingRequested(job.options.shard)) {
      ProbeShardPlan(input, job.options, tracer, &counts);
    }
    const int root = tracer.Begin("aggregate");
    Result<TracedOutput> traced =
        TracedPipeline(input, job.options, tracer, &counts);
    tracer.End(root);
    const double traced_seconds =
        tracer.spans()[static_cast<std::size_t>(root)].duration();
    timed += traced_seconds;
    twin_untraced_seconds += seconds;
    ++out.attempted;
    if (!traced.ok()) {
      fail(job.name + "/traced", traced.status().ToString());
      continue;
    }
    const AggregationResult& twin = traced->result;
    if (twin.clustering.labels() != result->clustering.labels() ||
        twin.total_disagreements != result->total_disagreements ||
        twin.outcome != result->outcome) {
      ++twin_mismatches;
      fail(job.name + "/traced", "traced result differs from Aggregate");
      continue;
    }
    stats[j].traced_seconds.push_back(traced_seconds);
    clusters_sum += static_cast<double>(twin.clustering.NumClusters());
    if (traced->pre_refine) {
      Result<double> before = input.TotalDisagreements(*traced->pre_refine);
      if (before.ok() && *before > 0.0) {
        counts.refine_gain_sum +=
            (*before - twin.total_disagreements) / *before;
        counts.refines += 1;
      }
    }
  }
  const double peak_rss = PeakRssMb();
  out.correct = out.failed == 0;

  // Per-job breakdown for the detail line.
  Json jobs;
  double excess_sum = 0.0;
  std::size_t ok_calls = 0;
  for (std::size_t j = 0; j < num_jobs; ++j) {
    Json job;
    job.Int("calls", stats[j].seconds.size())
        .Num("solve_s.p50", Median(stats[j].seconds))
        .Arr("solve_s", stats[j].seconds)
        .Num("cost_excess",
             Ratio(stats[j].excess_sum,
                   static_cast<double>(stats[j].seconds.size())));
    if (config.trace) {
      job.Num("traced_s.p50", Median(stats[j].traced_seconds));
    }
    jobs.Obj(spec.jobs[j].name, job);
    excess_sum += stats[j].excess_sum;
    ok_calls += stats[j].seconds.size();
  }
  const double cost_excess = Ratio(excess_sum, static_cast<double>(ok_calls));
  const auto [tail_pct, tail_value] = TailPercentile(all_seconds);
  double untraced_seconds = 0.0;
  for (double s : all_seconds) untraced_seconds += s;

  Json shape;
  for (std::size_t k = 0; k < num_inputs; ++k) {
    const BatchInput& in = inputs[k];
    Json one;
    one.Int("seed", InputSeed(config.seed, k))
        .Int("n", in.input->num_objects())
        .Int("m", in.input->num_clusterings())
        .Int("s", in.signatures)
        .Int("missing_cells", in.missing_cells)
        .Num("lower_bound", in.lower_bound);
    Json d;
    for (std::size_t j = 0; j < num_jobs; ++j) {
      d.Num(spec.jobs[j].name, references[k * num_jobs + j].disagreements);
    }
    one.Obj("D", d);
    shape.Obj(std::to_string(k), one);
  }
  Json detail;
  detail.Str("workload", config.workload)
      .Int("seed", config.seed)
      .Int("trace", config.trace ? 1 : 0)
      .Obj("host", HostJson(config.threads))
      .Obj("inputs", shape)
      .Str("loop", "closed, 1 client")
      .Int("calls", all_seconds.size())
      .Num("solves_per_s",
           Ratio(static_cast<double>(all_seconds.size()), untraced_seconds))
      .Num("solve_s.p50", Median(all_seconds))
      .Num("solve_s.tail", tail_value)
      .Num("solve_s.tail_percentile", tail_pct)
      .Num("cost_excess", cost_excess)
      .Num("peak_rss_mb", peak_rss)
      .Obj("jobs", jobs);

  if (!config.trace) {
    out.metrics = EndToEndMetrics(seconds_by_kind, peak_rss, setup_seconds,
                                  probe_seconds, &detail);
    out.detail = detail.ToString();
    return out;
  }

  LayerReport layers;
  layers.trace = tracer.Summarize("aggregate");
  layers.untraced_seconds = twin_untraced_seconds;
  const double ops =
      std::max<double>(1.0, static_cast<double>(layers.trace.roots));
  if (counts.folds > 0) {
    layers.fold_ratio =
        counts.fold_ratio_sum / static_cast<double>(counts.folds);
  }
  layers.build_pairs = counts.pairs / ops;
  layers.build_bytes = counts.bytes / ops;
  layers.refine_gain = Ratio(counts.refine_gain_sum,
                             static_cast<double>(counts.refines));
  layers.singleton_ratio = Ratio(counts.singleton_ratio_sum,
                                 static_cast<double>(counts.samplings));
  layers.shard_cut_edges = Ratio(counts.shard_cut_edges,
                                 static_cast<double>(counts.shard_probes));
  layers.cost_excess = cost_excess;
  out.metrics = LayerMetrics(layers);

  // Absolute per-layer seconds per traced call, and the layer details
  // that only some workloads have.
  Json layer_seconds;
  for (const auto& [name, seconds] : layers.trace.self_seconds) {
    layer_seconds.Num(name, seconds / ops);
  }
  Json per_algorithm;
  {
    // cluster.<algo>.s: cluster span self time grouped by job.
    const std::vector<double> self = tracer.SelfTimes();
    std::vector<double> sums(num_jobs, 0.0);
    std::vector<std::size_t> n(num_jobs, 0);
    for (std::size_t k = 0; k < tracer.spans().size(); ++k) {
      const Span& span = tracer.spans()[k];
      if (span.name != "cluster") continue;
      const std::size_t j = span.job % num_jobs;
      sums[j] += self[k];
      n[j] += 1;
    }
    for (std::size_t j = 0; j < num_jobs; ++j) {
      if (n[j] > 0) {
        per_algorithm.Num(spec.jobs[j].name,
                          sums[j] / static_cast<double>(n[j]));
      }
    }
  }
  Json layer_detail;
  layer_detail.Obj("self_s_per_call", layer_seconds)
      .Obj("cluster_s_by_job", per_algorithm)
      .Num("build_instance.ns_per_pair",
           1e9 * Ratio(layers.trace.self_seconds["build_instance"],
                       counts.pairs))
      .Num("score.ns_per_object",
           1e9 * layers.trace.self_seconds["score"] / ops /
               static_cast<double>(inputs[0].input->num_objects()))
      .Num("cluster.clusters", clusters_sum / ops)
      .Int("twin_mismatches", twin_mismatches);
  if (counts.samplings > 0) {
    const double k = static_cast<double>(counts.samplings);
    layer_detail.Num("sampling.sample_s", counts.sample_s / k)
        .Num("sampling.assign_s", counts.assign_s / k)
        .Num("sampling.recluster_s", counts.recluster_s / k);
  }
  if (counts.shard_probes > 0) {
    const double k = static_cast<double>(counts.shard_probes);
    layer_detail.Num("shard.decompose_s", counts.shard_decompose_s / k)
        .Num("shard.components", counts.shard_components / k)
        .Num("shard.count", counts.shard_count / k)
        .Num("shard.stitch_error_bound", counts.shard_stitch_bound / k);
  }
  detail.Obj("layers", layer_detail);
  out.detail = detail.ToString();
  if (!config.spans_path.empty()) tracer.WriteJsonLines(config.spans_path);
  return out;
}

}  // namespace perfbench
