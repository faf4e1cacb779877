// stream-serve: writes and reads against one evolving input.
//
// Writes go through a StreamAggregator (window 8, warm LOCALSEARCH
// repair, BALLS(0.4) rebuild). It starts from 3000 objects x 8 noisy
// views of 20 planted clusters with 3% of labels missing; set-up ingests
// them and runs the first Flush. Then a fixed schedule of batches follows.
// One round, the closed loop's operation, is:
//   20 events (18 AddObject, 2 AddClustering, which evicts the oldest
//   view) -> Flush -> CurrentInput -> LocalMembershipOracle -> 2000
//   queries (80% ClusterOf, 20% SameCluster, uniform objects).
// A pass is set-up plus the fixed schedule; passes repeat until the timed
// rounds reach the requested seconds. Every pass replays the same events,
// so rounds are comparable across passes and runs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clustagg/clustagg.h"
#include "common/stopwatch.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace clustagg;

constexpr std::size_t kInitialObjects = 3000;
constexpr std::size_t kViews = 8;
constexpr std::size_t kPlantedClusters = 20;
constexpr double kMissingFraction = 0.03;
constexpr std::size_t kBatches = 20;
constexpr std::size_t kEventsPerBatch = 20;
constexpr std::size_t kClusteringsPerBatch = 2;
constexpr std::size_t kQueries = 2000;
constexpr std::size_t kSameClusterPercent = 20;
constexpr std::size_t kCheckedPairs = 2000;
constexpr std::size_t kCheckedObjects = 500;

/// Every label the stream will ever see: column a, row r is the label
/// view a gives object r. Views 0..7 seed the stream; later views arrive
/// as AddClustering events, later rows as AddObject events.
struct StreamTable {
  std::vector<std::vector<Clustering::Label>> columns;
  std::size_t missing_cells = 0;
};

StreamTable MakeTable(std::uint64_t seed) {
  const std::size_t added_objects =
      kBatches * (kEventsPerBatch - kClusteringsPerBatch);
  const std::size_t views = kViews + kBatches * kClusteringsPerBatch;
  SyntheticCategoricalOptions options;
  options.num_rows = kInitialObjects + added_objects;
  options.cardinalities.assign(views, kPlantedClusters);
  options.num_latent_groups = kPlantedClusters;
  options.attribute_noise = 0.1;
  options.missing_cells = static_cast<std::size_t>(
      kMissingFraction * static_cast<double>(options.num_rows * views));
  options.seed = seed;
  Result<SyntheticCategoricalData> data = GenerateCategorical(options);
  if (!data.ok()) SetupFailed("stream table", data.status().ToString());
  Result<ClusteringSet> set = AttributeClusterings(data->table);
  if (!set.ok()) SetupFailed("stream views", set.status().ToString());
  StreamTable table;
  for (const Clustering& c : set->clusterings()) {
    table.columns.push_back(c.labels());
    for (Clustering::Label label : c.labels()) {
      if (label == Clustering::kMissing) ++table.missing_cells;
    }
  }
  return table;
}

/// The fixed event schedule: per batch, which of the 20 slots carry the
/// two AddClustering events.
std::vector<std::vector<bool>> MakeSchedule(std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::vector<bool>> schedule(kBatches);
  for (std::vector<bool>& batch : schedule) {
    batch.assign(kEventsPerBatch, false);
    for (std::size_t slot :
         rng.SampleWithoutReplacement(kEventsPerBatch, kClusteringsPerBatch)) {
      batch[slot] = true;
    }
  }
  return schedule;
}

struct Query {
  bool same_cluster = false;
  std::size_t u = 0;
  std::size_t v = 0;
};

std::vector<Query> MakeQueries(Rng& rng, std::size_t n) {
  std::vector<Query> queries(kQueries);
  for (Query& q : queries) {
    q.same_cluster = rng.NextBounded(100) < kSameClusterPercent;
    q.u = rng.NextBounded(n);
    q.v = rng.NextBounded(n);
  }
  return queries;
}

/// One stream plus the client-side cursor into the table.
class StreamClient {
 public:
  StreamClient(const StreamTable& table, std::size_t threads)
      : table_(table), stream_(Options(threads)) {}

  /// Ingests the seed views and runs the first Flush (set-up).
  Status Start() {
    for (std::size_t a = 0; a < kViews; ++a) {
      AddClusteringEvent event;
      event.labels.assign(table_.columns[a].begin(),
                          table_.columns[a].begin() + kInitialObjects);
      Status status = stream_.Ingest(std::move(event));
      if (!status.ok()) return status;
      alive_.push_back(a);
    }
    objects_ = kInitialObjects;
    next_view_ = kViews;
    Result<StreamFlushReport> report = stream_.Flush();
    if (!report.ok()) return report.status();
    return Status::OK();
  }

  /// Ingests one scheduled batch.
  Status IngestBatch(const std::vector<bool>& batch) {
    for (bool add_clustering : batch) {
      Status status = add_clustering ? AddView() : AddObject();
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

  StreamAggregator& stream() { return stream_; }

 private:
  static StreamAggregatorOptions Options(std::size_t threads) {
    StreamAggregatorOptions options;
    options.num_threads = threads;
    options.window = kViews;
    options.rebuild.algorithm = AggregationAlgorithm::kBalls;
    options.rebuild.balls.alpha = 0.4;
    return options;
  }

  Status AddView() {
    const std::vector<Clustering::Label>& column = table_.columns[next_view_];
    AddClusteringEvent event;
    event.labels.assign(column.begin(), column.begin() + objects_);
    // The window evicts the oldest view when this one applies.
    alive_.erase(alive_.begin());
    alive_.push_back(next_view_++);
    return stream_.Ingest(std::move(event));
  }

  Status AddObject() {
    AddObjectEvent event;
    for (std::size_t a : alive_) {
      event.labels.push_back(table_.columns[a][objects_]);
    }
    ++objects_;
    return stream_.Ingest(std::move(event));
  }

  const StreamTable& table_;
  StreamAggregator stream_;
  std::vector<std::size_t> alive_;
  std::size_t objects_ = 0;
  std::size_t next_view_ = 0;
};

/// What one round produced, for the traced-twin comparison.
struct RoundOutput {
  double flush_cost = 0.0;
  std::vector<Clustering::Label> labels;
  std::vector<std::size_t> answers;
};

/// Per-run accumulators.
struct StreamStats {
  std::vector<double> round_s;
  std::vector<double> flush_s;
  std::vector<double> query_s;
  double ingest_s = 0.0;
  double current_input_s = 0.0;
  double oracle_build_s = 0.0;
  double query_phase_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t flushes = 0;
  std::uint64_t repaired = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t evictions = 0;
  double pairs_touched = 0.0;
  std::uint64_t cluster_of = 0;
  double distance_queries = 0.0;
  double memo_hits = 0.0;
  double inspections = 0.0;
  std::vector<double> chain_depth;
};

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs one round on `client`. With a tracer, each phase gets a span
/// under a "round" root. Returns false (and says why) on a failed call
/// or check.
bool RunRound(StreamClient& client, const std::vector<bool>& batch,
              Rng& query_rng, Tracer* tracer, StreamStats* stats,
              RoundOutput* output, std::string* why) {
  auto begin = [&](const char* name) {
    return tracer != nullptr ? tracer->Begin(name) : -1;
  };
  auto end = [&](int span) {
    if (tracer != nullptr) tracer->End(span);
  };
  StreamAggregator& stream = client.stream();
  const Clock::time_point round_start = Clock::now();
  const int root = begin("round");

  Clock::time_point t = Clock::now();
  int span = begin("stream.ingest");
  Status ingested = client.IngestBatch(batch);
  end(span);
  stats->ingest_s += Since(t);
  if (!ingested.ok()) {
    end(root);
    *why = ingested.ToString();
    return false;
  }

  t = Clock::now();
  span = begin("stream.flush");
  Result<StreamFlushReport> report = stream.Flush();
  end(span);
  stats->flush_s.push_back(Since(t));

  t = Clock::now();
  span = begin("stream.current_input");
  Result<ClusteringSet> input = stream.CurrentInput();
  end(span);
  stats->current_input_s += Since(t);

  std::optional<LocalMembershipOracle> oracle;
  if (input.ok()) {
    t = Clock::now();
    span = begin("local.build");
    Result<LocalMembershipOracle> built =
        LocalMembershipOracle::FromClusterings(*input);
    end(span);
    stats->oracle_build_s += Since(t);
    if (built.ok()) oracle.emplace(std::move(built).value());
  }

  const std::size_t n = stream.num_objects();
  const std::vector<Query> queries = MakeQueries(query_rng, n);
  std::vector<std::size_t> answers;
  answers.reserve(queries.size());
  bool queries_ok = oracle.has_value();
  if (oracle) {
    const Clock::time_point phase = Clock::now();
    span = begin("local.query");
    for (const Query& q : queries) {
      const Clock::time_point qt = Clock::now();
      if (q.same_cluster) {
        Result<SameClusterAnswer> a = oracle->SameCluster(q.u, q.v);
        stats->query_s.push_back(Since(qt));
        if (!a.ok() || a->outcome != RunOutcome::kConverged ||
            a->same != (a->pivot_u == a->pivot_v)) {
          queries_ok = false;
          continue;
        }
        answers.push_back(a->pivot_u);
        answers.push_back(a->pivot_v);
      } else {
        Result<MembershipAnswer> a = oracle->ClusterOf(q.u);
        stats->query_s.push_back(Since(qt));
        if (!a.ok() || a->outcome != RunOutcome::kConverged) {
          queries_ok = false;
          continue;
        }
        answers.push_back(a->pivot);
        stats->cluster_of += 1;
        stats->distance_queries += static_cast<double>(a->distance_queries);
        stats->memo_hits += static_cast<double>(a->memo_hits);
        stats->inspections += static_cast<double>(a->pivot_inspections);
        stats->chain_depth.push_back(static_cast<double>(a->chain_depth));
      }
    }
    end(span);
    stats->query_phase_s += Since(phase);
  }
  end(root);
  stats->round_s.push_back(Since(round_start));

  // Checks, outside the timed round.
  if (!report.ok()) {
    *why = report.status().ToString();
    return false;
  }
  stats->events += report->events_applied;
  stats->flushes += 1;
  stats->repaired += report->repaired ? 1 : 0;
  stats->rebuilds += report->rebuilt ? 1 : 0;
  stats->evictions += report->evictions;
  stats->pairs_touched += static_cast<double>(report->pairs_touched);
  if (report->outcome != RunOutcome::kConverged ||
      report->events_applied != batch.size()) {
    *why = "flush did not apply the whole batch";
    return false;
  }
  if (!input.ok() || !oracle) {
    *why = "no input or oracle after flush";
    return false;
  }
  if (stream.labels().size() != n || input->num_objects() != n) {
    *why = "wrong label count";
    return false;
  }
  if (!queries_ok) {
    *why = "a membership query failed";
    return false;
  }
  output->flush_cost = report->cost;
  output->labels = stream.labels().labels();
  output->answers = std::move(answers);
  return true;
}

/// End-of-pass checks of two bit-identities the library documents:
/// maintained distances equal a from-scratch build over CurrentInput(),
/// and oracle answers equal a global CC-PIVOT run with one repetition
/// and the oracle's seed.
bool CheckPass(StreamAggregator& stream, std::uint64_t seed,
               std::string* why) {
  Result<ClusteringSet> input = stream.CurrentInput();
  if (!input.ok()) {
    *why = input.status().ToString();
    return false;
  }
  DistanceSourceOptions lazy;
  lazy.backend = DistanceBackend::kLazy;
  Result<CorrelationInstance> instance =
      CorrelationInstance::Build(*input, {}, lazy);
  if (!instance.ok()) {
    *why = instance.status().ToString();
    return false;
  }
  const std::size_t n = stream.num_objects();
  Rng rng(seed + 17);
  for (std::size_t i = 0; i < kCheckedPairs; ++i) {
    const std::size_t u = rng.NextBounded(n);
    const std::size_t v = rng.NextBounded(n);
    if (stream.distance(u, v) != instance->distance(u, v)) {
      *why = "maintained distance differs from a fresh build";
      return false;
    }
  }
  const LocalOracleOptions oracle_options;
  PivotOptions pivot_options;
  pivot_options.repetitions = 1;
  pivot_options.seed = oracle_options.seed;
  pivot_options.join_threshold = oracle_options.join_threshold;
  Result<Clustering> global = PivotClusterer(pivot_options).Run(*instance);
  Result<LocalMembershipOracle> oracle =
      LocalMembershipOracle::FromClusterings(*input, {}, oracle_options);
  if (!global.ok() || !oracle.ok()) {
    *why = "pivot reference or oracle failed";
    return false;
  }
  std::size_t previous = n;
  std::size_t previous_pivot = 0;
  for (std::size_t i = 0; i < kCheckedObjects; ++i) {
    const std::size_t u = rng.NextBounded(n);
    Result<MembershipAnswer> a = oracle->ClusterOf(u);
    if (!a.ok() || global->label(u) != global->label(a->pivot)) {
      *why = "ClusterOf disagrees with the global CC-PIVOT run";
      return false;
    }
    if (previous < n &&
        (a->pivot == previous_pivot) !=
            (global->label(u) == global->label(previous))) {
      *why = "ClusterOf partition differs from the global CC-PIVOT run";
      return false;
    }
    previous = u;
    previous_pivot = a->pivot;
  }
  return true;
}

}  // namespace

bool IsStreamWorkload(const std::string& name) {
  return name == "stream-serve";
}

RunResult RunStreamWorkload(const RunConfig& config) {
  const std::vector<std::vector<bool>> schedule = MakeSchedule(config.seed);
  RunResult out;
  StreamStats stats;
  StreamStats twin_stats;
  std::vector<double> setup_seconds;
  std::vector<double> probe_seconds;
  double since_probe = 0.0;
  Tracer tracer;
  double timed = 0.0;
  std::uint64_t passes = 0;
  std::size_t final_objects = 0;
  std::size_t missing_cells = 0;
  double untraced_round_s = 0.0;
  auto fail = [&](const std::string& why) {
    ++out.failed;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 why.c_str());
  };

  while (timed < config.seconds) {
    // Set-up: table, stream(s), seed views, first flush.
    Stopwatch watch;
    const StreamTable table = MakeTable(config.seed);
    StreamClient client(table, config.threads);
    Status started = client.Start();
    if (!started.ok()) SetupFailed("stream start", started.ToString());
    setup_seconds.push_back(watch.ElapsedSeconds());
    missing_cells = table.missing_cells;
    std::optional<StreamClient> twin;
    if (config.trace) {
      twin.emplace(table, config.threads);
      started = twin->Start();
      if (!started.ok()) SetupFailed("traced stream start", started.ToString());
    }

    Rng query_rng(config.seed * 1000003 + 5);
    Rng twin_rng(config.seed * 1000003 + 5);
    for (std::size_t b = 0; b < kBatches; ++b) {
      RoundOutput output;
      std::string why;
      ++out.attempted;
      const bool ok = RunRound(client, schedule[b], query_rng, nullptr, &stats,
                               &output, &why);
      timed += stats.round_s.back();
      untraced_round_s += stats.round_s.back();
      if (!ok) fail(why);
      if (!twin) {
        since_probe += stats.round_s.back();
        if (since_probe >= kProbeEverySeconds) {
          probe_seconds.push_back(HostProbeSeconds());
          since_probe = 0.0;
        }
        continue;
      }

      tracer.SetJob(passes * kBatches + b);
      RoundOutput traced;
      ++out.attempted;
      if (!RunRound(*twin, schedule[b], twin_rng, &tracer, &twin_stats,
                    &traced, &why)) {
        fail("traced: " + why);
      } else if (ok && (traced.flush_cost != output.flush_cost ||
                        traced.labels != output.labels ||
                        traced.answers != output.answers)) {
        fail("traced round differs from its untraced twin");
      }
      timed += twin_stats.round_s.back();
    }
    ++out.attempted;
    std::string why;
    if (!CheckPass(client.stream(), config.seed, &why)) fail(why);
    final_objects = client.stream().num_objects();
    ++passes;
  }
  const double peak_rss = PeakRssMb();
  out.correct = out.failed == 0;

  const auto [flush_tail_pct, flush_tail] = TailPercentile(stats.flush_s);
  const auto [query_tail_pct, query_tail] = TailPercentile(stats.query_s);
  const auto [round_tail_pct, round_tail] = TailPercentile(stats.round_s);
  const double rounds = static_cast<double>(stats.round_s.size());
  double flush_total = 0.0;
  for (double s : stats.flush_s) flush_total += s;

  Json shape;
  shape.Int("n_initial", kInitialObjects)
      .Int("n_final", final_objects)
      .Int("m", kViews)
      .Int("planted_clusters", kPlantedClusters)
      .Int("missing_cells_in_table", missing_cells)
      .Int("batches_per_pass", kBatches)
      .Int("events_per_batch", kEventsPerBatch)
      .Int("queries_per_round", kQueries);
  Json detail;
  detail.Str("workload", config.workload)
      .Int("seed", config.seed)
      .Int("trace", config.trace ? 1 : 0)
      .Obj("host", HostJson(config.threads))
      .Obj("shape", shape)
      .Str("loop", "closed, 1 client")
      .Int("passes", passes)
      .Int("rounds", stats.round_s.size())
      .Num("round_s.p50", Median(stats.round_s))
      .Num("round_s.tail", round_tail)
      .Num("round_s.tail_percentile", round_tail_pct)
      .Num("events_per_s", Ratio(static_cast<double>(stats.events),
                                 stats.ingest_s + flush_total))
      .Num("flush_s.p50", Median(stats.flush_s))
      .Num("flush_s.tail", flush_tail)
      .Num("flush_s.tail_percentile", flush_tail_pct)
      .Int("flush_s.samples", stats.flush_s.size())
      .Num("query_us.p50", 1e6 * Median(stats.query_s))
      .Num("query_us.tail", 1e6 * query_tail)
      .Num("query_us.tail_percentile", query_tail_pct)
      .Int("query_us.samples", stats.query_s.size())
      .Num("queries_per_s", Ratio(static_cast<double>(stats.query_s.size()),
                                  stats.query_phase_s))
      .Num("stream.ingest_s_per_event",
           Ratio(stats.ingest_s, static_cast<double>(stats.events)))
      .Num("stream.current_input_s", Ratio(stats.current_input_s, rounds))
      .Num("local.build_s", Ratio(stats.oracle_build_s, rounds))
      .Num("peak_rss_mb", peak_rss);

  if (!config.trace) {
    // Round b of every pass replays the same events: one kind per b.
    std::vector<std::vector<double>> by_round(kBatches);
    for (std::size_t r = 0; r < stats.round_s.size(); ++r) {
      by_round[r % kBatches].push_back(stats.round_s[r]);
    }
    out.metrics = EndToEndMetrics(by_round, peak_rss, setup_seconds,
                                  probe_seconds, &detail);
    out.detail = detail.ToString();
    return out;
  }

  LayerReport layers;
  layers.trace = tracer.Summarize("round");
  layers.untraced_seconds = untraced_round_s;
  const StreamStats& t = twin_stats;
  const double flushes = static_cast<double>(t.flushes);
  const double pass_count = static_cast<double>(passes);
  layers.stream_pairs_touched = Ratio(t.pairs_touched, flushes);
  layers.stream_repaired_ratio =
      Ratio(static_cast<double>(t.repaired), flushes);
  layers.stream_rebuilds = Ratio(static_cast<double>(t.rebuilds), pass_count);
  layers.local_distance_queries =
      Ratio(t.distance_queries, static_cast<double>(t.cluster_of));
  layers.local_chain_depth_p99 = Percentile(t.chain_depth, 99.0);
  layers.local_memo_hit_ratio =
      Ratio(t.memo_hits, t.memo_hits + t.inspections);
  out.metrics = LayerMetrics(layers);

  Json layer_seconds;
  const double ops = std::max(1.0, static_cast<double>(layers.trace.roots));
  for (const auto& [name, seconds] : layers.trace.self_seconds) {
    layer_seconds.Num(name, seconds / ops);
  }
  Json layer_detail;
  layer_detail.Obj("self_s_per_round", layer_seconds)
      .Num("stream.evictions_per_pass",
           Ratio(static_cast<double>(t.evictions), pass_count));
  detail.Obj("layers", layer_detail);
  out.detail = detail.ToString();
  if (!config.spans_path.empty()) tracer.WriteJsonLines(config.spans_path);
  return out;
}

}  // namespace perfbench
