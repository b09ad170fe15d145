#include "bench_common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "gsps/baselines/gindex/gindex_filter.h"
#include "gsps/baselines/graphgrep/graphgrep_filter.h"
#include "gsps/common/check.h"
#include "gsps/common/stopwatch.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/gen/reality_like.h"
#include "gsps/iso/subgraph_isomorphism.h"
#include "gsps/join/dominance.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps::bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

int Flags::GetInt(const std::string& name, int default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::atoi(it->second.c_str());
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::atof(it->second.c_str());
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

uint64_t Flags::GetUint64(const std::string& name,
                          uint64_t default_value) const {
  auto it = values_.find(name);
  return it == values_.end()
             ? default_value
             : std::strtoull(it->second.c_str(), nullptr, 10);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

StreamWorkload MakeWorkload(StreamDataset dataset, int num_queries,
                            int num_streams, int horizon) {
  StreamWorkload workload;
  num_queries = std::min<int>(num_queries,
                              static_cast<int>(dataset.queries.size()));
  num_streams = std::min<int>(num_streams,
                              static_cast<int>(dataset.streams.size()));
  for (int j = 0; j < num_queries; ++j) {
    workload.queries.push_back(std::move(dataset.queries[static_cast<size_t>(j)]));
  }
  for (int i = 0; i < num_streams; ++i) {
    workload.streams.push_back(std::move(dataset.streams[static_cast<size_t>(i)]));
  }
  workload.horizon = horizon;
  for (const GraphStream& stream : workload.streams) {
    workload.horizon = std::min(workload.horizon, stream.NumTimestamps());
  }
  return workload;
}

StreamWorkload SyntheticStreamWorkload(int num_pairs, double p1, double p2,
                                       int horizon, uint64_t seed,
                                       double extra_pair_fraction) {
  SyntheticStreamParams params;
  params.num_pairs = num_pairs;
  params.evolution.p_appear = p1;
  params.evolution.p_disappear = p2;
  params.evolution.num_timestamps = horizon;
  params.evolution.extra_pair_fraction = extra_pair_fraction;
  params.seed = seed;
  return MakeWorkload(MakeSyntheticStreams(params), num_pairs, num_pairs,
                      horizon);
}

StreamWorkload RealityStreamWorkload(int num_streams, int num_queries,
                                     int horizon, uint64_t seed) {
  RealityLikeParams params;
  params.num_streams = num_streams;
  params.num_queries = num_queries;
  params.num_timestamps = horizon;
  params.seed = seed;
  return MakeWorkload(MakeRealityLikeStreams(params), num_queries,
                      num_streams, horizon);
}

namespace {

int64_t ExactTruePairs(const std::vector<Graph>& queries,
                       const std::vector<const Graph*>& graphs) {
  int64_t count = 0;
  for (const Graph* g : graphs) {
    for (const Graph& q : queries) {
      if (IsSubgraphIsomorphic(q, *g)) ++count;
    }
  }
  return count;
}

}  // namespace

namespace {

// Shared driver loop for both engine flavors. `apply` applies one
// timestamp's batches, `all_pairs` runs the join over every stream,
// `graph_of` exposes the live stream graphs for ground truth, and
// `decorate` fills the fields only the engine knows (busy_millis, and the
// threaded engine's update/join split) into the otherwise-complete sample.
template <typename ApplyFn, typename PairsFn, typename GraphFn,
          typename DecorateFn>
StatsAccumulator DriveEngine(const StreamWorkload& workload,
                             const RunOptions& options, ApplyFn apply,
                             PairsFn all_pairs, GraphFn graph_of,
                             DecorateFn decorate) {
  StatsAccumulator stats;
  const int num_streams = static_cast<int>(workload.streams.size());
  const int64_t total_pairs =
      static_cast<int64_t>(workload.queries.size()) * num_streams;
  Stopwatch watch;
  for (int t = 0; t < workload.horizon; ++t) {
    TimestampStats sample;
    sample.timestamp = t;
    sample.total_pairs = total_pairs;
    if (t > 0) {
      watch.Restart();
      apply(t);
      sample.update_millis = watch.ElapsedMillis();
    }
    watch.Restart();
    sample.candidate_pairs = all_pairs();
    sample.join_millis = watch.ElapsedMillis();
    if (options.ground_truth_every > 0 &&
        t % options.ground_truth_every == 0) {
      std::vector<const Graph*> graphs;
      for (int i = 0; i < num_streams; ++i) graphs.push_back(graph_of(i));
      sample.true_pairs = ExactTruePairs(workload.queries, graphs);
    }
    decorate(sample);
    stats.Add(sample);
  }
  return stats;
}

}  // namespace

StatsAccumulator RunNpvEngine(const StreamWorkload& workload, JoinKind kind,
                              int depth, const RunOptions& options) {
  const int num_streams = static_cast<int>(workload.streams.size());
  if (options.num_threads > 1) {
    PipelinedEngineOptions pipelined_options;
    pipelined_options.engine.nnt_depth = depth;
    pipelined_options.engine.join_kind = kind;
    pipelined_options.num_threads = options.num_threads;
    PipelinedQueryEngine engine(pipelined_options);
    for (const Graph& q : workload.queries) engine.AddQuery(q);
    for (const GraphStream& s : workload.streams) {
      engine.AddStream(s.StartGraph());
    }
    engine.Start();
    return DriveEngine(
        workload, options,
        [&](int t) {
          // One epoch per timestamp: the shards run the batches and then
          // the join (the epoch snapshot) before AdvanceEpoch returns.
          for (int i = 0; i < num_streams; ++i) {
            IngestEvent event;
            event.stream = i;
            event.timestamp = t;
            event.change = workload.streams[static_cast<size_t>(i)].ChangeAt(t);
            engine.Ingest(std::move(event));
          }
          engine.AdvanceEpoch(t);
        },
        [&, pairs = std::vector<std::pair<int, int>>()]() mutable {
          engine.AllCandidatePairs(&pairs);
          return static_cast<int64_t>(pairs.size());
        },
        [&](int i) { return &engine.StreamGraph(i); },
        [&](TimestampStats& sample) {
          // The join ran inside the epoch close that `apply` timed, so the
          // driver-side split would charge it to update. Take the join's
          // critical path from the shards' epoch samples instead and leave
          // the rest of the observed wall time (batch apply plus routing)
          // to update. At t = 0 the join ran in Start(), outside the timed
          // wall. busy_millis is the shards' summed work time.
          const TimestampStats epoch = engine.TakeBarrierStats();
          const double wall = sample.update_millis + sample.join_millis;
          sample.join_millis = epoch.join_millis;
          sample.update_millis = std::max(0.0, wall - epoch.join_millis);
          sample.busy_millis = epoch.busy_millis;
        });
  }

  EngineOptions engine_options;
  engine_options.nnt_depth = depth;
  engine_options.join_kind = kind;
  ContinuousQueryEngine engine(engine_options);
  for (const Graph& q : workload.queries) engine.AddQuery(q);
  for (const GraphStream& s : workload.streams) {
    engine.AddStream(s.StartGraph());
  }
  engine.Start();
  return DriveEngine(
      workload, options,
      [&](int t) {
        for (int i = 0; i < num_streams; ++i) {
          engine.ApplyChange(i,
                             workload.streams[static_cast<size_t>(i)].ChangeAt(t));
        }
      },
      [&, buffer = std::vector<int>()]() mutable {
        int64_t candidates = 0;
        for (int i = 0; i < num_streams; ++i) {
          engine.CandidatesForStream(i, &buffer);
          candidates += static_cast<int64_t>(buffer.size());
        }
        return candidates;
      },
      [&](int i) { return &engine.StreamGraph(i); },
      [](TimestampStats& sample) {
        sample.busy_millis = sample.update_millis + sample.join_millis;
      });
}

StatsAccumulator RunGraphGrepBaseline(const StreamWorkload& workload,
                                      int max_path_length,
                                      const RunOptions& options) {
  GraphGrepFilter filter(max_path_length);
  filter.SetQueries(workload.queries);

  std::vector<StreamCursor> cursors;
  cursors.reserve(workload.streams.size());
  for (const GraphStream& s : workload.streams) cursors.emplace_back(s);

  StatsAccumulator stats;
  const int64_t total_pairs =
      static_cast<int64_t>(workload.queries.size()) *
      static_cast<int64_t>(workload.streams.size());
  Stopwatch watch;
  for (int t = 0; t < workload.horizon; ++t) {
    TimestampStats sample;
    sample.timestamp = t;
    sample.total_pairs = total_pairs;
    if (t > 0) {
      watch.Restart();
      for (StreamCursor& cursor : cursors) cursor.Advance();
      sample.update_millis = watch.ElapsedMillis();
    }
    watch.Restart();
    int64_t candidates = 0;
    for (const StreamCursor& cursor : cursors) {
      candidates += static_cast<int64_t>(
          filter.CandidateQueries(cursor.CurrentGraph()).size());
    }
    sample.join_millis = watch.ElapsedMillis();
    sample.candidate_pairs = candidates;
    if (options.ground_truth_every > 0 &&
        t % options.ground_truth_every == 0) {
      std::vector<const Graph*> graphs;
      for (const StreamCursor& cursor : cursors) {
        graphs.push_back(&cursor.CurrentGraph());
      }
      sample.true_pairs = ExactTruePairs(workload.queries, graphs);
    }
    sample.busy_millis = sample.update_millis + sample.join_millis;
    stats.Add(sample);
  }
  return stats;
}

StatsAccumulator RunGindexBaseline(const StreamWorkload& workload,
                                   const GspanOptions& mining,
                                   const RunOptions& options) {
  std::vector<StreamCursor> cursors;
  cursors.reserve(workload.streams.size());
  for (const GraphStream& s : workload.streams) cursors.emplace_back(s);

  StatsAccumulator stats;
  const int64_t total_pairs =
      static_cast<int64_t>(workload.queries.size()) *
      static_cast<int64_t>(workload.streams.size());
  Stopwatch watch;
  for (int t = 0; t < workload.horizon; ++t) {
    TimestampStats sample;
    sample.timestamp = t;
    sample.total_pairs = total_pairs;
    watch.Restart();
    if (t > 0) {
      for (StreamCursor& cursor : cursors) cursor.Advance();
    }
    // gIndex must re-mine features from the changed graphs (the paper's
    // protocol); mining time counts as update cost.
    std::vector<Graph> snapshots;
    snapshots.reserve(cursors.size());
    for (const StreamCursor& cursor : cursors) {
      snapshots.push_back(cursor.CurrentGraph());
    }
    GindexFilter filter(mining);
    filter.BuildIndex(snapshots);
    sample.update_millis = watch.ElapsedMillis();

    watch.Restart();
    int64_t candidates = 0;
    for (const Graph& query : workload.queries) {
      candidates +=
          static_cast<int64_t>(filter.CandidateGraphsFor(query).size());
    }
    sample.join_millis = watch.ElapsedMillis();
    sample.candidate_pairs = candidates;
    if (options.ground_truth_every > 0 &&
        t % options.ground_truth_every == 0) {
      std::vector<const Graph*> graphs;
      for (const Graph& g : snapshots) graphs.push_back(&g);
      sample.true_pairs = ExactTruePairs(workload.queries, graphs);
    }
    sample.busy_millis = sample.update_millis + sample.join_millis;
    stats.Add(sample);
  }
  return stats;
}

double NpvStaticCandidateRatio(const std::vector<Graph>& database,
                               const std::vector<Graph>& queries, int depth) {
  if (database.empty() || queries.empty()) return 0.0;
  DimensionTable dimensions;
  std::vector<QueryVectors> query_vectors;
  query_vectors.reserve(queries.size());
  for (const Graph& query : queries) {
    NntSet nnts(depth, &dimensions);
    nnts.Build(query);
    query_vectors.push_back(BuildQueryVectors(nnts));
  }
  auto strategy = MakeJoinStrategy(JoinKind::kDominatedSetCover);
  strategy->SetQueries(std::move(query_vectors));
  strategy->SetNumStreams(static_cast<int>(database.size()));
  for (size_t i = 0; i < database.size(); ++i) {
    NntSet nnts(depth, &dimensions);
    nnts.Build(database[i]);
    for (const VertexId root : nnts.Roots()) {
      strategy->UpdateStreamVertex(static_cast<int>(i), root,
                                   nnts.NpvOf(root));
    }
  }
  int64_t candidates = 0;
  std::vector<int> buffer;
  for (size_t i = 0; i < database.size(); ++i) {
    strategy->CandidatesForStream(static_cast<int>(i), &buffer);
    candidates += static_cast<int64_t>(buffer.size());
  }
  return static_cast<double>(candidates) /
         (static_cast<double>(database.size()) *
          static_cast<double>(queries.size()));
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRow(const std::string& label, const std::vector<double>& values,
              const std::vector<std::string>& columns) {
  GSPS_CHECK(values.size() == columns.size());
  std::printf("%-28s", label.c_str());
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("  %s=%.4f", columns[i].c_str(), values[i]);
  }
  std::printf("\n");
}

namespace {

// Minimal JSON string escaping; keys and settings are harness-controlled
// identifiers, so only the characters that would break the framing matter.
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string JsonNumber(double value) {
  // JSON has no NaN/Inf; clamp to null-free sentinels.
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

void EmitBenchJson(const std::string& bench, const std::string& setting,
                   const std::map<std::string, double>& fields) {
  std::string line = "{\"bench\":\"" + JsonEscape(bench) + "\"";
  if (!setting.empty()) {
    line += ",\"setting\":\"" + JsonEscape(setting) + "\"";
  }
  for (const auto& [key, value] : fields) {
    line += ",\"" + JsonEscape(key) + "\":" + JsonNumber(value);
  }
  line += "}";
  std::printf("BENCH_JSON %s\n", line.c_str());
  if (const char* path = std::getenv("GSPS_BENCH_JSON"); path != nullptr) {
    if (std::FILE* f = std::fopen(path, "a"); f != nullptr) {
      std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
  }
}

std::map<std::string, double> StatsJsonFields(const StatsAccumulator& stats) {
  return {
      {"timestamps", static_cast<double>(stats.num_timestamps())},
      {"avg_cost_ms", stats.AvgCostMillis()},
      {"avg_update_ms", stats.AvgUpdateMillis()},
      {"avg_join_ms", stats.AvgJoinMillis()},
      {"avg_busy_ms", stats.AvgBusyMillis()},
      {"p50_cost_ms", stats.CostPercentileMillis(50.0)},
      {"p95_cost_ms", stats.CostPercentileMillis(95.0)},
      {"max_cost_ms", stats.MaxCostMillis()},
      {"avg_candidate_ratio", stats.AvgCandidateRatio()},
      {"avg_precision", stats.AvgPrecision()},
  };
}

}  // namespace gsps::bench
