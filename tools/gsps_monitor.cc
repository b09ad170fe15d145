// gsps_monitor — continuous subgraph pattern monitoring over recorded
// graph streams.
//
// Reads a query file (graphs in the "g/v/e" dataset format of graph_io.h)
// and one or more stream files (the "v/e/t/+/-" format of stream_io.h,
// comma-separated), replays the streams through the engine, and prints the
// possibly-matching queries at every timestamp. With --verify each
// candidate is confirmed by the exact checker before being printed; with
// --events only the transitions (patterns that start or stop matching) are
// printed instead of the full candidate set.
//
// The replay runs on the threaded PipelinedQueryEngine: --threads=N shards
// the streams over N worker threads (0 = one per hardware thread, 1 = a
// single worker); each timestamp's batches are pushed as ingest events and
// the epoch is closed at t before the candidate snapshots are read back, so
// the reported candidates are identical for every thread count. --lane=N
// sizes the per-shard SPSC lanes.
//
// Observability: --metrics=FILE (or "-" for stdout) dumps the engine's
// counter/gauge/histogram snapshot, by default once at the end;
// --metrics_every=N rewrites it every N timestamps. --metrics_format
// selects Prometheus text exposition (default) or JSON. --trace=FILE
// writes a Chrome trace_event JSON of the replay (one timeline row per
// shard plus the driver) loadable in about://tracing or Perfetto.
// --stats_every=N prints a one-line heartbeat to stderr every N
// timestamps (rates and tail latency over the window since the previous
// flush). --flight_recorder=FILE arms the in-process flight recorder:
// SIGUSR1 (or a crash) dumps the recent-span ring mid-replay, and a final
// dump is written after the last metrics flush so the dump's cumulative
// section matches the final --metrics snapshot.
//
//   gsps_monitor --queries=patterns.txt --stream=traffic.txt[,more.txt...]
//       [--depth=3] [--join=dsc|nl|skyline] [--threads=1] [--lane=1024]
//       [--verify] [--events] [--quiet] [--metrics=FILE|-] [--metrics_every=N]
//       [--metrics_format=prom|json] [--trace=FILE] [--stats_every=N]
//       [--flight_recorder=FILE]
//
// Unrecognized flags are an error. Exit status: 0 on success, 2 on
// usage/file errors.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gsps/common/file_io.h"
#include "gsps/common/flags.h"
#include "gsps/common/stopwatch.h"
#include "gsps/engine/candidate_tracker.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/graph/graph_io.h"
#include "gsps/graph/stream_io.h"
#include "gsps/obs/flight_recorder.h"
#include "gsps/obs/obs.h"
#include "gsps/obs/window.h"

namespace {

using namespace gsps;

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: gsps_monitor --queries=FILE --stream=FILE[,FILE...]\n"
               "        [--depth=3] [--join=dsc|nl|skyline] [--threads=1] "
               "[--verify] [--events] [--quiet]\n"
               "        [--lane=1024] [--metrics=FILE|-] [--metrics_every=N] "
               "[--metrics_format=prom|json] [--trace=FILE]\n"
               "        [--stats_every=N] [--flight_recorder=FILE]\n");
  return 2;
}

std::vector<std::string> SplitCommas(const std::string& spec) {
  std::vector<std::string> parts;
  std::string token;
  for (const char c : spec + ",") {
    if (c == ',') {
      if (!token.empty()) parts.push_back(token);
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  return parts;
}

// Folds the driver thread's sink into the registry and closes the open
// telemetry window. Each flush cadence tick calls this exactly once, so
// the metrics rewrite and the stderr heartbeat report the same window.
obs::WindowSnapshot CloseWindow(obs::MetricSink& root_sink) {
  obs::MetricsRegistry::Global().MergeAndReset(root_sink);
  return obs::WindowedTelemetry::Global().Advance();
}

// One-line stderr heartbeat over the just-closed window.
void PrintHeartbeat(int t, const obs::WindowSnapshot& window,
                    int64_t total_candidates) {
  const double events =
      obs::RatePerSec(window, obs::Counter::kNntInsertEdges) +
      obs::RatePerSec(window, obs::Counter::kNntDeleteEdges);
  const double tests =
      obs::RatePerSec(window, obs::Counter::kJoinDominanceTests);
  const double refresh_p95 = obs::HistogramQuantile(
      window.delta.histogram(obs::Hist::kStageJoinRefreshMicros), 0.95);
  // Gauges only appear in the window whose merge carried them, so the
  // steady queries_active reading comes from the cumulative aggregate.
  const int64_t queries_active =
      obs::MetricsRegistry::Global().Snapshot().GaugeValue(
          obs::Gauge::kQueriesActive);
  std::fprintf(stderr,
               "gsps_monitor: t=%d window=%lld events/s=%.1f "
               "dominance_tests/s=%.1f join_refresh_p95=%.1fus "
               "queries_active=%lld candidates=%lld\n",
               t, static_cast<long long>(window.seq), events, tests,
               refresh_p95, static_cast<long long>(queries_active),
               static_cast<long long>(total_candidates));
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string queries_path = flags.GetString("queries", "");
  const std::string stream_path = flags.GetString("stream", "");
  const int depth = flags.GetInt("depth", 3);
  const std::string join = flags.GetString("join", "dsc");
  const int threads = flags.GetInt("threads", 1);
  const bool verify = flags.GetBool("verify");
  const int lane_capacity = flags.GetInt("lane", 1024);
  const bool events = flags.GetBool("events");
  const bool quiet = flags.GetBool("quiet");
  const std::string metrics_path = flags.GetString("metrics", "");
  const int metrics_every = flags.GetInt("metrics_every", 0);
  const std::string metrics_format = flags.GetString("metrics_format", "prom");
  const std::string trace_path = flags.GetString("trace", "");
  const int stats_every = flags.GetInt("stats_every", 0);
  const std::string flight_path = flags.GetString("flight_recorder", "");
  if (!flags.UnrecognizedArgs().empty()) {
    std::fprintf(stderr, "gsps_monitor: %s\n", flags.ErrorMessage().c_str());
    return Usage();
  }
  if (queries_path.empty() || stream_path.empty()) return Usage();
  if (metrics_format != "prom" && metrics_format != "json") return Usage();
  if (depth < 1 || threads < 0 || lane_capacity < 1) return Usage();
  if (metrics_every < 0 || stats_every < 0) {
    std::fprintf(stderr,
                 "gsps_monitor: --metrics_every and --stats_every must be "
                 ">= 0 (got %d, %d)\n",
                 metrics_every, stats_every);
    return Usage();
  }
  const bool metrics_json = metrics_format == "json";

  const std::optional<std::string> queries_text = ReadFile(queries_path);
  if (!queries_text) {
    std::fprintf(stderr, "cannot read %s\n", queries_path.c_str());
    return 2;
  }
  IoError parse_error;
  const std::optional<std::vector<Graph>> queries =
      ParseGraphs(*queries_text, &parse_error);
  if (!queries) {
    std::fprintf(stderr, "malformed query file %s: %s\n", queries_path.c_str(),
                 parse_error.ToString().c_str());
    return 2;
  }
  if (queries->empty()) {
    std::fprintf(stderr, "empty query file %s\n", queries_path.c_str());
    return 2;
  }

  std::vector<GraphStream> streams;
  for (const std::string& path : SplitCommas(stream_path)) {
    const std::optional<std::string> stream_text = ReadFile(path);
    if (!stream_text) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 2;
    }
    std::optional<GraphStream> stream = ParseStream(*stream_text, &parse_error);
    if (!stream) {
      std::fprintf(stderr, "malformed stream file %s: %s\n", path.c_str(),
                   parse_error.ToString().c_str());
      return 2;
    }
    streams.push_back(*std::move(stream));
  }
  if (streams.empty()) return Usage();

  EngineOptions options;
  options.nnt_depth = depth;
  if (join == "dsc") {
    options.join_kind = JoinKind::kDominatedSetCover;
  } else if (join == "nl") {
    options.join_kind = JoinKind::kNestedLoop;
  } else if (join == "skyline") {
    options.join_kind = JoinKind::kSkylineEarlyStop;
  } else {
    return Usage();
  }

  // Arm tracing before Start() so the engine allocates per-shard trace
  // rows; install the driver thread's metric sink and trace row for the
  // whole replay. When the build has GSPS_OBS_DISABLED these stay inert and
  // the flags still produce (empty) outputs.
  obs::MetricSink root_sink;
  obs::TraceBuffer* root_trace = nullptr;
  if (!trace_path.empty()) {
    obs::Tracer::Global().Enable();
    root_trace = obs::Tracer::Global().NewBuffer(/*tid=*/0);
  }
  obs::ScopedObsContext obs_scope(&root_sink, root_trace);
  // Arm the flight recorder before the engine starts so the span ring
  // covers the whole replay; SIGUSR1 can probe it while we run.
  if (!flight_path.empty()) {
    obs::FlightRecorder::Global().Arm(flight_path.c_str());
  }

  PipelinedEngineOptions engine_options;
  engine_options.engine = options;
  engine_options.num_threads = threads;
  engine_options.lane_capacity = static_cast<size_t>(lane_capacity);
  PipelinedQueryEngine engine(engine_options);
  for (const Graph& q : *queries) engine.AddQuery(q);
  int horizon = 0;
  for (GraphStream& stream : streams) {
    engine.AddStream(stream.StartGraph());
    horizon = std::max(horizon, stream.NumTimestamps());
  }
  engine.Start();
  const int num_streams = engine.num_streams();
  const bool multi = num_streams > 1;

  Stopwatch watch;
  int64_t total_candidates = 0;
  // Steady-state buffers: candidates land in `candidates`, the verified
  // subset in `reported`, and the engine's swap-based ObserveTransitions
  // recycles `reported`'s storage.
  std::vector<int> candidates;
  std::vector<int> reported;
  CandidateTransitions transitions;
  for (int t = 0; t < horizon; ++t) {
    GSPS_OBS_SPAN("tick", "monitor");
    if (t > 0) {
      // One event per (stream, timestamp), then close the epoch: the
      // snapshot reads below are the sequential engine's state at t.
      for (int i = 0; i < num_streams; ++i) {
        const GraphStream& stream = streams[static_cast<size_t>(i)];
        IngestEvent event;
        event.stream = i;
        event.timestamp = t;
        if (t < stream.NumTimestamps()) event.change = stream.ChangeAt(t);
        engine.Ingest(std::move(event));
      }
      engine.AdvanceEpoch(t);
    }
    for (int i = 0; i < num_streams; ++i) {
      engine.CandidatesForStream(i, &candidates);
      reported.clear();
      for (const int q : candidates) {
        if (verify && !engine.VerifyCandidate(i, q)) continue;
        ++total_candidates;
        reported.push_back(q);
      }
      const std::string where =
          multi ? " s" + std::to_string(i) : std::string();
      if (events) {
        engine.ObserveTransitions(i, &reported, &transitions);
        if (!quiet && !transitions.empty()) {
          std::string line;
          for (const int q : transitions.appeared) {
            line += " +q" + std::to_string(q);
          }
          for (const int q : transitions.disappeared) {
            line += " -q" + std::to_string(q);
          }
          std::printf("t=%d%s events:%s\n", t, where.c_str(), line.c_str());
        }
      } else if (!quiet && !reported.empty()) {
        std::string hits;
        for (const int q : reported) hits += " q" + std::to_string(q);
        std::printf("t=%d%s%s%s\n", t, where.c_str(),
                    verify ? " matches:" : " candidates:", hits.c_str());
      }
    }
    const bool flush_metrics = !metrics_path.empty() && metrics_every > 0 &&
                               (t + 1) % metrics_every == 0;
    const bool flush_stats = stats_every > 0 && (t + 1) % stats_every == 0;
    if (flush_metrics || flush_stats) {
      const obs::WindowSnapshot window = CloseWindow(root_sink);
      if (flush_stats) PrintHeartbeat(t, window, total_candidates);
      if (flush_metrics && !WriteMetricsSnapshot(metrics_path, metrics_json)) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return 2;
      }
    }
  }
  std::printf("processed %d timestamps x %zu queries x %d stream(s) on %d "
              "shard(s) in %.1f ms; %lld %s reported\n",
              horizon, queries->size(), num_streams, engine.num_shards(),
              watch.ElapsedMillis(), static_cast<long long>(total_candidates),
              verify ? "verified matches" : "candidates");
  // Join the workers before the final flushes: Shutdown folds the router
  // and ingest-queue counters into the registry, and afterwards no worker
  // merges or records anything, so the final metrics snapshot, flight
  // recorder dump and trace all see the finished replay.
  engine.Shutdown();
  if (!metrics_path.empty() || stats_every > 0 || !flight_path.empty()) {
    // Close the tail window even when no heartbeat prints: the fold also
    // publishes the cumulative aggregate for the flight-recorder dump.
    CloseWindow(root_sink);
    if (!metrics_path.empty() &&
        !WriteMetricsSnapshot(metrics_path, metrics_json)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 2;
    }
  }
  // The final dump happens after the last metrics flush, so the dump's
  // cumulative section matches the final --metrics snapshot exactly.
  if (!flight_path.empty()) {
    if (!obs::FlightRecorder::Global().DumpNow()) {
      std::fprintf(stderr, "cannot write %s\n", flight_path.c_str());
      return 2;
    }
  }
  if (!trace_path.empty()) {
    if (!WriteWholeFile(trace_path, obs::Tracer::Global().ToJson())) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }
  return 0;
}
