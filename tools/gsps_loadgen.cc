// gsps_loadgen — open-loop ingest load generator for the engine core.
//
// Measures what the monitor's closed-loop replay cannot: end-to-end ingest
// latency under a fixed offered rate, queue wait included. The tool
// generates a synthetic stream workload (§V.B generator) and replays its
// batches through PipelinedQueryEngine, the scheduler gsps_monitor runs:
//
//   producer threads (open loop, --rate events/sec aggregate)
//     -> the engine's IngestQueue(--queue) with blocking backpressure
//       -> router -> one SPSC lane per shard (--threads shards, --lane each)
//         -> each shard worker applies its own streams' batches
//
// Producers stamp each event with its *scheduled* send time (keep_stamp),
// so when the queue pushes back the measured latency includes the time the
// producer fell behind — the open-loop convention that exposes coordinated
// omission instead of hiding it. Each stream belongs to exactly one
// producer and every hop is FIFO, so per-stream batch order is preserved;
// each worker audits that timestamps arrive gapless and in order per
// stream (IngestOrderAudit) and the tool fails loudly otherwise (zero
// dropped or reordered deltas).
//
// While producers run, the main thread publishes an epoch marker every
// --probe_ms milliseconds: each worker applies the batches it holds and
// computes every stream's candidates, and the marker's transit through the
// loaded queue and lanes is the watermark lag. Snapshot reads only happen
// at the final, quiescent epoch, so the probes need no data-completeness
// discipline. A worker holds each batch until its stream's next event or
// the next marker arrives (that is how it coalesces a fragmented batch),
// so the e2e latency includes that hold, bounded by --probe_ms.
//
// Latency lands in the shared obs histogram (gsps_ingest_e2e_micros) and a
// per-lane copy that works in GSPS_OBS_DISABLED builds; the summary line
// reports p50/p95/p99 from the latter. --metrics=FILE|- exports the full
// Prometheus/JSON snapshot including the ingest counters.
//
//   gsps_loadgen [--streams=16] [--queries=4] [--timestamps=64] [--seed=7]
//       [--rate=0] [--producers=4] [--queue=1024] [--depth=3]
//       [--join=dsc|nl|skyline] [--threads=1] [--lane=1024] [--probe_ms=10]
//       [--metrics=FILE|-] [--metrics_format=prom|json] [--quiet]
//
// --rate=0 replays as fast as the queue accepts.
//
// Exit status: 0 on success (and a clean order audit), 1 on a
// dropped/reordered delta, 2 on usage errors.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gsps/common/flags.h"
#include "gsps/common/stopwatch.h"
#include "gsps/engine/ingest_queue.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/obs/obs.h"
#include "gsps/obs/window.h"

namespace {

using namespace gsps;

int Usage() {
  std::fprintf(
      stderr,
      "usage: gsps_loadgen [--streams=16] [--queries=4] [--timestamps=64]\n"
      "        [--seed=7] [--rate=0] [--producers=4] [--queue=1024]\n"
      "        [--depth=3] [--join=dsc|nl|skyline] [--threads=1]\n"
      "        [--lane=1024] [--probe_ms=10]\n"
      "        [--metrics=FILE|-] [--metrics_format=prom|json]\n"
      "        [--quiet]\n");
  return 2;
}

bool WriteWholeFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

bool WriteMetricsSnapshot(const std::string& destination, bool json) {
  const obs::MetricSink snapshot = obs::MetricsRegistry::Global().Snapshot();
  const std::string text =
      json ? obs::ToMetricsJson(snapshot) : obs::ToPrometheusText(snapshot);
  if (destination == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    if (json) std::fputc('\n', stdout);
    return true;
  }
  return WriteWholeFile(destination, text);
}

// One producer's replay plan: the batches of the streams it owns,
// interleaved round-robin by timestamp so its streams advance together
// instead of one stream at a time.
struct ProducerPlan {
  std::vector<IngestEvent> events;  // In push order.
  int64_t edge_ops = 0;
};

ProducerPlan PlanProducer(const std::vector<GraphStream>& streams,
                          int producer, int num_producers) {
  ProducerPlan plan;
  int horizon = 0;
  for (size_t i = static_cast<size_t>(producer); i < streams.size();
       i += static_cast<size_t>(num_producers)) {
    horizon = std::max(horizon, streams[i].NumTimestamps());
  }
  for (int t = 1; t < horizon; ++t) {
    for (size_t i = static_cast<size_t>(producer); i < streams.size();
         i += static_cast<size_t>(num_producers)) {
      if (t >= streams[i].NumTimestamps()) continue;
      IngestEvent event;
      event.stream = static_cast<int32_t>(i);
      event.timestamp = t;
      event.change = streams[i].ChangeAt(t);
      plan.edge_ops += static_cast<int64_t>(event.change.ops.size());
      plan.events.push_back(std::move(event));
    }
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int num_streams = flags.GetInt("streams", 16);
  const int num_queries = flags.GetInt("queries", 4);
  const int timestamps = flags.GetInt("timestamps", 64);
  const long long seed = flags.GetInt64("seed", 7);
  const double rate = flags.GetDouble("rate", 0.0);
  int num_producers = flags.GetInt("producers", 4);
  const int queue_capacity = flags.GetInt("queue", 1024);
  const int depth = flags.GetInt("depth", 3);
  const std::string join = flags.GetString("join", "dsc");
  const int threads = flags.GetInt("threads", 1);
  const int lane_capacity = flags.GetInt("lane", 1024);
  const int probe_ms = flags.GetInt("probe_ms", 10);
  const std::string metrics_path = flags.GetString("metrics", "");
  const std::string metrics_format = flags.GetString("metrics_format", "prom");
  const bool quiet = flags.GetBool("quiet");
  if (!flags.UnrecognizedArgs().empty()) {
    std::fprintf(stderr, "gsps_loadgen: %s\n", flags.ErrorMessage().c_str());
    return Usage();
  }
  if (num_streams < 1 || num_queries < 1 || timestamps < 2 || rate < 0 ||
      num_producers < 1 || queue_capacity < 1 || depth < 1 || threads < 0 ||
      lane_capacity < 1 || probe_ms < 1) {
    return Usage();
  }
  if (metrics_format != "prom" && metrics_format != "json") return Usage();
  num_producers = std::min(num_producers, num_streams);

  PipelinedEngineOptions options;
  options.engine.nnt_depth = depth;
  if (join == "dsc") {
    options.engine.join_kind = JoinKind::kDominatedSetCover;
  } else if (join == "nl") {
    options.engine.join_kind = JoinKind::kNestedLoop;
  } else if (join == "skyline") {
    options.engine.join_kind = JoinKind::kSkylineEarlyStop;
  } else {
    return Usage();
  }
  options.num_threads = threads;
  options.ingest_capacity = static_cast<size_t>(queue_capacity);
  options.lane_capacity = static_cast<size_t>(lane_capacity);

  SyntheticStreamParams params;
  params.num_pairs = num_streams;
  params.evolution.num_timestamps = timestamps;
  params.seed = static_cast<uint64_t>(seed);
  const StreamDataset dataset = MakeSyntheticStreams(params);
  const std::vector<GraphStream>& streams = dataset.streams;

  obs::MetricSink root_sink;
  obs::ScopedObsContext obs_scope(&root_sink, nullptr);

  // Pre-plan every producer's events so the replay loop does no generation
  // work; the open loop measures queue + engine, not planning.
  std::vector<ProducerPlan> plans;
  plans.reserve(static_cast<size_t>(num_producers));
  int64_t total_edge_ops = 0, total_batches = 0;
  for (int p = 0; p < num_producers; ++p) {
    plans.push_back(PlanProducer(streams, p, num_producers));
    total_edge_ops += plans.back().edge_ops;
    total_batches += static_cast<int64_t>(plans.back().events.size());
  }
  const int registered_queries =
      std::min(num_queries, static_cast<int>(dataset.queries.size()));

  // Per-producer slice of the aggregate rate, in events (batches) per
  // second; edge ops per batch average out across producers.
  const double batches_per_op =
      total_edge_ops > 0
          ? static_cast<double>(total_batches) / static_cast<double>(total_edge_ops)
          : 1.0;
  const double per_producer_batch_rate =
      rate > 0 ? rate * batches_per_op / num_producers : 0.0;

  PipelinedQueryEngine engine(options);
  for (int q = 0; q < registered_queries; ++q) {
    engine.AddQuery(dataset.queries[static_cast<size_t>(q)]);
  }
  for (const GraphStream& stream : streams) {
    engine.AddStream(stream.StartGraph());
  }
  engine.Start();

  Stopwatch watch;
  const int64_t start_micros = obs::MonotonicMicros();
  std::atomic<int> producers_done{0};
  std::vector<std::thread> producers;
  producers.reserve(static_cast<size_t>(num_producers));
  for (int p = 0; p < num_producers; ++p) {
    producers.emplace_back([&, p] {
      const ProducerPlan& plan = plans[static_cast<size_t>(p)];
      int64_t sent = 0;
      for (const IngestEvent& planned : plan.events) {
        IngestEvent event = planned;  // Keep the plan intact.
        if (per_producer_batch_rate > 0) {
          const int64_t scheduled =
              start_micros + static_cast<int64_t>(
                                 static_cast<double>(sent) * 1e6 /
                                 per_producer_batch_rate);
          // Open loop: wait until the scheduled send time, but stamp the
          // event with it even when we are late — latency then charges the
          // backlog to the system under test, not to the clock.
          while (obs::MonotonicMicros() < scheduled) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          event.enqueue_micros = scheduled;
          event.keep_stamp = true;
        }
        if (!engine.Ingest(std::move(event))) break;  // Shut down early.
        ++sent;
      }
      producers_done.fetch_add(1);
    });
  }

  // Watermark-lag probes while the load runs: marker timestamps here are
  // probe sequence numbers, not data timestamps — nothing reads the
  // intermediate snapshots, only the marker's transit time matters.
  int32_t probe = 0;
  while (producers_done.load() < num_producers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(probe_ms));
    engine.AdvanceEpoch(++probe);
  }
  for (std::thread& t : producers) t.join();
  // Final epoch: published after every producer push, so the snapshot it
  // closes covers the complete workload.
  engine.AdvanceEpoch(++probe);
  const double elapsed_ms = watch.ElapsedMillis();
  const size_t candidate_pairs = engine.AllCandidatePairs().size();
  const IngestQueueStats queue_stats = engine.ingest_queue().Stats();
  engine.Shutdown();  // Folds queue + router counters into the registry.

  obs::HistogramData latency, lag;
  int64_t applied_events = 0, applied_batches = 0, coalesced = 0;
  int64_t order_violations = 0, lane_depth_high_water = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const PipelinedQueryEngine::LaneReport report = engine.ReportLane(s);
    latency.MergeFrom(report.e2e_micros);
    lag.MergeFrom(report.watermark_lag_micros);
    applied_events += report.applied_events;
    applied_batches += report.applied_batches;
    coalesced += report.coalesced_events;
    order_violations += report.order_violations;
    lane_depth_high_water =
        std::max(lane_depth_high_water, report.lane.depth_high_water);
  }
  obs::MetricsRegistry::Global().MergeAndReset(root_sink);

  if (applied_events != total_batches ||
      queue_stats.accepted != queue_stats.delivered) {
    std::fprintf(stderr,
                 "gsps_loadgen: LOST EVENTS pushed=%lld applied=%lld "
                 "queue accepted=%lld delivered=%lld\n",
                 static_cast<long long>(total_batches),
                 static_cast<long long>(applied_events),
                 static_cast<long long>(queue_stats.accepted),
                 static_cast<long long>(queue_stats.delivered));
    return 1;
  }
  if (order_violations > 0) {
    std::fprintf(stderr, "gsps_loadgen: %lld REORDERED deltas\n",
                 static_cast<long long>(order_violations));
    return 1;
  }

  const double achieved =
      elapsed_ms > 0
          ? static_cast<double>(total_edge_ops) * 1000.0 / elapsed_ms
          : 0.0;
  if (!quiet) {
    std::printf(
        "gsps_loadgen: %lld edge events in %lld batches across %d streams "
        "(%d producers -> %d shard lanes, queue=%d lane=%d) in %.1f ms\n",
        static_cast<long long>(total_edge_ops),
        static_cast<long long>(applied_events), num_streams, num_producers,
        engine.num_shards(), queue_capacity, lane_capacity, elapsed_ms);
    std::printf(
        "gsps_loadgen: rate=%.0f events/s (target %s) coalesced=%lld "
        "applied_batches=%lld producer_waits=%lld lane_depth=%lld\n",
        achieved, rate > 0 ? std::to_string(rate).c_str() : "unbounded",
        static_cast<long long>(coalesced),
        static_cast<long long>(applied_batches),
        static_cast<long long>(queue_stats.producer_waits),
        static_cast<long long>(lane_depth_high_water));
    std::printf(
        "gsps_loadgen: watermark lag p50=%.0fus p99=%.0fus (%lld probes)\n",
        obs::HistogramQuantile(lag, 0.5), obs::HistogramQuantile(lag, 0.99),
        static_cast<long long>(lag.count));
  }
  std::printf(
      "gsps_loadgen: e2e latency p50=%.0fus p95=%.0fus p99=%.0fus "
      "(%lld samples) candidates=%zu dropped=0 reordered=0\n",
      obs::HistogramQuantile(latency, 0.5),
      obs::HistogramQuantile(latency, 0.95),
      obs::HistogramQuantile(latency, 0.99),
      static_cast<long long>(latency.count), candidate_pairs);

  if (!metrics_path.empty() &&
      !WriteMetricsSnapshot(metrics_path, metrics_format == "json")) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    return 2;
  }
  return 0;
}
