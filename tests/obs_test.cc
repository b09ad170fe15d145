// Tests for the observability layer (gsps/obs/): histogram bucket
// boundaries, single-writer sink merge algebra (commutative, empty-merge
// identity), registry merge-and-reset, serializer shape (Prometheus text
// and JSON), trace_event JSON well-formedness (parsed back by a minimal
// JSON parser), and an end-to-end run of the instrumented parallel engine
// that must leave every counter, gauge, and histogram nonzero.

#include "gsps/obs/obs.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gsps/engine/candidate_tracker.h"
#include "gsps/engine/ingest_queue.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/engine/stream_shard.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/graph/graph_change.h"
#include "gsps/join/dominance_kernel.h"
#include "gsps/obs/exemplar.h"
#include "gsps/obs/window.h"
#include "test_json.h"

namespace gsps {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Hist;
using obs::HistogramData;
using obs::MetricSink;
using ::gsps::testing::CountOccurrences;
using ::gsps::testing::JsonParser;
using ::gsps::testing::ReadWholeFile;

// --- Histogram buckets -----------------------------------------------------

TEST(ObsHistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  // Each bound is the last value of its own bucket; bound + 1 spills into
  // the next one. Everything above the top bound lands in +Inf.
  for (size_t b = 0; b < obs::kHistBucketBounds.size(); ++b) {
    const int64_t bound = obs::kHistBucketBounds[b];
    EXPECT_EQ(HistogramData::BucketIndex(bound), static_cast<int>(b))
        << "bound " << bound;
    EXPECT_EQ(HistogramData::BucketIndex(bound + 1), static_cast<int>(b) + 1)
        << "bound " << bound;
  }
  EXPECT_EQ(HistogramData::BucketIndex(0), 0);
  EXPECT_EQ(HistogramData::BucketIndex(-5), 0);
  EXPECT_EQ(HistogramData::BucketIndex(INT64_MAX),
            static_cast<int>(obs::kHistBucketBounds.size()));
}

TEST(ObsHistogramTest, ObserveTracksBucketsCountAndSum) {
  HistogramData h;
  h.Observe(1);        // Bucket 0 (le=1).
  h.Observe(2);        // Bucket 1 (le=4).
  h.Observe(4);        // Bucket 1.
  h.Observe(5000000);  // +Inf overflow.
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 2);
  EXPECT_EQ(h.buckets[obs::kHistBucketBounds.size()], 1);
  EXPECT_EQ(h.count, 4);
  EXPECT_EQ(h.sum, 5000007);
}

TEST(ObsHistogramTest, MergeAddsBucketwise) {
  HistogramData a, b;
  a.Observe(3);
  a.Observe(100);
  b.Observe(3);
  HistogramData merged = a;
  merged.MergeFrom(b);
  EXPECT_EQ(merged.count, 3);
  EXPECT_EQ(merged.sum, 106);
  EXPECT_EQ(merged.buckets[HistogramData::BucketIndex(3)], 2);
  EXPECT_EQ(merged.buckets[HistogramData::BucketIndex(100)], 1);
}

// --- Sink merge algebra ----------------------------------------------------

MetricSink SampleSinkA() {
  MetricSink s;
  s.Add(Counter::kNntInsertEdges, 3);
  s.Add(Counter::kJoinPairsIn, 10);
  s.Set(Gauge::kIngestQueueDepth, 4);
  s.Set(Gauge::kEngineShards, 2);
  s.Observe(Hist::kStageNntMaintainMicros, 17);
  return s;
}

MetricSink SampleSinkB() {
  MetricSink s;
  s.Add(Counter::kNntInsertEdges, 5);
  s.Add(Counter::kTrackerAppeared, 1);
  s.Set(Gauge::kIngestQueueDepth, 2);
  s.Set(Gauge::kEngineQueries, 9);
  s.Observe(Hist::kStageNntMaintainMicros, 40000);
  s.Observe(Hist::kStageJoinRefreshMicros, 8);
  return s;
}

TEST(ObsSinkTest, MergeSumsCountersMaxesGauges) {
  MetricSink merged = SampleSinkA();
  merged.MergeFrom(SampleSinkB());
  EXPECT_EQ(merged.Value(Counter::kNntInsertEdges), 8);
  EXPECT_EQ(merged.Value(Counter::kJoinPairsIn), 10);
  EXPECT_EQ(merged.Value(Counter::kTrackerAppeared), 1);
  EXPECT_EQ(merged.GaugeValue(Gauge::kIngestQueueDepth), 4);  // max(4, 2)
  EXPECT_EQ(merged.GaugeValue(Gauge::kEngineShards), 2);
  EXPECT_EQ(merged.GaugeValue(Gauge::kEngineQueries), 9);
  EXPECT_EQ(merged.histogram(Hist::kStageNntMaintainMicros).count, 2);
  EXPECT_EQ(merged.histogram(Hist::kStageJoinRefreshMicros).count, 1);
}

TEST(ObsSinkTest, MergeIsCommutative) {
  // Shards are merged in whatever order their epoch closes complete; the
  // aggregate must not depend on it.
  MetricSink ab = SampleSinkA();
  ab.MergeFrom(SampleSinkB());
  MetricSink ba = SampleSinkB();
  ba.MergeFrom(SampleSinkA());
  EXPECT_EQ(ab, ba);
}

TEST(ObsSinkTest, MergingAnEmptySinkIsIdentity) {
  MetricSink merged = SampleSinkA();
  merged.MergeFrom(MetricSink{});
  EXPECT_EQ(merged, SampleSinkA());

  MetricSink from_empty;
  from_empty.MergeFrom(SampleSinkA());
  EXPECT_EQ(from_empty, SampleSinkA());
}

TEST(ObsSinkTest, RegistryMergeAndResetDrainsTheSink) {
  obs::MetricsRegistry::Global().Reset();
  MetricSink sink = SampleSinkA();
  obs::MetricsRegistry::Global().MergeAndReset(sink);
  EXPECT_EQ(sink, MetricSink{}) << "sink must be zeroed after the merge";
  obs::MetricsRegistry::Global().MergeAndReset(sink);  // No-op second merge.
  const MetricSink snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot, SampleSinkA());
  obs::MetricsRegistry::Global().Reset();
  EXPECT_EQ(obs::MetricsRegistry::Global().Snapshot(), MetricSink{});
}

// --- Serializers -----------------------------------------------------------

TEST(ObsSerializerTest, PrometheusTextShape) {
  // The serializer also reads the global window/exemplar state;
  // reset so the shape below is deterministic regardless of test order.
  obs::MetricsRegistry::Global().Reset();
  MetricSink sink;
  sink.Add(Counter::kNntInsertEdges, 7);
  sink.Set(Gauge::kEngineStreams, 5);
  sink.Observe(Hist::kIngestE2eMicros, 1);   // le="1".
  sink.Observe(Hist::kIngestE2eMicros, 3);   // le="4".
  sink.Observe(Hist::kIngestE2eMicros, 99);  // le="256".
  const std::string text = obs::ToPrometheusText(sink);

  EXPECT_NE(text.find("# TYPE gsps_nnt_insert_edges_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsps_nnt_insert_edges_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsps_engine_streams gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsps_engine_streams 5\n"), std::string::npos);

  // Buckets are cumulative: le="1" holds 1, le="4" holds 2, le="64" still 2,
  // le="256" jumps to 3, and +Inf equals _count.
  EXPECT_NE(text.find("gsps_ingest_e2e_micros_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsps_ingest_e2e_micros_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsps_ingest_e2e_micros_bucket{le=\"64\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsps_ingest_e2e_micros_bucket{le=\"256\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsps_ingest_e2e_micros_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsps_ingest_e2e_micros_sum 103\n"), std::string::npos);
  EXPECT_NE(text.find("gsps_ingest_e2e_micros_count 3\n"), std::string::npos);

  // Every counter appears with the _total suffix even when zero, and no
  // other family is a counter.
  EXPECT_EQ(CountOccurrences(text, "_total counter\n"),
            static_cast<int>(obs::kNumCounters));

  // Exposition-format hygiene: every TYPE line is preceded by a HELP line
  // for the same family, and the build-identity gauge is present.
  EXPECT_EQ(CountOccurrences(text, "# HELP "),
            CountOccurrences(text, "# TYPE "));
  EXPECT_NE(text.find("# TYPE gsps_build_info gauge\n"), std::string::npos);
  EXPECT_NE(text.find("gsps_build_info{isa=\""), std::string::npos);
  EXPECT_NE(text.find("\",obs=\""), std::string::npos);

  // No window has closed since the reset, so the window gauges read zero.
  EXPECT_NE(text.find("gsps_window_seq 0\n"), std::string::npos);
  EXPECT_NE(text.find("gsps_window_events_per_sec 0\n"), std::string::npos);
  // One quantile series per histogram per quantile.
  EXPECT_EQ(CountOccurrences(text, "gsps_window_quantile_micros{hist=\""),
            static_cast<int>(obs::kNumHists) * 3);
  obs::MetricsRegistry::Global().Reset();
}

TEST(ObsSerializerTest, MetricsJsonParsesBack) {
  MetricSink sink = SampleSinkA();
  sink.MergeFrom(SampleSinkB());
  const std::string json = obs::ToMetricsJson(sink);
  JsonParser parser(json);
  EXPECT_TRUE(parser.Valid()) << json;
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gsps_nnt_insert_edges\":8"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
}

// --- Windowed telemetry ----------------------------------------------------

TEST(ObsWindowTest, HistogramQuantileInterpolatesAndClamps) {
  HistogramData empty;
  EXPECT_EQ(obs::HistogramQuantile(empty, 0.5), 0.0);

  // Four samples in the (1, 4] bucket: every quantile interpolates inside
  // that bucket's bounds.
  HistogramData h;
  for (int i = 0; i < 4; ++i) h.Observe(3);
  for (const double q : {0.25, 0.5, 0.95}) {
    const double v = obs::HistogramQuantile(h, q);
    EXPECT_GT(v, 1.0) << "q=" << q;
    EXPECT_LE(v, 4.0) << "q=" << q;
  }
  EXPECT_LT(obs::HistogramQuantile(h, 0.25), obs::HistogramQuantile(h, 0.95));

  // Samples in the +Inf overflow bucket clamp to the top finite bound.
  HistogramData inf;
  inf.Observe(obs::kHistBucketBounds.back() + 123);
  EXPECT_EQ(obs::HistogramQuantile(inf, 0.99),
            static_cast<double>(obs::kHistBucketBounds.back()));
}

TEST(ObsWindowTest, RatePerSecUsesWindowDuration) {
  obs::WindowSnapshot window;
  window.delta.Add(Counter::kNntInsertEdges, 500);
  window.duration_micros = 250000;  // 0.25 s.
  EXPECT_DOUBLE_EQ(obs::RatePerSec(window, Counter::kNntInsertEdges), 2000.0);
  EXPECT_DOUBLE_EQ(obs::RatePerSec(window, Counter::kNntDeleteEdges), 0.0);
  window.duration_micros = 0;
  EXPECT_DOUBLE_EQ(obs::RatePerSec(window, Counter::kNntInsertEdges), 0.0);
}

TEST(ObsWindowTest, AdvanceRollsTheRingKeepingMostRecent) {
  obs::MetricsRegistry::Global().Reset();
  obs::WindowedTelemetry& telemetry = obs::WindowedTelemetry::Global();
  EXPECT_EQ(telemetry.Latest().seq, 0) << "no window closed after reset";

  for (int i = 1; i <= 11; ++i) {
    MetricSink sink;
    sink.Add(Counter::kNntInsertEdges, i);
    obs::MetricsRegistry::Global().MergeAndReset(sink);
    const obs::WindowSnapshot closed = telemetry.Advance();
    EXPECT_EQ(closed.seq, i);
    EXPECT_EQ(closed.delta.Value(Counter::kNntInsertEdges), i);
    // Latest() is the window the last Advance() returned.
    const obs::WindowSnapshot latest = telemetry.Latest();
    EXPECT_EQ(latest.seq, closed.seq);
    EXPECT_EQ(latest.start_micros, closed.start_micros);
    EXPECT_EQ(latest.duration_micros, closed.duration_micros);
    EXPECT_EQ(latest.delta, closed.delta);
  }
  obs::MetricsRegistry::Global().Reset();
}

TEST(ObsWindowTest, WindowsPlusOpenWindowPartitionTheCumulative) {
  // Epoch-close merges land on either side of a window boundary; every
  // sample must land in exactly one window, never zero or two.
  obs::MetricsRegistry::Global().Reset();
  MetricSink reassembled;
  MetricSink a = SampleSinkA();
  obs::MetricsRegistry::Global().MergeAndReset(a);
  // Boundary between merges.
  reassembled.MergeFrom(obs::WindowedTelemetry::Global().Advance().delta);
  MetricSink b = SampleSinkB();
  obs::MetricsRegistry::Global().MergeAndReset(b);
  reassembled.MergeFrom(obs::WindowedTelemetry::Global().Advance().delta);
  MetricSink c;
  c.Add(Counter::kJoinPairsIn, 5);
  c.Observe(Hist::kStageJoinRefreshMicros, 9);
  obs::MetricsRegistry::Global().MergeAndReset(c);  // Stays in the open window.

  reassembled.MergeFrom(obs::WindowedTelemetry::Global().OpenDelta());
  EXPECT_EQ(reassembled, obs::MetricsRegistry::Global().Snapshot());
  obs::MetricsRegistry::Global().Reset();
}

// --- Exemplars -------------------------------------------------------------

TEST(ObsExemplarTest, StageSampleThresholdIsInclusive) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (GSPS_OBS_DISABLED)";
  }
  obs::ExemplarStore::Global().Reset();
  const int64_t threshold = obs::kExemplarThresholdMicros;
  MetricSink sink;
  obs::ScopedObsContext scope(&sink, nullptr);
  obs::StageSample(obs::Stage::kJoinRefresh, 10, threshold - 1, /*stream=*/0);
  obs::StageSample(obs::Stage::kJoinRefresh, 20, threshold, /*stream=*/2);
  obs::StageSample(obs::Stage::kJoinRefresh, 30, threshold + 1, /*stream=*/4);

  std::vector<obs::Span> exemplars;
  obs::ExemplarStore::Global().Snapshot(&exemplars);
  ASSERT_EQ(exemplars.size(), 2u) << "threshold - 1 is below the threshold";
  EXPECT_EQ(exemplars[0].dur_micros, threshold);
  EXPECT_EQ(exemplars[0].ts_micros, 20);
  EXPECT_EQ(exemplars[0].stage, obs::Stage::kJoinRefresh);
  EXPECT_EQ(exemplars[0].stream, 2);
  EXPECT_NE(exemplars[0].span_id, 0u);
  EXPECT_EQ(exemplars[1].dur_micros, threshold + 1);
  EXPECT_NE(exemplars[1].span_id, exemplars[0].span_id);
  // All three samples still count in the histogram.
  EXPECT_EQ(sink.histogram(Hist::kStageJoinRefreshMicros).count, 3);
  obs::ExemplarStore::Global().Reset();
}

TEST(ObsExemplarTest, RingEvictsOldestOnceFull) {
  obs::ExemplarStore::Global().Reset();
  for (int i = 0; i < obs::kExemplarRingSize + 5; ++i) {
    obs::Span span;
    span.stage = obs::Stage::kNntMaintain;
    span.dur_micros = i;
    obs::ExemplarStore::Global().Record(span);
  }
  std::vector<obs::Span> exemplars;
  obs::ExemplarStore::Global().Snapshot(&exemplars);
  ASSERT_EQ(exemplars.size(), static_cast<size_t>(obs::kExemplarRingSize));
  EXPECT_EQ(exemplars.front().dur_micros, 5);
  EXPECT_EQ(exemplars.back().dur_micros, obs::kExemplarRingSize + 4);
  obs::ExemplarStore::Global().Reset();
}

// A pipelined engine's workers index their streams shard-locally; every
// stage span they record must still name the global stream. Four streams
// on two workers, one event per stream per timestamp: each stream owns
// exactly one NNT-maintain and one dirty-drain span per timestamp.
TEST(ObsExemplarTest, PipelinedStageSpansNameGlobalStreams) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (GSPS_OBS_DISABLED)";
  }
  SyntheticStreamParams params;
  params.num_pairs = 4;
  params.evolution.num_timestamps = 6;
  params.seed = 5;
  const StreamDataset dataset = MakeSyntheticStreams(params);
  const int num_streams = static_cast<int>(dataset.streams.size());
  ASSERT_EQ(num_streams, 4);

  const std::string path = ::testing::TempDir() + "/obs_stream_labels.json";
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Arm(path.c_str());
  recorder.Reset();
  {
    PipelinedEngineOptions options;
    options.num_threads = 2;
    PipelinedQueryEngine engine(options);
    for (const Graph& q : dataset.queries) engine.AddQuery(q);
    for (const GraphStream& s : dataset.streams) {
      engine.AddStream(s.StartGraph());
    }
    engine.Start();
    for (int t = 1; t < params.evolution.num_timestamps; ++t) {
      for (int i = 0; i < num_streams; ++i) {
        IngestEvent event;
        event.stream = i;
        event.timestamp = t;
        event.change = dataset.streams[static_cast<size_t>(i)].ChangeAt(t);
        ASSERT_TRUE(engine.Ingest(std::move(event)));
      }
      engine.AdvanceEpoch(t);
    }
    engine.Shutdown();
  }
  const bool dumped = recorder.DumpNow();
  recorder.Disarm();
  recorder.Reset();
  ASSERT_TRUE(dumped);
  const std::string text = ReadWholeFile(path);

  const int ticks = params.evolution.num_timestamps - 1;
  for (const obs::Stage stage :
       {obs::Stage::kNntMaintain, obs::Stage::kDirtyDrain}) {
    const std::string span =
        std::string("\"stage\":") + std::to_string(static_cast<int>(stage)) +
        ",\"stream\":";
    for (int i = 0; i < num_streams; ++i) {
      EXPECT_EQ(CountOccurrences(text, span + std::to_string(i) + ","), ticks)
          << obs::StageName(stage) << " spans of stream " << i;
    }
  }
}

// --- Scoped context --------------------------------------------------------

TEST(ObsContextTest, ScopedContextInstallsNestsAndRestores) {
  EXPECT_EQ(obs::CurrentSink(), nullptr);
  MetricSink outer_sink, inner_sink;
  {
    obs::ScopedObsContext outer(&outer_sink, nullptr);
    EXPECT_EQ(obs::CurrentSink(), &outer_sink);
    {
      obs::ScopedObsContext inner(&inner_sink, nullptr);
      EXPECT_EQ(obs::CurrentSink(), &inner_sink);
      GSPS_OBS_COUNT(Counter::kNntInsertEdges, 2);
    }
    EXPECT_EQ(obs::CurrentSink(), &outer_sink);
    GSPS_OBS_COUNT(Counter::kNntInsertEdges, 1);
  }
  EXPECT_EQ(obs::CurrentSink(), nullptr);
  GSPS_OBS_COUNT(Counter::kNntInsertEdges, 100);  // No context: dropped.
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(inner_sink.Value(Counter::kNntInsertEdges), 2);
    EXPECT_EQ(outer_sink.Value(Counter::kNntInsertEdges), 1);
  } else {
    EXPECT_EQ(inner_sink.Value(Counter::kNntInsertEdges), 0);
    EXPECT_EQ(outer_sink.Value(Counter::kNntInsertEdges), 0);
  }
}

// --- Trace JSON ------------------------------------------------------------

TEST(ObsTraceTest, TraceJsonParsesBackWithAllSpans) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  obs::TraceBuffer* driver = tracer.NewBuffer(/*tid=*/0);
  obs::TraceBuffer* shard = tracer.NewBuffer(/*tid=*/1);
  ASSERT_NE(driver, nullptr);
  ASSERT_NE(shard, nullptr);

  {
    // ScopedSpan works in both build modes; only the GSPS_OBS_SPAN macro is
    // compiled out under GSPS_OBS_DISABLED.
    obs::ScopedObsContext scope(nullptr, driver);
    obs::ScopedSpan span("tick", "monitor");
  }
  obs::Span update;
  update.name = "shard_update";
  update.category = "engine";
  update.ts_micros = 5;
  update.dur_micros = 10;
  shard->Record(update);
  obs::Span join = update;
  join.name = "shard_join";
  join.ts_micros = 20;
  join.dur_micros = 2;
  shard->Record(join);

  const std::string json = tracer.ToJson();
  JsonParser parser(json);
  EXPECT_TRUE(parser.Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 3);
  EXPECT_EQ(CountOccurrences(json, "\"tid\":0"), 1);
  EXPECT_EQ(CountOccurrences(json, "\"tid\":1"), 2);
  EXPECT_NE(json.find("\"name\":\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"pid\":1"), 3);

  tracer.Clear();
  EXPECT_EQ(tracer.NewBuffer(2), nullptr) << "disabled tracer hands out null";
  const std::string empty = tracer.ToJson();
  JsonParser empty_parser(empty);
  EXPECT_TRUE(empty_parser.Valid()) << empty;
  EXPECT_EQ(CountOccurrences(empty, "\"ph\":\"X\""), 0);
}

// --- One span record -------------------------------------------------------

// Integer value of `"key":` in the first JSON object of `text` that
// contains `needle`; INT64_MIN when there is none.
int64_t FieldOf(const std::string& text, const std::string& needle,
                const std::string& key) {
  const size_t at = text.find(needle);
  if (at == std::string::npos) return INT64_MIN;
  const size_t begin = text.rfind('{', at);
  const size_t end = text.find('}', at);
  const std::string quoted = "\"" + key + "\":";
  const size_t field = text.find(quoted, begin);
  if (field == std::string::npos || field > end) return INT64_MIN;
  return std::strtoll(text.c_str() + field + quoted.size(), nullptr, 10);
}

// Integer value of ` key=` on an exemplar line; INT64_MIN when absent.
int64_t ExemplarField(const std::string& line, const std::string& key) {
  const size_t field = line.find(" " + key + "=");
  if (field == std::string::npos) return INT64_MIN;
  return std::strtoll(line.c_str() + field + key.size() + 2, nullptr, 10);
}

// With a trace buffer installed and the flight recorder armed, a scoped
// span lands in both.
TEST(ObsSpanTest, ScopedSpanReachesTraceAndFlightRecorder) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  obs::TraceBuffer* trace = tracer.NewBuffer(/*tid=*/0);
  ASSERT_NE(trace, nullptr);
  const std::string path = ::testing::TempDir() + "/obs_scoped_span.json";
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Arm(path.c_str());
  recorder.Reset();
  {
    obs::ScopedObsContext scope(nullptr, trace);
    obs::ScopedSpan span("tick", "monitor");
  }
  const bool dumped = recorder.DumpNow();
  recorder.Disarm();
  recorder.Reset();
  const std::string json = tracer.ToJson();
  tracer.Clear();
  ASSERT_TRUE(dumped);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"tick\""), 1) << json;
  const std::string dump = ReadWholeFile(path);
  EXPECT_EQ(CountOccurrences(dump, "\"name\":\"tick\""), 1) << dump;
}

// One tail stage sample inside one scoped span, with a trace buffer
// installed and the recorder armed: the exemplar line, the trace event and
// the flight span describe the same record, and both timed outputs space
// the two spans alike.
TEST(ObsSpanTest, OneSpanThreeViewsOneClock) {
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  obs::TraceBuffer* trace = tracer.NewBuffer(/*tid=*/0);
  ASSERT_NE(trace, nullptr);
  const std::string path = ::testing::TempDir() + "/obs_one_span.json";
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Arm(path.c_str());
  recorder.Reset();

  const int64_t duration = obs::kExemplarThresholdMicros + 234;
  const std::vector<int> global_streams = {7, 3};
  MetricSink sink;
  {
    obs::ScopedObsContext scope(&sink, trace, &global_streams);
    obs::ScopedSpan tick("tick", "monitor");
    obs::StageSample(obs::Stage::kNntMaintain, obs::MonotonicMicros(),
                     duration, /*stream=*/1);
  }
  const bool dumped = recorder.DumpNow();
  recorder.Disarm();
  recorder.Reset();
  const std::string json = tracer.ToJson();
  tracer.Clear();
  const std::string text = obs::ToPrometheusText(sink);
  obs::MetricsRegistry::Global().Reset();
  ASSERT_TRUE(dumped);
  const std::string dump = ReadWholeFile(path);

  const size_t line_at =
      text.find("# exemplar gsps_stage_nnt_maintain_micros ");
  ASSERT_NE(line_at, std::string::npos) << text;
  const std::string line = text.substr(line_at, text.find('\n', line_at) -
                                                    line_at);
  EXPECT_NE(line.find(" stage=nnt_maintain "), std::string::npos) << line;
  EXPECT_EQ(ExemplarField(line, "value"), duration) << line;
  EXPECT_EQ(ExemplarField(line, "stream"), 3) << line;
  const int64_t span_id = ExemplarField(line, "span_id");
  EXPECT_GT(span_id, 0) << line;

  const std::string stage_span = "\"name\":\"stage_nnt_maintain\"";
  const std::string tick_span = "\"name\":\"tick\"";
  EXPECT_EQ(FieldOf(json, stage_span, "span_id"), span_id) << json;
  EXPECT_EQ(FieldOf(json, stage_span, "dur"), duration) << json;
  EXPECT_EQ(FieldOf(dump, stage_span, "span_id"), span_id) << dump;
  EXPECT_EQ(FieldOf(dump, stage_span, "stage"),
            static_cast<int>(obs::Stage::kNntMaintain))
      << dump;
  EXPECT_EQ(FieldOf(dump, stage_span, "stream"), 3) << dump;
  EXPECT_EQ(FieldOf(dump, stage_span, "dur"), duration) << dump;
  EXPECT_EQ(FieldOf(dump, stage_span, "ts"), ExemplarField(line, "ts"))
      << dump;

  // One clock: the trace counts from Enable(), the dump from the process
  // epoch, and the gap between the two spans is the same in both.
  ASSERT_NE(FieldOf(json, tick_span, "ts"), INT64_MIN) << json;
  ASSERT_NE(FieldOf(dump, tick_span, "ts"), INT64_MIN) << dump;
  EXPECT_EQ(FieldOf(json, stage_span, "ts") - FieldOf(json, tick_span, "ts"),
            FieldOf(dump, stage_span, "ts") - FieldOf(dump, tick_span, "ts"));
  EXPECT_EQ(FieldOf(json, tick_span, "dur"), FieldOf(dump, tick_span, "dur"));
}

// A pipelined worker sets its shard up under its own obs context, so the
// registry holds the same setup metrics after Start as a shard started
// under a context of its own: NntSet::Build's stage samples (one per query
// and stream) and the strategies' setup-time kernel batches (Skyline's plan
// build, DSC's fresh-vertex seeds). One worker holds every stream, and the
// shard reads each stream's candidates once, as the epoch-0 marker does.
TEST(ObsPipelinedTest, WorkerSetupRecordsLikeAStartedShard) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (GSPS_OBS_DISABLED)";
  }
  SyntheticStreamParams params;
  params.num_pairs = 3;
  params.evolution.num_timestamps = 2;
  params.seed = 11;
  const StreamDataset dataset = MakeSyntheticStreams(params);
  const Counter batches = DominanceBatchCounter(ActiveDominanceIsa());

  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
        JoinKind::kSkylineEarlyStop}) {
    EngineOptions engine_options;
    engine_options.join_kind = kind;
    MetricSink shard_sink;
    {
      obs::ScopedObsContext scope(&shard_sink, nullptr);
      StreamShard shard(engine_options);
      for (const Graph& q : dataset.queries) shard.AddQuery(q);
      for (const GraphStream& s : dataset.streams) {
        shard.AddStream(s.StartGraph());
      }
      shard.Start();
      std::vector<int> candidates;
      for (int i = 0; i < shard.num_streams(); ++i) {
        shard.CandidatesForStream(i, &candidates);
      }
    }

    obs::MetricsRegistry::Global().Reset();
    {
      PipelinedEngineOptions options;
      options.engine = engine_options;
      options.num_threads = 1;
      PipelinedQueryEngine engine(options);
      for (const Graph& q : dataset.queries) engine.AddQuery(q);
      for (const GraphStream& s : dataset.streams) {
        engine.AddStream(s.StartGraph());
      }
      engine.Start();
      const MetricSink started = obs::MetricsRegistry::Global().Snapshot();
      EXPECT_EQ(started.Value(batches), shard_sink.Value(batches))
          << JoinKindName(kind);
      if (kind == JoinKind::kSkylineEarlyStop) {
        EXPECT_GT(started.Value(batches), 0) << "Skyline's plan build";
      }
      EXPECT_GT(started.histogram(Hist::kStageNntMaintainMicros).count, 0)
          << JoinKindName(kind);
      EXPECT_EQ(started.histogram(Hist::kStageNntMaintainMicros).count,
                shard_sink.histogram(Hist::kStageNntMaintainMicros).count)
          << JoinKindName(kind);
      engine.Shutdown();
    }
    obs::MetricsRegistry::Global().Reset();
  }
}

// --- End to end: the instrumented engine -----------------------------------

// Runs the threaded engine (2 workers, one epoch per tick: updates, then
// the join at the epoch close) over an evolving workload for one join
// strategy, recording driver-thread metrics into `root_sink` and worker
// metrics into the registry (merged at every epoch close).
void DriveEngine(const StreamDataset& dataset, JoinKind kind,
                 MetricSink& root_sink) {
  obs::ScopedObsContext scope(&root_sink, nullptr);
  PipelinedEngineOptions options;
  options.engine.join_kind = kind;
  options.engine.nnt_depth = 3;
  options.num_threads = 2;
  PipelinedQueryEngine engine(options);
  for (const Graph& q : dataset.queries) engine.AddQuery(q);
  int horizon = 0;
  for (const GraphStream& s : dataset.streams) {
    engine.AddStream(s.StartGraph());
    horizon = std::max(horizon, s.NumTimestamps());
  }
  engine.Start();
  int32_t epoch = 0;
  for (int t = 1; t < horizon; ++t) {
    for (size_t i = 0; i < dataset.streams.size(); ++i) {
      const GraphStream& s = dataset.streams[i];
      IngestEvent event;
      event.stream = static_cast<int32_t>(i);
      event.timestamp = t;
      if (t < s.NumTimestamps()) event.change = s.ChangeAt(t);
      engine.Ingest(std::move(event));
    }
    engine.AdvanceEpoch(t);
    epoch = t;
  }
  // An epoch with no intervening deltas is answered from the per-stream
  // verdict caches (gsps_join_verdicts_reused).
  engine.AdvanceEpoch(++epoch);
  // Dynamic churn: a query over labels no synthetic query uses introduces
  // fresh dimensions, which every strategy registers
  // (gsps_remap_regrowths); the remove exercises slot retirement and the
  // gsps_queries_active gauge.
  Graph churn_query;
  churn_query.EnsureVertex(0, 91);
  churn_query.EnsureVertex(1, 92);
  churn_query.AddEdge(0, 1, 93);
  const int churn_id = engine.AddQueryDynamic(churn_query);
  engine.AdvanceEpoch(++epoch);
  engine.RemoveQueryDynamic(churn_id);
  engine.AdvanceEpoch(++epoch);
}

TEST(ObsEndToEndTest, EveryMetricNonzeroAfterInstrumentedRun) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (GSPS_OBS_DISABLED)";
  }
  obs::MetricsRegistry::Global().Reset();

  SyntheticStreamParams params;
  params.num_pairs = 6;
  params.evolution.num_timestamps = 10;
  params.evolution.p_appear = 0.25;
  params.evolution.p_disappear = 0.2;
  params.evolution.extra_pair_fraction = 3.0;
  params.seed = 7;
  const StreamDataset dataset = MakeSyntheticStreams(params);

  MetricSink root_sink;
  // All three strategies so NL/Skyline (dominance tests, early stops) and
  // DSC (set-cover rounds/flips/toggles) counters all fire.
  DriveEngine(dataset, JoinKind::kNestedLoop, root_sink);
  DriveEngine(dataset, JoinKind::kDominatedSetCover, root_sink);
  DriveEngine(dataset, JoinKind::kSkylineEarlyStop, root_sink);

  // Candidate transitions, driven deterministically.
  {
    obs::ScopedObsContext scope(&root_sink, nullptr);
    CandidateTracker tracker(1);
    tracker.Observe(0, {0, 1});
    tracker.Observe(0, {1, 2});  // q0 disappears, q2 appears.
  }

  // Ingest pipeline: a capacity-1 queue whose second Push blocks until the
  // consumer drains, reported into the sink the way
  // PipelinedQueryEngine::Shutdown does.
  {
    obs::ScopedObsContext scope(&root_sink, nullptr);
    IngestQueue queue(1);
    ASSERT_TRUE(queue.Push(IngestEvent{}));
    std::thread producer([&] { queue.Push(IngestEvent{}); });
    // producer_waits is bumped before the blocking wait, so spinning on it
    // guarantees the second Push observed a full queue.
    while (queue.Stats().producer_waits < 1) std::this_thread::yield();
    IngestEvent event;
    ASSERT_TRUE(queue.Pop(&event));
    ASSERT_TRUE(queue.Pop(&event));
    producer.join();
    queue.Close();
    const IngestQueueStats stats = queue.Stats();
    obs::CurrentSink()->Add(Counter::kIngestAccepted, stats.accepted);
    obs::CurrentSink()->Add(Counter::kIngestDelivered, stats.delivered);
    obs::CurrentSink()->Add(Counter::kIngestProducerWaits,
                            stats.producer_waits);
    obs::CurrentSink()->Set(Gauge::kIngestQueueDepth, stats.depth_high_water);
    obs::CurrentSink()->Observe(
        Hist::kIngestE2eMicros,
        obs::MonotonicMicros() - event.enqueue_micros + 1);
  }

  // The pipelined engine end to end: router fan-out, lane depth, delta
  // coalescing, and the epoch-watermark protocol. Each timestamp batch is
  // split into two fragments so the worker-side coalescer must merge them
  // (gsps_pipeline_coalesced_deltas); Shutdown folds the router counters.
  {
    PipelinedEngineOptions options;
    options.num_threads = 2;
    PipelinedQueryEngine engine(options);
    for (const Graph& q : dataset.queries) engine.AddQuery(q);
    int horizon = 0;
    for (const GraphStream& s : dataset.streams) {
      engine.AddStream(s.StartGraph());
      horizon = std::max(horizon, s.NumTimestamps());
    }
    engine.Start();
    for (int t = 1; t < horizon; ++t) {
      for (size_t i = 0; i < dataset.streams.size(); ++i) {
        const GraphStream& s = dataset.streams[i];
        if (t >= s.NumTimestamps()) continue;
        const GraphChange change = s.ChangeAt(t);
        const auto half =
            change.ops.begin() +
            static_cast<std::ptrdiff_t>(change.ops.size() / 2);
        IngestEvent first;
        first.stream = static_cast<int32_t>(i);
        first.timestamp = t;
        first.change.ops.assign(change.ops.begin(), half);
        IngestEvent second;
        second.stream = static_cast<int32_t>(i);
        second.timestamp = t;
        second.change.ops.assign(half, change.ops.end());
        ASSERT_TRUE(engine.Ingest(std::move(first)));
        ASSERT_TRUE(engine.Ingest(std::move(second)));
      }
      engine.AdvanceEpoch(t);
      engine.AllCandidatePairs();
    }
    engine.Shutdown();
  }

  // The engine runs bump only the dispatched ISA's batch counter; drive the
  // other supported ISAs through forced batches the way the kernel bench
  // does. Unsupported ISAs stay at zero and are exempted below.
  {
    obs::ScopedObsContext scope(&root_sink, nullptr);
    std::vector<NpvEntry> needle = {NpvEntry{0, 1}};
    NpvSlab slab;
    slab.Append(needle);
    for (int i = 0; i < kNumDominanceIsas; ++i) {
      const DominanceIsa isa = static_cast<DominanceIsa>(i);
      if (!DominanceIsaSupported(isa)) continue;
      DominanceBatch batch(isa);
      batch.Bind(slab, 1);
      DominanceKernelStats stats;
      batch.ComputeMask(needle.data(), needle.data() + needle.size(),
                        slab.signature(0), &stats);
      obs::CurrentSink()->Add(DominanceBatchCounter(batch.isa()), stats.batches);
    }
  }

  obs::MetricsRegistry::Global().MergeAndReset(root_sink);
  const MetricSink snapshot = obs::MetricsRegistry::Global().Snapshot();
  for (int i = 0; i < obs::kNumCounters; ++i) {
    const Counter counter = static_cast<Counter>(i);
    if (counter == Counter::kDominanceBatchesAvx2 &&
        !DominanceIsaSupported(DominanceIsa::kAvx2)) {
      EXPECT_EQ(snapshot.Value(counter), 0) << obs::CounterName(counter);
      continue;
    }
    EXPECT_GT(snapshot.Value(counter), 0) << obs::CounterName(counter);
  }
  for (int i = 0; i < obs::kNumGauges; ++i) {
    const Gauge gauge = static_cast<Gauge>(i);
    EXPECT_GT(snapshot.GaugeValue(gauge), 0) << obs::GaugeName(gauge);
  }
  for (int i = 0; i < obs::kNumHists; ++i) {
    const Hist hist = static_cast<Hist>(i);
    EXPECT_GT(snapshot.histogram(hist).count, 0) << obs::HistName(hist);
  }
  obs::MetricsRegistry::Global().Reset();
}

}  // namespace
}  // namespace gsps
