#include "gsps/obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

#include "gsps/obs/exemplar.h"
#include "gsps/obs/flight_recorder.h"
#include "gsps/obs/window.h"

#if !defined(GSPS_BUILD_TYPE)
#define GSPS_BUILD_TYPE "unspecified"
#endif

namespace gsps::obs {

namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "gsps_nnt_insert_edges",
    "gsps_nnt_delete_edges",
    "gsps_nnt_paths_touched",
    "gsps_nnt_tree_nodes_created",
    "gsps_nnt_tree_nodes_freed",
    "gsps_nnt_roots_dirtied",
    "gsps_join_dominance_tests",
    "gsps_join_skyline_early_stops",
    "gsps_join_set_cover_rounds",
    "gsps_join_set_cover_flips",
    "gsps_join_set_cover_toggles",
    "gsps_join_pairs_in",
    "gsps_join_pairs_out",
    "gsps_join_verdicts_reused",
    "gsps_join_signature_rejects",
    "gsps_remap_regrowths",
    "gsps_dominance_batches_scalar",
    "gsps_dominance_batches_avx2",
    "gsps_tracker_observations",
    "gsps_tracker_appeared",
    "gsps_tracker_disappeared",
    "gsps_ingest_accepted",
    "gsps_ingest_delivered",
    "gsps_ingest_producer_waits",
    "gsps_pipeline_events_routed",
    "gsps_pipeline_markers_broadcast",
    "gsps_pipeline_coalesced_deltas",
};

constexpr const char* kGaugeNames[kNumGauges] = {
    "gsps_engine_shards",
    "gsps_engine_streams",
    "gsps_engine_queries",
    "gsps_queries_active",
    "gsps_ingest_queue_depth",
    "gsps_pipeline_lane_depth",
    "gsps_shard_imbalance_ratio",
};

constexpr const char* kHistNames[kNumHists] = {
    "gsps_stage_nnt_maintain_micros",
    "gsps_stage_dirty_drain_micros",
    "gsps_stage_join_refresh_micros",
    "gsps_stage_tracker_observe_micros",
    "gsps_ingest_e2e_micros",
    "gsps_pipeline_watermark_lag_micros",
};

constexpr const char* kCounterHelp[kNumCounters] = {
    "NNT InsertEdge calls applied",
    "NNT DeleteEdge calls applied",
    "Backward walks enumerated by NNT insert/delete",
    "NNT tree nodes (paths) counted in",
    "NNT tree nodes (paths) counted out",
    "Roots whose NPV went clean to dirty",
    "Pairwise NPV dominance evaluations",
    "Pairs pruned at the first uncovered skyline point",
    "Dominated-set-cover maintenance rounds",
    "Dominated-set-cover domination-status flips",
    "Dimensions that appeared in or vanished from a DSC stream vertex NPV",
    "Stream/query pairs evaluated by the join",
    "Pairs surviving the join as candidates",
    "Join calls answered from cached per-stream verdicts",
    "Dominance pairs rejected on the 64-bit signature alone",
    "Runtime-added query vectors that brought new dimensions",
    "Dominance kernel batches on the scalar path",
    "Dominance kernel batches on the AVX2 path",
    "CandidateTracker observations",
    "Candidate pairs that appeared",
    "Candidate pairs that disappeared",
    "Events accepted into the ingest queue",
    "Ingest events delivered to the consumer",
    "Ingest pushes that blocked on a full queue",
    "Data events forwarded by the pipeline router to shard lanes",
    "Epoch/control markers broadcast to every shard lane",
    "Delta fragments coalesced into a pending same-timestamp batch",
};

constexpr const char* kGaugeHelp[kNumGauges] = {
    "Shards in the pipelined engine",
    "Streams registered with the engine",
    "Query slots registered with the engine",
    "Registered queries currently live",
    "Ingest queue depth high-water mark",
    "Per-shard pipeline lane depth high-water mark",
    "Max/mean initial shard edge load in millis (1000 = balanced)",
};

constexpr const char* kHistHelp[kNumHists] = {
    "Stage micros: NNT edge maintenance",
    "Stage micros: dirty-root drain into the join strategy",
    "Stage micros: join verdict recompute, sampled 1 refresh in 8 "
    "(_count is not the refresh count)",
    "Stage micros: candidate tracker observe",
    "End-to-end ingest micros: enqueue stamp to engine apply",
    "Epoch micros: marker publish stamp to shard watermark advance",
};

constexpr const char* kStageNames[kNumStages] = {
    "nnt_maintain", "dirty_drain", "join_refresh", "tracker_observe",
};

std::atomic<const char*> g_build_info_isa{"unknown"};

std::string FormatInt(int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld",
                static_cast<long long>(value));
  return buffer;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

// The aggregate behind MetricsRegistry::Global(). Kept out of the class so
// metrics.h stays free of <mutex>.
struct RegistryState {
  std::mutex mutex;
  MetricSink root;
};

RegistryState& State() {
  static RegistryState* state = new RegistryState();
  return *state;
}

}  // namespace

const char* CounterName(Counter counter) {
  return kCounterNames[static_cast<size_t>(counter)];
}

const char* GaugeName(Gauge gauge) {
  return kGaugeNames[static_cast<size_t>(gauge)];
}

const char* HistName(Hist hist) {
  return kHistNames[static_cast<size_t>(hist)];
}

const char* CounterHelp(Counter counter) {
  return kCounterHelp[static_cast<size_t>(counter)];
}

const char* GaugeHelp(Gauge gauge) {
  return kGaugeHelp[static_cast<size_t>(gauge)];
}

const char* HistHelp(Hist hist) {
  return kHistHelp[static_cast<size_t>(hist)];
}

const char* StageName(Stage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

void SetBuildInfoIsa(const char* isa) {
  g_build_info_isa.store(isa != nullptr ? isa : "unknown",
                         std::memory_order_relaxed);
}

const char* BuildInfoIsa() {
  return g_build_info_isa.load(std::memory_order_relaxed);
}

int HistogramData::BucketIndex(int64_t value) {
  const auto it = std::lower_bound(kHistBucketBounds.begin(),
                                   kHistBucketBounds.end(), value);
  return static_cast<int>(it - kHistBucketBounds.begin());
}

void HistogramData::Observe(int64_t value) {
  ++buckets[static_cast<size_t>(BucketIndex(value))];
  ++count;
  sum += value;
}

void HistogramData::MergeFrom(const HistogramData& other) {
  for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

void MetricSink::MergeFrom(const MetricSink& other) {
  for (int i = 0; i < kNumCounters; ++i) {
    counters_[static_cast<size_t>(i)] += other.counters_[static_cast<size_t>(i)];
  }
  for (int i = 0; i < kNumGauges; ++i) {
    gauges_[static_cast<size_t>(i)] =
        std::max(gauges_[static_cast<size_t>(i)],
                 other.gauges_[static_cast<size_t>(i)]);
  }
  for (int i = 0; i < kNumHists; ++i) {
    hists_[static_cast<size_t>(i)].MergeFrom(
        other.hists_[static_cast<size_t>(i)]);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::MergeAndReset(MetricSink& sink) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.root.MergeFrom(sink);
  // Every merged sample also lands in the open telemetry window, so
  // windows partition the cumulative aggregate exactly (window.h). The
  // registry lock is always taken before the window lock.
  WindowedTelemetry::Global().Fold(sink);
  if (FlightRecorderArmed()) {
    FlightRecorder::Global().PublishCumulative(state.root);
  }
  sink.Reset();
}

MetricSink MetricsRegistry::Snapshot() const {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.root;
}

void MetricsRegistry::Reset() {
  RegistryState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.root.Reset();
  }
  WindowedTelemetry::Global().Reset();
  ExemplarStore::Global().Reset();
}

namespace {

constexpr double kWindowQuantiles[3] = {0.5, 0.95, 0.99};
constexpr const char* kWindowQuantileLabels[3] = {"0.5", "0.95", "0.99"};

}  // namespace

std::string ToPrometheusText(const MetricSink& snapshot) {
  std::string out;
  for (int i = 0; i < kNumCounters; ++i) {
    const Counter counter = static_cast<Counter>(i);
    const std::string name = std::string(CounterName(counter)) + "_total";
    out += "# HELP " + name + " " + CounterHelp(counter) + "\n";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + FormatInt(snapshot.Value(counter)) + "\n";
  }
  for (int i = 0; i < kNumGauges; ++i) {
    const Gauge gauge = static_cast<Gauge>(i);
    out += "# HELP " + std::string(GaugeName(gauge)) + " " +
           GaugeHelp(gauge) + "\n";
    out += "# TYPE " + std::string(GaugeName(gauge)) + " gauge\n";
    out += std::string(GaugeName(gauge)) + " " +
           FormatInt(snapshot.GaugeValue(gauge)) + "\n";
  }
  for (int i = 0; i < kNumHists; ++i) {
    const Hist hist = static_cast<Hist>(i);
    const HistogramData& data = snapshot.histogram(hist);
    const std::string name = HistName(hist);
    out += "# HELP " + name + " " + HistHelp(hist) + "\n";
    out += "# TYPE " + name + " histogram\n";
    int64_t cumulative = 0;
    for (size_t b = 0; b < kHistBucketBounds.size(); ++b) {
      cumulative += data.buckets[b];
      out += name + "_bucket{le=\"" + FormatInt(kHistBucketBounds[b]) +
             "\"} " + FormatInt(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + FormatInt(data.count) + "\n";
    out += name + "_sum " + FormatInt(data.sum) + "\n";
    out += name + "_count " + FormatInt(data.count) + "\n";
  }

  // Build identity, so scraped artifacts are self-describing.
  out += "# HELP gsps_build_info Build identity labels (value is always 1)\n";
  out += "# TYPE gsps_build_info gauge\n";
  out += std::string("gsps_build_info{isa=\"") + BuildInfoIsa() +
         "\",obs=\"" + (kEnabled ? "on" : "off") + "\",build=\"" +
         GSPS_BUILD_TYPE "\"} 1\n";

  // Latest closed telemetry window: rates and per-histogram quantiles.
  const WindowSnapshot window = WindowedTelemetry::Global().Latest();
  out += "# HELP gsps_window_seq Close order of the latest telemetry "
         "window (0 when none)\n";
  out += "# TYPE gsps_window_seq gauge\n";
  out += "gsps_window_seq " + FormatInt(window.seq) + "\n";
  out += "# HELP gsps_window_duration_micros Duration of the latest "
         "window\n";
  out += "# TYPE gsps_window_duration_micros gauge\n";
  out += "gsps_window_duration_micros " + FormatInt(window.duration_micros) +
         "\n";
  out += "# HELP gsps_window_events_per_sec Edge events per second over "
         "the latest window\n";
  out += "# TYPE gsps_window_events_per_sec gauge\n";
  out += "gsps_window_events_per_sec " +
         FormatDouble(RatePerSec(window, Counter::kNntInsertEdges) +
                      RatePerSec(window, Counter::kNntDeleteEdges)) +
         "\n";
  out += "# HELP gsps_window_dominance_tests_per_sec Dominance tests per "
         "second over the latest window\n";
  out += "# TYPE gsps_window_dominance_tests_per_sec gauge\n";
  out += "gsps_window_dominance_tests_per_sec " +
         FormatDouble(RatePerSec(window, Counter::kJoinDominanceTests)) + "\n";
  out += "# HELP gsps_window_quantile_micros Interpolated latency "
         "quantiles over the latest window\n";
  out += "# TYPE gsps_window_quantile_micros gauge\n";
  for (int i = 0; i < kNumHists; ++i) {
    const Hist hist = static_cast<Hist>(i);
    const HistogramData& data = window.delta.histogram(hist);
    for (int q = 0; q < 3; ++q) {
      out += std::string("gsps_window_quantile_micros{hist=\"") +
             HistName(hist) + "\",quantile=\"" + kWindowQuantileLabels[q] +
             "\"} " + FormatDouble(HistogramQuantile(data, kWindowQuantiles[q])) +
             "\n";
    }
  }

  // Exemplars ride along as comment lines: the classic text format has no
  // exemplar syntax, and comments keep the exposition lint-clean while
  // still shipping the span linkage in the same scrape.
  std::vector<Span> exemplars;
  ExemplarStore::Global().Snapshot(&exemplars);
  for (const Span& e : exemplars) {
    out += "# exemplar " + std::string(HistName(StageHist(e.stage))) +
           " value=" + FormatInt(e.dur_micros) + " stage=" +
           StageName(e.stage) + " stream=" + FormatInt(e.stream) +
           " ts=" + FormatInt(e.ts_micros) +
           " span_id=" + FormatInt(static_cast<int64_t>(e.span_id)) + "\n";
  }
  return out;
}

std::string ToMetricsJson(const MetricSink& snapshot) {
  std::string out = "{\"counters\":{";
  for (int i = 0; i < kNumCounters; ++i) {
    const Counter counter = static_cast<Counter>(i);
    if (i > 0) out += ",";
    out += "\"";
    out += CounterName(counter);
    out += "\":" + FormatInt(snapshot.Value(counter));
  }
  out += "},\"gauges\":{";
  for (int i = 0; i < kNumGauges; ++i) {
    const Gauge gauge = static_cast<Gauge>(i);
    if (i > 0) out += ",";
    out += "\"";
    out += GaugeName(gauge);
    out += "\":" + FormatInt(snapshot.GaugeValue(gauge));
  }
  out += "},\"histograms\":{";
  for (int i = 0; i < kNumHists; ++i) {
    const Hist hist = static_cast<Hist>(i);
    const HistogramData& data = snapshot.histogram(hist);
    if (i > 0) out += ",";
    out += "\"";
    out += HistName(hist);
    out += "\":{\"buckets\":[";
    for (size_t b = 0; b < data.buckets.size(); ++b) {
      if (b > 0) out += ",";
      out += "{\"le\":";
      out += b < kHistBucketBounds.size() ? FormatInt(kHistBucketBounds[b])
                                          : std::string("\"+Inf\"");
      out += ",\"count\":" + FormatInt(data.buckets[b]) + "}";
    }
    out += "],\"sum\":" + FormatInt(data.sum) +
           ",\"count\":" + FormatInt(data.count) + "}";
  }
  out += "},\"build_info\":{\"isa\":\"";
  out += BuildInfoIsa();
  out += std::string("\",\"obs\":\"") + (kEnabled ? "on" : "off") +
         "\",\"build\":\"" GSPS_BUILD_TYPE "\"}";

  const WindowSnapshot window = WindowedTelemetry::Global().Latest();
  out += ",\"window\":{\"seq\":" + FormatInt(window.seq) +
         ",\"start_micros\":" + FormatInt(window.start_micros) +
         ",\"duration_micros\":" + FormatInt(window.duration_micros) +
         ",\"events_per_sec\":" +
         FormatDouble(RatePerSec(window, Counter::kNntInsertEdges) +
                      RatePerSec(window, Counter::kNntDeleteEdges)) +
         ",\"dominance_tests_per_sec\":" +
         FormatDouble(RatePerSec(window, Counter::kJoinDominanceTests)) +
         ",\"quantiles\":{";
  for (int i = 0; i < kNumHists; ++i) {
    const Hist hist = static_cast<Hist>(i);
    const HistogramData& data = window.delta.histogram(hist);
    if (i > 0) out += ",";
    out += "\"";
    out += HistName(hist);
    out += "\":{";
    for (int q = 0; q < 3; ++q) {
      if (q > 0) out += ",";
      out += std::string("\"") + kWindowQuantileLabels[q] + "\":" +
             FormatDouble(HistogramQuantile(data, kWindowQuantiles[q]));
    }
    out += "}";
  }
  out += "}}";

  std::vector<Span> exemplars;
  ExemplarStore::Global().Snapshot(&exemplars);
  out += ",\"exemplars\":[";
  for (size_t i = 0; i < exemplars.size(); ++i) {
    const Span& e = exemplars[i];
    if (i > 0) out += ",";
    out += std::string("{\"hist\":\"") + HistName(StageHist(e.stage)) +
           "\",\"stage\":\"" + StageName(e.stage) +
           "\",\"stream\":" + FormatInt(e.stream) +
           ",\"value_micros\":" + FormatInt(e.dur_micros) +
           ",\"ts_micros\":" + FormatInt(e.ts_micros) +
           ",\"span_id\":" + FormatInt(static_cast<int64_t>(e.span_id)) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace gsps::obs
