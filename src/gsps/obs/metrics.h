// Low-overhead counters, gauges, and fixed-bucket latency histograms.
//
// The design splits recording from aggregation so the hot path never takes
// a lock or touches shared memory:
//
//   * MetricSink is a plain value type (arrays of int64) that exactly one
//     thread writes at a time. The pipelined engine keeps one sink per
//     worker; the CLI tools keep one for the driver thread. Recording is
//     an array add.
//   * MetricsRegistry is the process-wide aggregate. Owners push their
//     sinks into it with MergeAndReset at pipelined-engine epoch closes
//     (or at flush time for single-threaded drivers) — a mutex acquisition
//     per epoch, never per operation.
//   * Snapshot() copies the aggregate for serialization: Prometheus text
//     exposition format (ToPrometheusText) or JSON (ToMetricsJson).
//
// Metric identity is a compile-time enum, so recording needs no name lookup
// and a sink is a fixed-size struct. Adding a metric means extending the
// enum and its name table here; every serializer and merge picks it up.
//
// The instrumentation macros that feed sinks live in gsps/obs/obs.h; the
// GSPS_OBS_DISABLED compile-time switch reduces those macros to no-ops but
// keeps these types functional, so tooling builds in both modes.

#ifndef GSPS_OBS_METRICS_H_
#define GSPS_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

namespace gsps::obs {

// Compile-time master switch. The macros in obs.h expand to nothing when
// this is false; non-macro instrumentation work gates on
// `if constexpr (gsps::obs::kEnabled)`. Lives here (not obs.h) so the
// window/exemplar/attribution modules can use it without pulling in the
// macro header.
#if defined(GSPS_OBS_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

// Monotonic event counts. Serialized with a "_total" suffix per Prometheus
// counter convention.
enum class Counter : int {
  // NNT incremental maintenance (nnt/nnt_set.cc).
  kNntInsertEdges = 0,     // InsertEdge calls applied.
  kNntDeleteEdges,         // DeleteEdge calls applied.
  kNntPathsTouched,        // Backward walks enumerated by insert/delete.
  kNntTreeNodesCreated,    // Paths counted in (Build, InsertEdge).
  kNntTreeNodesFreed,      // Paths counted out (DeleteEdge).
  kNntRootsDirtied,        // Roots whose NPV went clean -> dirty.
  kNntNpvCacheRebuilds,    // NpvOf materializations of an invalidated root;
                           // every other NpvOf call is a cache hit.
  // Join strategies (join/).
  kJoinDominanceTests,     // Pairwise Npv::Dominates evaluations (NL, Skyline).
  kJoinSkylineEarlyStops,  // Pairs pruned at the first uncovered skyline point.
  kJoinSetCoverRounds,     // DSC AdjustRange maintenance rounds.
  kJoinSetCoverFlips,      // DSC domination-status flips (SetDominates).
  kJoinPairsIn,            // (stream, query) pairs evaluated.
  kJoinPairsOut,           // Pairs surviving as candidates.
  kJoinVerdictsReused,     // CandidatesForStream calls answered entirely from
                           // the cached per-stream verdicts (no delta since
                           // the last refresh).
  kJoinSignatureRejects,   // Dominance pairs rejected by the 64-bit non-zero
                           // dimension signature before any entry merge.
  kRemapRegrowths,         // NpvDimRemap post-seal growths: a dynamically
                           // added query introduced dims no earlier query
                           // used, forcing a re-translate of the slab.
  // Dominance kernel dispatch (join/dominance_kernel.cc). One batch = one
  // hay NPV tested against a whole bound slab; the split by ISA makes the
  // runtime dispatch decision observable.
  kDominanceBatchesScalar,
  kDominanceBatchesAvx2,
  kDominanceBatchesAvx512,
  // Candidate transition tracking (engine/candidate_tracker.cc).
  kTrackerObservations,
  kTrackerAppeared,
  kTrackerDisappeared,
  // Ingest pipeline (engine/ingest_queue.h, reported by the engine owning
  // the queue — see PipelinedQueryEngine::Shutdown).
  kIngestAccepted,          // Events accepted into the ingest queue.
  kIngestDelivered,         // Events handed to the consumer.
  kIngestProducerWaits,     // Pushes that blocked on a full queue.
  // Pipelined execution (engine/pipelined_query_engine.cc).
  kPipelineEventsRouted,      // Data events forwarded router -> shard lane.
  kPipelineMarkersBroadcast,  // Epoch/control markers fanned out to lanes.
  kPipelineCoalescedDeltas,   // Delta fragments merged into an already
                              // pending same-(stream, timestamp) batch, i.e.
                              // ApplyChange calls saved by coalescing.
  kNumCounters,
};

// Last-written values; merged by maximum, so an aggregated gauge reads as a
// high-water mark.
enum class Gauge : int {
  kEngineShards = 0,
  kEngineStreams,
  kEngineQueries,
  kQueriesActive,  // Registered queries currently live (adds minus removes).
  kIngestQueueDepth,  // Ingest queue depth high-water (max-merged gauge).
  kPipelineLaneDepth,  // Per-shard SPSC lane depth high-water (max-merged).
  kShardImbalanceRatio,  // max/mean initial shard edge load, in millis
                         // (1000 = perfectly balanced).
  kNumGauges,
};

// The fixed pipeline stages every ApplyChange / timestamp advance splits
// into. Stage samples land in the per-stage histograms below (StageHist),
// and tail samples carry the stage into exemplars and flight-recorder
// spans, so a p99 outlier names the phase that spent it.
enum class Stage : int {
  kNntMaintain = 0,   // NNT edge insert/delete maintenance (and Build).
  kDirtyDrain,        // Dirty-root drain into the join strategy.
  kJoinRefresh,       // Strategy verdict recompute in CandidatesForStream.
  kTrackerObserve,    // CandidateTracker::Observe diffing.
  kNumStages,
};

inline constexpr int kNumStages = static_cast<int>(Stage::kNumStages);

// Fixed-bucket latency histograms, in microseconds. The kStage* entries
// are contiguous and ordered exactly like enum Stage (StageHist relies on
// it).
enum class Hist : int {
  kStageNntMaintainMicros = 0,  // Stage::kNntMaintain samples.
  kStageDirtyDrainMicros,       // Stage::kDirtyDrain samples.
  kStageJoinRefreshMicros,      // Stage::kJoinRefresh samples.
  kStageTrackerObserveMicros,   // Stage::kTrackerObserve samples.
  // End-to-end ingest latency: event enqueue stamp -> applied to the
  // engine. Lives after the contiguous kStage* block (StageHist relies on
  // that ordering).
  kIngestE2eMicros,
  // Epoch-watermark lag: marker publish stamp -> shard watermark advance
  // (pipelined engine only).
  kPipelineWatermarkLagMicros,
  kNumHists,
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kNumCounters);
inline constexpr int kNumGauges = static_cast<int>(Gauge::kNumGauges);
inline constexpr int kNumHists = static_cast<int>(Hist::kNumHists);

// Prometheus-style base names ("gsps_nnt_insert_edges", ...).
const char* CounterName(Counter counter);
const char* GaugeName(Gauge gauge);
const char* HistName(Hist hist);

// One-line descriptions for the Prometheus "# HELP" exposition lines.
const char* CounterHelp(Counter counter);
const char* GaugeHelp(Gauge gauge);
const char* HistHelp(Hist hist);

// Stage <-> histogram mapping and stable lowercase stage names
// ("nnt_maintain", "dirty_drain", ...).
inline Hist StageHist(Stage stage) {
  return static_cast<Hist>(static_cast<int>(Hist::kStageNntMaintainMicros) +
                           static_cast<int>(stage));
}
const char* StageName(Stage stage);

// Build-identity labels for the gsps_build_info metric. The ISA label is
// filled in by the dominance kernel's dispatch resolution (and the CLI
// tools at startup); until then it reads "unknown". The pointer must be a
// string literal.
void SetBuildInfoIsa(const char* isa);
const char* BuildInfoIsa();

// Shared upper bounds (inclusive, microseconds) of the histogram buckets;
// a final implicit +Inf bucket catches the overflow. Quarter-decade spacing
// covers sub-microsecond NNT ops up to multi-second epoch closes.
inline constexpr std::array<int64_t, 12> kHistBucketBounds = {
    1,     4,     16,     64,     256,     1024,
    4096, 16384, 65536, 262144, 1048576, 4194304};

// One histogram: non-cumulative per-bucket counts plus count/sum, enough to
// reconstruct the Prometheus cumulative exposition and mean latency.
struct HistogramData {
  std::array<int64_t, kHistBucketBounds.size() + 1> buckets{};
  int64_t count = 0;
  int64_t sum = 0;

  // Index of the bucket a value falls into (last = +Inf overflow).
  static int BucketIndex(int64_t value);

  void Observe(int64_t value);
  void MergeFrom(const HistogramData& other);

  friend bool operator==(const HistogramData&, const HistogramData&) = default;
};

// A single-writer bundle of every metric. Copyable plain data.
class MetricSink {
 public:
  void Add(Counter counter, int64_t n) {
    counters_[static_cast<size_t>(counter)] += n;
  }
  int64_t Value(Counter counter) const {
    return counters_[static_cast<size_t>(counter)];
  }

  void Set(Gauge gauge, int64_t value) {
    gauges_[static_cast<size_t>(gauge)] = value;
  }
  int64_t GaugeValue(Gauge gauge) const {
    return gauges_[static_cast<size_t>(gauge)];
  }

  void Observe(Hist hist, int64_t value) {
    hists_[static_cast<size_t>(hist)].Observe(value);
  }
  const HistogramData& histogram(Hist hist) const {
    return hists_[static_cast<size_t>(hist)];
  }

  // Counters and histograms sum, gauges take the maximum — all commutative
  // and associative, so merge order never matters.
  void MergeFrom(const MetricSink& other);

  void Reset() { *this = MetricSink{}; }

  friend bool operator==(const MetricSink&, const MetricSink&) = default;

 private:
  std::array<int64_t, kNumCounters> counters_{};
  std::array<int64_t, kNumGauges> gauges_{};
  std::array<HistogramData, kNumHists> hists_{};
};

// Process-wide aggregate. All methods are thread-safe (one mutex), but by
// construction they are only reached off the hot path: owners merge whole
// sinks at epoch closes, and serialization happens at flush cadence.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Folds `sink` into the aggregate (and into the open telemetry window —
  // see window.h) and zeroes it. When the flight recorder is armed the
  // updated cumulative aggregate is also published to it.
  void MergeAndReset(MetricSink& sink);

  // Copy of the current aggregate.
  MetricSink Snapshot() const;

  // Zeroes the aggregate and cascades to the windowed telemetry, exemplar
  // store, and attribution registry (test isolation).
  void Reset();
};

// Prometheus text exposition format: "# HELP"/"# TYPE" headers, "_total"
// counters, cumulative le="..." histogram buckets with _sum/_count, plus
// the gsps_build_info gauge, the latest telemetry window's rates and
// quantiles, the per-query attribution top-K, and exemplar comment lines.
std::string ToPrometheusText(const MetricSink& snapshot);

// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...},
// "build_info":{...},"window":{...},"attribution":[...],"exemplars":[...]}.
std::string ToMetricsJson(const MetricSink& snapshot);

}  // namespace gsps::obs

#endif  // GSPS_OBS_METRICS_H_
