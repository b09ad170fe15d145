#include "gsps/obs/obs.h"

#include "gsps/obs/exemplar.h"

namespace gsps::obs {

constinit thread_local ObsContext g_obs_context;

namespace {

// Trace-span labels per stage (string literals; buffers keep pointers).
constexpr const char* kStageSpanNames[kNumStages] = {
    "stage_nnt_maintain",    "stage_dirty_drain", "stage_join_refresh",
    "stage_tracker_observe",
};

}  // namespace

void StageSample(Stage stage, int64_t elapsed_micros, int32_t stream) {
  const Hist hist = StageHist(stage);
  if (MetricSink* sink = CurrentSink(); sink != nullptr) {
    sink->Observe(hist, elapsed_micros);
  }
  const bool armed = FlightRecorderArmed();
  const bool tail = elapsed_micros >= ExemplarThreshold(hist);
  if (!tail && !armed) return;
  if (const std::vector<int>* ids = g_obs_context.stream_ids;
      ids != nullptr && stream >= 0) {
    stream = (*ids)[static_cast<size_t>(stream)];
  }
  uint64_t span_id = 0;
  if (tail) {
    // Tail sample: capture an exemplar and, when tracing, a trace span
    // both carrying the same fresh span id so the metrics output links to
    // the exact slow span in the trace JSON.
    span_id = NextSpanId();
    Exemplar exemplar;
    exemplar.hist = hist;
    exemplar.stage = stage;
    exemplar.stream = stream;
    exemplar.value_micros = elapsed_micros;
    exemplar.ts_micros = MonotonicMicros();
    exemplar.span_id = span_id;
    ExemplarStore::Global().Record(exemplar);
    if (TraceBuffer* trace = CurrentTrace(); trace != nullptr) {
      const int64_t end = Tracer::Global().NowMicros();
      trace->Record(kStageSpanNames[static_cast<size_t>(stage)], "stage",
                    end - elapsed_micros, elapsed_micros, span_id);
    }
  }
  if (armed) {
    FlightSpan span;
    span.name = kStageSpanNames[static_cast<size_t>(stage)];
    span.category = "stage";
    span.stage = static_cast<int32_t>(stage);
    span.stream = stream;
    span.ts_micros = MonotonicMicros() - elapsed_micros;
    span.dur_micros = elapsed_micros;
    span.span_id = span_id;
    FlightRecorder::Global().RecordSpan(span);
  }
}

}  // namespace gsps::obs
