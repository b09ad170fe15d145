#include "gsps/obs/obs.h"

#include "gsps/obs/exemplar.h"

namespace gsps::obs {

constinit thread_local ObsContext g_obs_context;

namespace {

// Span names per stage (string literals; buffers keep pointers).
constexpr const char* kStageSpanNames[kNumStages] = {
    "stage_nnt_maintain",    "stage_dirty_drain", "stage_join_refresh",
    "stage_tracker_observe",
};

}  // namespace

void EmitSpan(const Span& span, bool to_trace) {
  if (TraceBuffer* trace = CurrentTrace(); to_trace && trace != nullptr) {
    trace->Record(span);
  }
  if (FlightRecorderArmed()) FlightRecorder::Global().RecordSpan(span);
}

void StageSample(Stage stage, int64_t start_micros, int64_t elapsed_micros,
                 int32_t stream) {
  if (MetricSink* sink = CurrentSink(); sink != nullptr) {
    sink->Observe(StageHist(stage), elapsed_micros);
  }
  const bool tail = elapsed_micros >= kExemplarThresholdMicros;
  if (!tail && !FlightRecorderArmed()) return;
  if (const std::vector<int>* ids = g_obs_context.stream_ids;
      ids != nullptr && stream >= 0) {
    stream = (*ids)[static_cast<size_t>(stream)];
  }
  Span span;
  span.name = kStageSpanNames[static_cast<size_t>(stage)];
  span.category = "stage";
  span.stage = stage;
  span.stream = stream;
  span.ts_micros = start_micros;
  span.dur_micros = elapsed_micros;
  if (tail) {
    span.span_id = NextSpanId();
    ExemplarStore::Global().Record(span);
  }
  // Only tail samples reach the trace: every sample would add four spans
  // per stream per tick to a whole-run trace.
  EmitSpan(span, /*to_trace=*/tail);
}

}  // namespace gsps::obs
