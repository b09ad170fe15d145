// Instrumentation entry points: thread-local recording context + macros.
//
// A thread records into whatever ObsContext is installed on it. Installing
// is explicit and scoped (ScopedObsContext): each pipelined-engine worker
// installs its shard's sink/trace-buffer for its thread's lifetime, CLI
// drivers install a root sink for the main thread. With no context
// installed every macro is a single null check, so library code is always
// safe to instrument.
//
//   GSPS_OBS_COUNT(Counter::kNntInsertEdges, 1);
//   GSPS_OBS_GAUGE_SET(Gauge::kPipelineLaneDepth, n);
//   GSPS_OBS_OBSERVE(Hist::kIngestE2eMicros, micros);
//   GSPS_OBS_SPAN("shard_update", "monitor");  // RAII, ends at scope exit
//   GSPS_OBS_STAGE(Stage::kNntMaintain, stream);  // Stage timer for scope
//
// Compile with -DGSPS_OBS_DISABLED (CMake option of the same name) and all
// macros expand to nothing — zero instructions on the hot path — while
// the obs types themselves stay linkable so tools build unchanged. Code
// that does obs-only work outside the macros (timing reads, sink merges)
// should gate on `if constexpr (gsps::obs::kEnabled)` (defined in
// metrics.h).

#ifndef GSPS_OBS_OBS_H_
#define GSPS_OBS_OBS_H_

#include "gsps/obs/flight_recorder.h"
#include "gsps/obs/metrics.h"
#include "gsps/obs/trace.h"

namespace gsps::obs {

// What the current thread records into. Either pointer may be null.
struct ObsContext {
  MetricSink* sink = nullptr;
  TraceBuffer* trace = nullptr;
};

// The installed context. `constinit` guarantees constant initialization,
// which lets the compiler access the extern TLS variable directly instead
// of through an init-guard wrapper call — the counter macros compile down
// to a TLS load, a branch, and an add, cheap enough for the join inner
// loops. Use the accessors; the variable is exposed only so they inline.
extern constinit thread_local ObsContext g_obs_context;

// Accessors for the installed context (null when nothing is installed).
inline MetricSink* CurrentSink() { return g_obs_context.sink; }
inline TraceBuffer* CurrentTrace() { return g_obs_context.trace; }

// Installs a context for the current scope and restores the previous one on
// destruction. Nesting works: an inner scope shadows the outer.
class ScopedObsContext {
 public:
  ScopedObsContext(MetricSink* sink, TraceBuffer* trace)
      : saved_(g_obs_context) {
    g_obs_context.sink = sink;
    g_obs_context.trace = trace;
  }
  ~ScopedObsContext() { g_obs_context = saved_; }

  ScopedObsContext(const ScopedObsContext&) = delete;
  ScopedObsContext& operator=(const ScopedObsContext&) = delete;

 private:
  ObsContext saved_;
};

// Emits one complete trace_event span covering its own lifetime. Inert when
// the current thread has no trace buffer, unless the flight recorder is
// armed — then the span is recorded into its ring instead (so a monitor
// run without --trace still leaves a pre-crash span history). `name` and
// `category` must be string literals.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category)
      : buffer_(CurrentTrace()), name_(name), category_(category) {
    if (buffer_ != nullptr) {
      start_ = Tracer::Global().NowMicros();
    } else if (FlightRecorderArmed()) {
      flight_only_ = true;
      start_ = MonotonicMicros();
    }
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      const int64_t end = Tracer::Global().NowMicros();
      buffer_->Record(name_, category_, start_, end - start_);
    } else if (flight_only_ && FlightRecorderArmed()) {
      FlightSpan span;
      span.name = name_;
      span.category = category_;
      span.ts_micros = start_;
      span.dur_micros = MonotonicMicros() - start_;
      FlightRecorder::Global().RecordSpan(span);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  const char* name_;
  const char* category_;
  int64_t start_ = 0;
  bool flight_only_ = false;
};

// Records one per-stage sample: observes StageHist(stage) on the current
// sink, captures an exemplar (+ exemplar-linked trace span) when the value
// crosses the stage histogram's tail threshold, and appends a span to the
// flight recorder when armed. Out-of-line so the fast path of StageTimer
// stays a clock read and a call.
void StageSample(Stage stage, int64_t elapsed_micros, int32_t stream = -1,
                 int32_t query = -1);

// Decimation gate for the per-refresh join stage timer. One verdict refresh
// runs well under a microsecond, so timing every refresh spends two clock
// reads against ~100ns of measured work — over 10% on the skyline fast
// path, against a <=3% total overhead budget. Sampling 1 refresh in 8
// amortizes the clock reads to about 1% while the histogram quantiles and
// the attribution split stay representative (the sample is unbiased: the
// gate ticks on refresh count, not on refresh cost). The gate fires on a
// thread's *first* eligible refresh so short test workloads still populate
// the stage histogram. Batch-level stages (NNT maintain, dirty drain,
// tracker observe, metrics merge) stay unsampled — they run once per batch,
// where two clock reads are noise.
inline constexpr uint32_t kJoinRefreshSampleEvery = 8;
inline bool JoinRefreshSampleTick() {
  thread_local uint32_t tick = 0;
  return (tick++ % kJoinRefreshSampleEvery) == 0;
}

// Scoped wall-clock timer for one pipeline stage. Skips the clock entirely
// when the thread has neither a sink nor an armed flight recorder, so an
// uninstrumented caller pays two branches. Use through GSPS_OBS_STAGE so
// GSPS_OBS_DISABLED builds compile it out.
class StageTimer {
 public:
  explicit StageTimer(Stage stage, int32_t stream = -1, int32_t query = -1)
      : stage_(stage), stream_(stream), query_(query) {
    if (CurrentSink() != nullptr || FlightRecorderArmed()) {
      start_ = MonotonicMicros();
    }
  }
  ~StageTimer() {
    if (start_ >= 0) {
      StageSample(stage_, MonotonicMicros() - start_, stream_, query_);
    }
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Stage stage_;
  int32_t stream_;
  int32_t query_;
  int64_t start_ = -1;
};

}  // namespace gsps::obs

#if defined(GSPS_OBS_DISABLED)

#define GSPS_OBS_COUNT(counter, n) \
  do {                             \
  } while (false)
#define GSPS_OBS_GAUGE_SET(gauge, value) \
  do {                                   \
  } while (false)
#define GSPS_OBS_OBSERVE(hist, value) \
  do {                                \
  } while (false)
#define GSPS_OBS_SPAN(name, category) \
  do {                                \
  } while (false)
#define GSPS_OBS_STAGE(stage, ...) \
  do {                             \
  } while (false)

#else  // !GSPS_OBS_DISABLED

#define GSPS_OBS_COUNT(counter, n)                                        \
  do {                                                                    \
    if (::gsps::obs::MetricSink* gsps_obs_sink = ::gsps::obs::CurrentSink(); \
        gsps_obs_sink != nullptr) {                                       \
      gsps_obs_sink->Add(::gsps::obs::counter, (n));                      \
    }                                                                     \
  } while (false)

#define GSPS_OBS_GAUGE_SET(gauge, value)                                  \
  do {                                                                    \
    if (::gsps::obs::MetricSink* gsps_obs_sink = ::gsps::obs::CurrentSink(); \
        gsps_obs_sink != nullptr) {                                       \
      gsps_obs_sink->Set(::gsps::obs::gauge, (value));                    \
    }                                                                     \
  } while (false)

#define GSPS_OBS_OBSERVE(hist, value)                                     \
  do {                                                                    \
    if (::gsps::obs::MetricSink* gsps_obs_sink = ::gsps::obs::CurrentSink(); \
        gsps_obs_sink != nullptr) {                                       \
      gsps_obs_sink->Observe(::gsps::obs::hist, (value));                 \
    }                                                                     \
  } while (false)

#define GSPS_OBS_CONCAT_INNER(a, b) a##b
#define GSPS_OBS_CONCAT(a, b) GSPS_OBS_CONCAT_INNER(a, b)
#define GSPS_OBS_SPAN(name, category)                     \
  ::gsps::obs::ScopedSpan GSPS_OBS_CONCAT(gsps_obs_span_, \
                                          __LINE__)((name), (category))

// Times the rest of the enclosing scope as one pipeline stage:
//   GSPS_OBS_STAGE(Stage::kDirtyDrain, stream_index);
// Optional trailing arguments are the stream and query ids attached to
// exemplars/flight spans the sample may produce.
#define GSPS_OBS_STAGE(stage, ...)                          \
  ::gsps::obs::StageTimer GSPS_OBS_CONCAT(gsps_obs_stage_,  \
                                          __LINE__)(        \
      ::gsps::obs::stage __VA_OPT__(, ) __VA_ARGS__)

#endif  // GSPS_OBS_DISABLED

#endif  // GSPS_OBS_OBS_H_
