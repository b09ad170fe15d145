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
//   GSPS_OBS_JOIN_REFRESH(stream);  // Sampled join-refresh stage timer
//
// Compile with -DGSPS_OBS_DISABLED (CMake option of the same name) and all
// macros expand to nothing — zero instructions on the hot path — while
// the obs types themselves stay linkable so tools build unchanged. Code
// that does obs-only work outside the macros (timing reads, sink merges)
// should gate on `if constexpr (gsps::obs::kEnabled)` (defined in
// metrics.h).

#ifndef GSPS_OBS_OBS_H_
#define GSPS_OBS_OBS_H_

#include <vector>

#include "gsps/obs/flight_recorder.h"
#include "gsps/obs/metrics.h"
#include "gsps/obs/trace.h"

namespace gsps::obs {

// What the current thread records into. Any pointer may be null.
struct ObsContext {
  MetricSink* sink = nullptr;
  TraceBuffer* trace = nullptr;
  // Global stream id of each shard-local stream index, installed by a
  // pipelined-engine worker so stage samples name the global stream; null
  // when the thread's stream indices are already global.
  const std::vector<int>* stream_ids = nullptr;
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
  ScopedObsContext(MetricSink* sink, TraceBuffer* trace,
                   const std::vector<int>* stream_ids = nullptr)
      : saved_(g_obs_context) {
    g_obs_context.sink = sink;
    g_obs_context.trace = trace;
    g_obs_context.stream_ids = stream_ids;
  }
  ~ScopedObsContext() { g_obs_context = saved_; }

  ScopedObsContext(const ScopedObsContext&) = delete;
  ScopedObsContext& operator=(const ScopedObsContext&) = delete;

 private:
  ObsContext saved_;
};

// Sends a finished span to every live span sink: the current thread's
// trace buffer when `to_trace` is set and a buffer is installed, and the
// flight recorder's ring when it is armed. ScopedSpan and StageSample emit
// through it and nothing else does.
void EmitSpan(const Span& span, bool to_trace);

// Emits one span covering its own lifetime. Reads the clock only when the
// thread has a trace buffer or the flight recorder is armed. `name` and
// `category` must be string literals.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category)
      : name_(name), category_(category) {
    if (CurrentTrace() != nullptr || FlightRecorderArmed()) {
      start_ = MonotonicMicros();
    }
  }
  ~ScopedSpan() {
    if (start_ >= 0) {
      Span span;
      span.name = name_;
      span.category = category_;
      span.ts_micros = start_;
      span.dur_micros = MonotonicMicros() - start_;
      EmitSpan(span, /*to_trace=*/true);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  int64_t start_ = -1;
};

// Records one per-stage sample that started at `start_micros` and ran
// `elapsed_micros` (both on the MonotonicMicros() clock; no further clock
// read): observes StageHist(stage) on the current sink and, when the
// sample is a tail sample (elapsed >= kExemplarThresholdMicros) or the
// flight recorder is armed, emits it as a stage span. A tail span gets a
// fresh span id, is kept as an exemplar, and is the only kind of stage
// span that reaches the trace buffer. `stream` is the recording thread's
// stream index (-1 for none); spans carry it translated through the
// context's stream_ids. Out-of-line so the fast path of StageTimer stays a
// clock read and a call.
void StageSample(Stage stage, int64_t start_micros, int64_t elapsed_micros,
                 int32_t stream = -1);

// Decimation gate for the per-refresh join stage timer. One verdict refresh
// runs well under a microsecond, so timing every refresh spends two clock
// reads against ~100ns of measured work — over 10% on the skyline fast
// path, against a <=3% total overhead budget. Sampling 1 refresh in 8
// amortizes the clock reads to about 1% while the histogram quantiles stay
// representative (the sample is unbiased: the gate ticks on refresh count,
// not on refresh cost). The gate fires on a thread's *first* eligible
// refresh so short test workloads still populate the stage histogram.
// Batch-level stages (NNT maintain, dirty drain, tracker observe, metrics
// merge) stay unsampled — they run once per batch, where two clock reads
// are noise.
inline constexpr uint32_t kJoinRefreshSampleEvery = 8;
inline bool JoinRefreshSampleTick() {
  thread_local uint32_t tick = 0;
  return (tick++ % kJoinRefreshSampleEvery) == 0;
}

// Scoped wall-clock timer for one pipeline stage. Skips the clock entirely
// when the thread has neither a sink nor an armed flight recorder, so an
// uninstrumented caller pays two branches; a `sampled` timer also skips
// all but 1 call in kJoinRefreshSampleEvery. Use through GSPS_OBS_STAGE or
// GSPS_OBS_JOIN_REFRESH so GSPS_OBS_DISABLED builds compile it out.
class StageTimer {
 public:
  explicit StageTimer(Stage stage, int32_t stream = -1, bool sampled = false)
      : stage_(stage), stream_(stream) {
    if ((CurrentSink() != nullptr || FlightRecorderArmed()) &&
        (!sampled || JoinRefreshSampleTick())) {
      start_ = MonotonicMicros();
    }
  }
  ~StageTimer() {
    if (start_ >= 0) {
      StageSample(stage_, start_, MonotonicMicros() - start_, stream_);
    }
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Stage stage_;
  int32_t stream_;
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
#define GSPS_OBS_JOIN_REFRESH(stream) \
  do {                                \
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
// The optional trailing argument is the stream index attached to the
// exemplars/flight spans the sample may produce.
#define GSPS_OBS_STAGE(stage, ...)                          \
  ::gsps::obs::StageTimer GSPS_OBS_CONCAT(gsps_obs_stage_,  \
                                          __LINE__)(        \
      ::gsps::obs::stage __VA_OPT__(, ) __VA_ARGS__)

// Times the rest of the enclosing scope as one join verdict refresh of
// `stream`, sampled (see JoinRefreshSampleTick); all three join
// strategies time their refresh through it.
#define GSPS_OBS_JOIN_REFRESH(stream)                       \
  ::gsps::obs::StageTimer GSPS_OBS_CONCAT(gsps_obs_stage_,  \
                                          __LINE__)(        \
      ::gsps::obs::Stage::kJoinRefresh, (stream), /*sampled=*/true)

#endif  // GSPS_OBS_DISABLED

#endif  // GSPS_OBS_OBS_H_
