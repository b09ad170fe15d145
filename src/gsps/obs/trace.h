// The span record and its Chrome trace_event view.
//
// A Span is the one record behind the three span outputs: the trace JSON
// below, the flight recorder's ring (flight_recorder.h) and the exemplar
// lines of the metrics output (exemplar.h). Every span is stamped once, on
// the MonotonicMicros() clock, and EmitSpan (obs.h) sends it to whichever
// of those sinks are live.
//
// Trace spans are recorded into per-thread TraceBuffers (append to a
// vector, no locks) handed out by the global Tracer; the merged JSON —
// {"traceEvents":[{"ph":"X",...}]} — loads directly in about://tracing and
// Perfetto (ui.perfetto.dev), with one timeline row per buffer tid. The
// engine labels shard buffers with the shard index, so a threaded replay
// shows every shard's update/join spans and the idle gaps between them.
//
// Single-writer discipline mirrors the metric sinks: exactly one thread
// appends to a buffer (the pipelined engine gives each shard buffer to its
// one worker thread). ToJson() must only run while recorders are quiescent
// (after the replay, once the engine's workers have been shut down).

#ifndef GSPS_OBS_TRACE_H_
#define GSPS_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gsps/obs/metrics.h"

namespace gsps::obs {

// One finished span. Names and categories must be string literals: buffers
// store the pointers, and the flight recorder's dump dereferences them
// from signal context. A nonzero span_id marks a tail stage sample; the
// exemplar, the trace event (as args.span_id) and the flight span of that
// sample all carry it.
struct Span {
  const char* name = nullptr;
  const char* category = nullptr;
  Stage stage = Stage::kNumStages;  // kNumStages for a scoped span.
  int32_t stream = -1;              // Global stream id, or -1.
  int64_t ts_micros = 0;            // MonotonicMicros() at the start.
  int64_t dur_micros = 0;
  uint64_t span_id = 0;
};

// Append-only span storage for one logical thread (timeline row).
class TraceBuffer {
 public:
  explicit TraceBuffer(int32_t tid) : tid_(tid) {}

  void Record(const Span& span) { spans_.push_back(span); }

  int32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int32_t tid_;
  std::vector<Span> spans_;
};

// Owner of every TraceBuffer and of the trace epoch.
class Tracer {
 public:
  static Tracer& Global();

  // Arms recording and records the MonotonicMicros() reading that the
  // trace's "ts" values count from. Must precede NewBuffer.
  void Enable();

  // Allocates a buffer rendered as timeline row `tid`. Thread-safe, cold;
  // the pointer stays valid until Clear(). Returns nullptr when disabled.
  TraceBuffer* NewBuffer(int32_t tid);

  // Serializes every buffer's spans, "ts" in microseconds since Enable().
  // Callers must ensure recorders are quiescent (no concurrent Record).
  std::string ToJson() const;

  // Drops all buffers and disarms recording (test isolation).
  void Clear();
};

// Microseconds since a process-local steady-clock epoch (first call), with
// no lock. The one clock of the obs layer: spans, ingest stamps and
// telemetry windows all read it.
int64_t MonotonicMicros();

// Process-unique span id (1-based; 0 is reserved for "no span").
uint64_t NextSpanId();

}  // namespace gsps::obs

#endif  // GSPS_OBS_TRACE_H_
