// Chrome trace_event-format span recording.
//
// Spans are recorded into per-thread TraceBuffers (append to a vector, no
// locks) handed out by the global Tracer; the merged JSON —
// {"traceEvents":[{"ph":"X",...}]} — loads directly in about://tracing and
// Perfetto (ui.perfetto.dev), with one timeline row per buffer tid. The
// engine labels shard buffers with the shard index, so a threaded replay
// shows every shard's update/join spans and the idle gaps between them.
//
// Single-writer discipline mirrors the metric sinks: exactly one thread
// appends to a buffer (the pipelined engine gives each shard buffer to its
// one worker thread). ToJson() must only run while recorders are quiescent
// (after the replay, once the engine's workers have been shut down).
//
// Spans are recorded through GSPS_OBS_SPAN in gsps/obs/obs.h and cost
// nothing when no buffer is installed on the current thread.

#ifndef GSPS_OBS_TRACE_H_
#define GSPS_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace gsps::obs {

// One complete ("ph":"X") event. Names and categories must be string
// literals (or otherwise outlive the tracer): buffers store the pointers.
// A nonzero id is serialized as args.span_id — the handle exemplars use to
// point at the trace span that produced a tail histogram sample.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  int64_t ts_micros = 0;   // Start, relative to the tracer epoch.
  int64_t dur_micros = 0;
  uint64_t id = 0;         // 0 = unlabeled span.
};

// Append-only span storage for one logical thread (timeline row).
class TraceBuffer {
 public:
  explicit TraceBuffer(int32_t tid) : tid_(tid) {}

  void Record(const char* name, const char* category, int64_t ts_micros,
              int64_t dur_micros, uint64_t id = 0) {
    events_.push_back(TraceEvent{name, category, ts_micros, dur_micros, id});
  }

  int32_t tid() const { return tid_; }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  int32_t tid_;
  std::vector<TraceEvent> events_;
};

// Owner of every TraceBuffer and of the shared time epoch.
class Tracer {
 public:
  static Tracer& Global();

  // Arms recording and (re)starts the epoch. Must precede NewBuffer.
  void Enable();
  bool enabled() const;

  // Allocates a buffer rendered as timeline row `tid`. Thread-safe, cold;
  // the pointer stays valid until Clear(). Returns nullptr when disabled.
  TraceBuffer* NewBuffer(int32_t tid);

  // Microseconds since Enable().
  int64_t NowMicros() const;

  // Serializes every buffer's spans. Callers must ensure recorders are
  // quiescent (no concurrent Record).
  std::string ToJson() const;

  // Drops all buffers and disarms recording (test isolation).
  void Clear();
};

// Microseconds since a process-local steady-clock epoch (first call), with
// no lock — unlike Tracer::NowMicros, which takes the tracer mutex to read
// the Enable() epoch. Stage timers and the flight recorder use this on the
// hot path; its epoch is unrelated to the tracer's.
int64_t MonotonicMicros();

// Process-unique span id (1-based; 0 is reserved for "no span").
uint64_t NextSpanId();

}  // namespace gsps::obs

#endif  // GSPS_OBS_TRACE_H_
