// Flight recorder: a bounded lock-free ring of recent spans plus the last
// published telemetry window and cumulative aggregate, dumped to a file
// when the process dies (fatal signal, GSPS_CHECK abort) or on demand
// (SIGUSR1, or DumpNow from normal code).
//
// Recording (RecordSpan) is wait-free for writers: a relaxed fetch_add
// claims a ring ticket, and a per-slot stamp goes odd -> copy -> even so a
// dump that interrupts a writer mid-copy detects and skips the torn slot.
// The last closed window (WindowedTelemetry::Advance) and the cumulative
// registry aggregate (MetricsRegistry::MergeAndReset) are published
// through seqlocks whose writers are serialized by the window/registry
// mutexes respectively; the dump reader retries a bounded number of times
// and marks the section torn if a writer was in flight.
//
// The dump itself is built with plain open/write and manual integer
// formatting — no allocation, no stdio, no locks — so it is safe from a
// SIGSEGV handler. Fatal handlers (SIGSEGV/SIGBUS/SIGABRT — the latter is
// what GSPS_CHECK's abort raises) dump, restore the default disposition,
// and re-raise; SIGUSR1 dumps and returns so a replay can be probed while
// it runs.
//
// Arm/Disarm flip one process-wide atomic. While disarmed (the default),
// the only cost anywhere is a relaxed load on paths that would record.
// The recorder works in GSPS_OBS_DISABLED builds too — the instrumentation
// that would feed it is compiled out, but Arm/DumpNow still produce a
// valid (if span-empty) dump, keeping tool behavior uniform.

#ifndef GSPS_OBS_FLIGHT_RECORDER_H_
#define GSPS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>

#include "gsps/obs/metrics.h"
#include "gsps/obs/trace.h"
#include "gsps/obs/window.h"

namespace gsps::obs {

inline constexpr int kFlightRingSize = 1024;

namespace internal {
extern std::atomic<bool> g_flight_recorder_armed;
}  // namespace internal

// Hot-path guard: one relaxed load.
inline bool FlightRecorderArmed() {
  return internal::g_flight_recorder_armed.load(std::memory_order_relaxed);
}

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  // Installs the signal handlers (SIGUSR1 + fatal), remembers `path` as
  // the default dump destination, and arms recording. Idempotent; the
  // handlers are installed once per process.
  void Arm(const char* path);

  // Disarms recording (handlers stay installed but dump nothing while
  // disarmed). Test isolation.
  void Disarm();

  // Appends a span to the ring (wait-free; oldest entries overwritten).
  // No-op while disarmed.
  void RecordSpan(const Span& span);

  // Seqlock-publishes the last closed window / the cumulative aggregate.
  // Callers serialize writers (window mutex / registry mutex).
  void PublishWindow(const WindowSnapshot& window);
  void PublishCumulative(const MetricSink& cumulative);

  // Writes the dump to `path` (or the armed path when null). Safe from
  // signal context. Returns false when no path is available or the file
  // cannot be written.
  bool DumpNow(const char* path = nullptr);

  // Clears the ring and the published sections (test isolation; does not
  // change armed state).
  void Reset();
};

}  // namespace gsps::obs

#endif  // GSPS_OBS_FLIGHT_RECORDER_H_
