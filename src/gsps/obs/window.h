// Windowed telemetry: the latest closed interval's metric aggregate.
//
// The registry's cumulative aggregate answers "how much since process
// start"; operators watching a replay need "how fast right now". Every
// MetricsRegistry::MergeAndReset folds the incoming sink into the current
// *open* window as well as the cumulative root; a caller on flush cadence
// (gsps_monitor's --metrics_every / --stats_every loop, tests) closes the
// open window with Advance(), which stamps its duration, keeps it as the
// latest closed window, and starts a new one. Rates and per-window
// histogram quantiles derive from the latest closed window.
//
// Invariant (tested): the sum of the windows Advance() returned plus the
// open window equals the cumulative registry aggregate — a sample merged
// at a pipelined-engine epoch close lands in exactly one window, never
// zero or two, regardless of where the window boundary falls between
// merges.
//
// The registry never advances windows on its own: with no caller driving
// Advance(), everything accumulates in one open window and the cumulative
// aggregate reads the same.

#ifndef GSPS_OBS_WINDOW_H_
#define GSPS_OBS_WINDOW_H_

#include <cstdint>

#include "gsps/obs/metrics.h"

namespace gsps::obs {

// One closed window. Trivially copyable so the flight recorder can
// seqlock-publish it.
struct WindowSnapshot {
  MetricSink delta;            // Everything merged during the window.
  int64_t seq = 0;             // 1-based close order; 0 = no window yet.
  int64_t start_micros = 0;    // MonotonicMicros() at window open.
  int64_t duration_micros = 0; // Close minus open.
};

class WindowedTelemetry {
 public:
  static WindowedTelemetry& Global();

  // Accumulates `sink` into the open window. Called by
  // MetricsRegistry::MergeAndReset under its lock (registry lock is always
  // taken before the window lock; nothing takes them in the other order).
  void Fold(const MetricSink& sink);

  // Closes the open window, keeps it as the latest, publishes it to the
  // flight recorder when armed, starts a fresh window, and returns the
  // closed one.
  WindowSnapshot Advance();

  // The most recently closed window (seq == 0 when none closed yet).
  WindowSnapshot Latest() const;

  // Copy of the open (not yet closed) window's accumulation. Test hook for
  // the windows-plus-open == cumulative invariant.
  MetricSink OpenDelta() const;

  // Drops the latest closed window and the open accumulation (test
  // isolation).
  void Reset();
};

// Per-second rate of `counter` over a closed window; 0 for an empty or
// zero-duration window.
double RatePerSec(const WindowSnapshot& window, Counter counter);

// Quantile estimate (q in [0,1]) from the fixed bucket layout, linearly
// interpolated inside the containing bucket. Returns 0 for an empty
// histogram; samples in the +Inf overflow bucket clamp to the top finite
// bound.
double HistogramQuantile(const HistogramData& data, double q);

}  // namespace gsps::obs

#endif  // GSPS_OBS_WINDOW_H_
