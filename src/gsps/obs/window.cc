#include "gsps/obs/window.h"

#include <algorithm>
#include <mutex>

#include "gsps/obs/flight_recorder.h"
#include "gsps/obs/trace.h"

namespace gsps::obs {

namespace {

struct WindowState {
  std::mutex mutex;
  MetricSink open;
  int64_t open_start_micros = 0;
  bool open_started = false;
  int64_t next_seq = 1;
  WindowSnapshot latest;  // seq == 0 until the first Advance().
};

WindowState& State() {
  static WindowState* state = new WindowState();
  return *state;
}

}  // namespace

WindowedTelemetry& WindowedTelemetry::Global() {
  static WindowedTelemetry* telemetry = new WindowedTelemetry();
  return *telemetry;
}

void WindowedTelemetry::Fold(const MetricSink& sink) {
  WindowState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.open_started) {
    state.open_start_micros = MonotonicMicros();
    state.open_started = true;
  }
  state.open.MergeFrom(sink);
}

WindowSnapshot WindowedTelemetry::Advance() {
  WindowState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  const int64_t now = MonotonicMicros();
  WindowSnapshot closed;
  closed.delta = state.open;
  closed.seq = state.next_seq++;
  closed.start_micros = state.open_started ? state.open_start_micros : now;
  closed.duration_micros = std::max<int64_t>(0, now - closed.start_micros);
  state.latest = closed;
  state.open.Reset();
  state.open_start_micros = now;
  state.open_started = true;
  if (FlightRecorderArmed()) {
    FlightRecorder::Global().PublishWindow(closed);
  }
  return closed;
}

WindowSnapshot WindowedTelemetry::Latest() const {
  WindowState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.latest;
}

MetricSink WindowedTelemetry::OpenDelta() const {
  WindowState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.open;
}

void WindowedTelemetry::Reset() {
  WindowState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.open.Reset();
  state.open_started = false;
  state.open_start_micros = 0;
  state.next_seq = 1;
  state.latest = WindowSnapshot{};
}

double RatePerSec(const WindowSnapshot& window, Counter counter) {
  if (window.duration_micros <= 0) return 0.0;
  return static_cast<double>(window.delta.Value(counter)) * 1e6 /
         static_cast<double>(window.duration_micros);
}

double HistogramQuantile(const HistogramData& data, double q) {
  if (data.count <= 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(data.count);
  int64_t cumulative = 0;
  for (size_t b = 0; b < data.buckets.size(); ++b) {
    const int64_t in_bucket = data.buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < target) {
      cumulative += in_bucket;
      continue;
    }
    if (b >= kHistBucketBounds.size()) {
      // +Inf overflow: no finite upper edge to interpolate toward.
      return static_cast<double>(kHistBucketBounds.back());
    }
    const double lower =
        b == 0 ? 0.0 : static_cast<double>(kHistBucketBounds[b - 1]);
    const double upper = static_cast<double>(kHistBucketBounds[b]);
    const double into =
        (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * std::min(1.0, std::max(0.0, into));
  }
  return static_cast<double>(kHistBucketBounds.back());
}

}  // namespace gsps::obs
