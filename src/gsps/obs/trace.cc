#include "gsps/obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace gsps::obs {

namespace {

// Buffers are heap-allocated unique_ptrs so handed-out pointers survive
// vector growth; the vector itself is guarded by the mutex (NewBuffer and
// ToJson are cold paths).
struct TracerState {
  std::mutex mutex;
  bool enabled = false;
  int64_t epoch_micros = 0;  // MonotonicMicros() at Enable().
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
};

TracerState& State() {
  static TracerState* state = new TracerState();
  return *state;
}

std::string FormatInt(int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld",
                static_cast<long long>(value));
  return buffer;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.enabled = true;
  state.epoch_micros = MonotonicMicros();
}

TraceBuffer* Tracer::NewBuffer(int32_t tid) {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.enabled) return nullptr;
  state.buffers.push_back(std::make_unique<TraceBuffer>(tid));
  return state.buffers.back().get();
}

std::string Tracer::ToJson() const {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : state.buffers) {
    for (const Span& span : buffer->spans()) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"";
      out += span.name;
      out += "\",\"cat\":\"";
      out += span.category;
      out += "\",\"ph\":\"X\",\"ts\":" +
             FormatInt(span.ts_micros - state.epoch_micros) +
             ",\"dur\":" + FormatInt(span.dur_micros) +
             ",\"pid\":1,\"tid\":" + FormatInt(buffer->tid());
      if (span.span_id != 0) {
        out += ",\"args\":{\"span_id\":" +
               FormatInt(static_cast<int64_t>(span.span_id)) + "}";
      }
      out += "}";
    }
  }
  out += "]}";
  return out;
}

void Tracer::Clear() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.enabled = false;
  state.buffers.clear();
}

int64_t MonotonicMicros() {
  // Thread-safe magic-static init on first call; a guard load + clock read
  // afterwards. No mutex, so stage timers can call this per sample.
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch)
      .count();
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace gsps::obs
