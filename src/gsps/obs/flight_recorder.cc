#include "gsps/obs/flight_recorder.h"

#include <csignal>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

namespace gsps::obs {

namespace internal {
std::atomic<bool> g_flight_recorder_armed{false};
}  // namespace internal

namespace {

// Ring slot: stamp is 0 when never written, odd while a writer copies,
// 2*ticket+2 when slot holds ticket's span. A dump that observes an odd or
// changed stamp skips the slot as torn.
struct RingSlot {
  std::atomic<uint64_t> stamp{0};
  Span span;
};

// Seqlock wrapper for a trivially-copyable payload. Writers are serialized
// by the caller; readers (possibly in signal context) retry a few times.
template <typename T>
struct Published {
  std::atomic<uint64_t> seq{0};
  T value{};

  void Write(const T& next) {
    seq.fetch_add(1, std::memory_order_release);  // Odd: write in progress.
    value = next;
    seq.fetch_add(1, std::memory_order_release);  // Even: consistent.
  }

  // Returns true and fills `out` when a consistent copy was obtained.
  bool Read(T* out) const {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const uint64_t before = seq.load(std::memory_order_acquire);
      if (before == 0 || (before & 1) != 0) continue;
      *out = value;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq.load(std::memory_order_acquire) == before) return true;
    }
    return false;
  }
};

struct RecorderState {
  std::atomic<uint64_t> cursor{0};
  RingSlot ring[kFlightRingSize];
  Published<WindowSnapshot> window;
  Published<MetricSink> cumulative;
  char path[512] = {0};
  std::atomic<bool> dumping{false};
  std::mutex arm_mutex;
  bool handlers_installed = false;
};

RecorderState& State() {
  static RecorderState* state = new RecorderState();
  return *state;
}

// Append-only formatter over a static buffer: no allocation, no stdio, so
// the dump path stays async-signal-safe.
constexpr size_t kDumpBufferSize = size_t{1} << 18;
char g_dump_buffer[kDumpBufferSize];

struct DumpWriter {
  char* buf;
  size_t cap;
  size_t len = 0;

  void Str(const char* s) {
    while (*s != '\0' && len < cap) buf[len++] = *s++;
  }
  void Int(int64_t v) {
    char tmp[24];
    int n = 0;
    uint64_t mag;
    if (v < 0) {
      Str("-");
      mag = static_cast<uint64_t>(-(v + 1)) + 1;
    } else {
      mag = static_cast<uint64_t>(v);
    }
    do {
      tmp[n++] = static_cast<char>('0' + mag % 10);
      mag /= 10;
    } while (mag != 0);
    while (n > 0 && len < cap) buf[len++] = tmp[--n];
  }
  void U64(uint64_t v) {
    char tmp[24];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0 && len < cap) buf[len++] = tmp[--n];
  }
};

void AppendSinkScalars(DumpWriter& w, const MetricSink& sink) {
  w.Str("\"counters\":{");
  for (int i = 0; i < kNumCounters; ++i) {
    if (i > 0) w.Str(",");
    w.Str("\"");
    w.Str(CounterName(static_cast<Counter>(i)));
    w.Str("\":");
    w.Int(sink.Value(static_cast<Counter>(i)));
  }
  w.Str("},\"gauges\":{");
  for (int i = 0; i < kNumGauges; ++i) {
    if (i > 0) w.Str(",");
    w.Str("\"");
    w.Str(GaugeName(static_cast<Gauge>(i)));
    w.Str("\":");
    w.Int(sink.GaugeValue(static_cast<Gauge>(i)));
  }
  w.Str("}");
}

void InstallHandlersLocked(RecorderState& state);

void DumpSignalHandler(int sig) {
  FlightRecorder::Global().DumpNow(nullptr);
  if (sig != SIGUSR1) {
    // Fatal path: restore the default disposition and die for real so the
    // exit status / core behavior is unchanged by the recorder.
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  }
}

void InstallHandlersLocked(RecorderState& state) {
  if (state.handlers_installed) return;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &DumpSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &action, nullptr);
  action.sa_flags = 0;
  sigaction(SIGSEGV, &action, nullptr);
  sigaction(SIGBUS, &action, nullptr);
  sigaction(SIGABRT, &action, nullptr);  // GSPS_CHECK failures abort().
  state.handlers_installed = true;
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Arm(const char* path) {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.arm_mutex);
  if (path != nullptr && path[0] != '\0') {
    std::strncpy(state.path, path, sizeof(state.path) - 1);
    state.path[sizeof(state.path) - 1] = '\0';
  }
  InstallHandlersLocked(state);
  internal::g_flight_recorder_armed.store(true, std::memory_order_relaxed);
}

void FlightRecorder::Disarm() {
  internal::g_flight_recorder_armed.store(false, std::memory_order_relaxed);
}

void FlightRecorder::RecordSpan(const Span& span) {
  if (!FlightRecorderArmed()) return;
  RecorderState& state = State();
  const uint64_t ticket =
      state.cursor.fetch_add(1, std::memory_order_relaxed);
  RingSlot& slot = state.ring[ticket % kFlightRingSize];
  slot.stamp.store(ticket * 2 + 1, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_release);
  slot.span = span;
  slot.stamp.store(ticket * 2 + 2, std::memory_order_release);
}

void FlightRecorder::PublishWindow(const WindowSnapshot& window) {
  State().window.Write(window);
}

void FlightRecorder::PublishCumulative(const MetricSink& cumulative) {
  State().cumulative.Write(cumulative);
}

bool FlightRecorder::DumpNow(const char* path) {
  RecorderState& state = State();
  const char* destination =
      path != nullptr && path[0] != '\0' ? path : state.path;
  if (destination[0] == '\0') return false;
  bool expected = false;
  if (!state.dumping.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
    return false;  // A dump is already in flight (recursive signal).
  }

  DumpWriter w{g_dump_buffer, kDumpBufferSize};
  w.Str("{\"spans\":[");
  // Oldest first: walk the ring from the slot the cursor would claim next.
  const uint64_t cursor = state.cursor.load(std::memory_order_acquire);
  constexpr uint64_t kRing = static_cast<uint64_t>(kFlightRingSize);
  const uint64_t window_len = cursor < kRing ? cursor : kRing;
  int64_t torn_spans = 0;
  bool first_span = true;
  for (uint64_t i = 0; i < window_len; ++i) {
    const uint64_t ticket = cursor - window_len + i;
    const RingSlot& slot = state.ring[ticket % kFlightRingSize];
    const uint64_t stamp_before = slot.stamp.load(std::memory_order_acquire);
    if (stamp_before == 0 || (stamp_before & 1) != 0) {
      ++torn_spans;
      continue;
    }
    Span span = slot.span;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.stamp.load(std::memory_order_acquire) != stamp_before) {
      ++torn_spans;
      continue;
    }
    if (!first_span) w.Str(",");
    first_span = false;
    w.Str("{\"name\":\"");
    w.Str(span.name != nullptr ? span.name : "");
    w.Str("\",\"cat\":\"");
    w.Str(span.category != nullptr ? span.category : "");
    w.Str("\",\"stage\":");
    w.Int(span.stage == Stage::kNumStages ? -1 : static_cast<int>(span.stage));
    w.Str(",\"stream\":");
    w.Int(span.stream);
    w.Str(",\"ts\":");
    w.Int(span.ts_micros);
    w.Str(",\"dur\":");
    w.Int(span.dur_micros);
    w.Str(",\"span_id\":");
    w.U64(span.span_id);
    w.Str("}");
  }
  w.Str("],\"torn_spans\":");
  w.Int(torn_spans);

  WindowSnapshot window;
  if (state.window.Read(&window)) {
    w.Str(",\"window\":{\"seq\":");
    w.Int(window.seq);
    w.Str(",\"start_micros\":");
    w.Int(window.start_micros);
    w.Str(",\"duration_micros\":");
    w.Int(window.duration_micros);
    w.Str(",");
    AppendSinkScalars(w, window.delta);
    w.Str("}");
  } else {
    w.Str(",\"window\":null");
  }

  MetricSink cumulative;
  if (state.cumulative.Read(&cumulative)) {
    w.Str(",\"cumulative\":{");
    AppendSinkScalars(w, cumulative);
    w.Str("}");
  } else {
    w.Str(",\"cumulative\":null");
  }
  w.Str("}\n");

  bool ok = false;
  const int fd = ::open(destination, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    size_t written = 0;
    ok = true;
    while (written < w.len) {
      const ssize_t n = ::write(fd, w.buf + written, w.len - written);
      if (n <= 0) {
        ok = false;
        break;
      }
      written += static_cast<size_t>(n);
    }
    ::close(fd);
  }
  state.dumping.store(false, std::memory_order_release);
  return ok;
}

void FlightRecorder::Reset() {
  RecorderState& state = State();
  state.cursor.store(0, std::memory_order_relaxed);
  for (RingSlot& slot : state.ring) {
    slot.stamp.store(0, std::memory_order_relaxed);
    slot.span = Span{};
  }
  state.window.seq.store(0, std::memory_order_relaxed);
  state.window.value = WindowSnapshot{};
  state.cumulative.seq.store(0, std::memory_order_relaxed);
  state.cumulative.value = MetricSink{};
}

}  // namespace gsps::obs
