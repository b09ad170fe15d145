// Exemplar capture: tail histogram samples with enough identity to find
// the matching trace span.
//
// A histogram bucket tells you *that* a slow sample happened; an exemplar
// tells you *which one*. Stage samples (obs.h StageSample) whose value
// meets the per-histogram threshold record an Exemplar — stage, global
// stream id, timestamp, and the span id also attached to the Chrome trace
// span emitted for the same sample — into a small global ring. The
// serializers surface the ring as "# exemplar" comment lines in the
// Prometheus text (comments keep the exposition format lint-clean) and as
// an "exemplars" array in the metrics JSON; args.span_id in the trace JSON
// closes the loop.
//
// Thresholds are per-histogram atomics (default kDefaultExemplarThreshold
// microseconds) so tools and tests can tune them without a lock; the
// comparison is `value >= threshold`. The ring itself takes a mutex —
// acceptable because crossings are tail events by construction.

#ifndef GSPS_OBS_EXEMPLAR_H_
#define GSPS_OBS_EXEMPLAR_H_

#include <cstdint>
#include <vector>

#include "gsps/obs/metrics.h"

namespace gsps::obs {

inline constexpr int64_t kDefaultExemplarThresholdMicros = 1000;
inline constexpr int kExemplarRingSize = 32;

struct Exemplar {
  Hist hist = Hist::kNumHists;
  Stage stage = Stage::kNumStages;  // kNumStages when not a stage sample.
  int32_t stream = -1;  // Global stream id, or -1.
  int64_t value_micros = 0;
  int64_t ts_micros = 0;  // MonotonicMicros() at capture.
  uint64_t span_id = 0;   // Matches args.span_id in the trace JSON.
};

// Per-histogram capture threshold in microseconds (relaxed atomics).
int64_t ExemplarThreshold(Hist hist);
void SetExemplarThreshold(Hist hist, int64_t micros);

class ExemplarStore {
 public:
  static ExemplarStore& Global();

  // Appends to the ring, evicting the oldest once full. Allocation-free.
  void Record(const Exemplar& exemplar);

  // Retained exemplars, oldest first.
  void Snapshot(std::vector<Exemplar>* out) const;

  // Clears the ring and restores every threshold to the default.
  void Reset();
};

}  // namespace gsps::obs

#endif  // GSPS_OBS_EXEMPLAR_H_
