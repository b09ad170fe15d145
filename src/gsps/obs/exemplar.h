// Exemplar capture: tail stage samples with enough identity to find the
// matching trace span.
//
// A histogram bucket tells you *that* a slow sample happened; an exemplar
// tells you *which one*. A stage sample (obs.h StageSample) whose duration
// is at least kExemplarThresholdMicros gets a fresh span id, and its Span —
// the same record the trace buffer and the flight recorder receive — is
// kept in a small global ring. The serializers surface the ring as
// "# exemplar" comment lines in the Prometheus text (comments keep the
// exposition format lint-clean) and as an "exemplars" array in the metrics
// JSON: the histogram is StageHist(span.stage) and the value the span's
// duration. args.span_id in the trace JSON closes the loop. The ring takes
// a mutex — acceptable because crossings are tail events by construction.

#ifndef GSPS_OBS_EXEMPLAR_H_
#define GSPS_OBS_EXEMPLAR_H_

#include <cstdint>
#include <vector>

#include "gsps/obs/trace.h"

namespace gsps::obs {

// Stage samples at or above this duration are tail samples.
inline constexpr int64_t kExemplarThresholdMicros = 1000;
inline constexpr int kExemplarRingSize = 32;

class ExemplarStore {
 public:
  static ExemplarStore& Global();

  // Appends to the ring, evicting the oldest once full. Allocation-free.
  void Record(const Span& span);

  // Retained exemplars, oldest first.
  void Snapshot(std::vector<Span>* out) const;

  // Clears the ring.
  void Reset();
};

}  // namespace gsps::obs

#endif  // GSPS_OBS_EXEMPLAR_H_
