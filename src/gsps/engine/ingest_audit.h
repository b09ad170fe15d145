// Per-stream delivery-order audit for the ingest consumers.
//
// The ingest contract promises that the deltas of one stream are delivered
// in timestamp order with nothing skipped (timestamps run 1, 2, ... per
// stream, each producer sends one event per stream per timestamp). This
// helper checks that invariant at the point of application: each
// pipelined shard worker runs its own audit over the streams its lane
// carries — the audit that a single shared consumer-side counter could not
// express once delivery fans out across lanes.
//
// Single-threaded: one audit per consumer; totals are summed after the
// consumers finish.

#ifndef GSPS_ENGINE_INGEST_AUDIT_H_
#define GSPS_ENGINE_INGEST_AUDIT_H_

#include <cstdint>
#include <vector>

namespace gsps {

class IngestOrderAudit {
 public:
  IngestOrderAudit() = default;
  explicit IngestOrderAudit(int num_streams) { Reset(num_streams); }

  void Reset(int num_streams) {
    next_timestamp_.assign(static_cast<size_t>(num_streams), 1);
    violations_ = 0;
  }

  // Records one applied batch. Returns false (and counts a violation) when
  // `timestamp` is not the next expected timestamp of `stream`; either way
  // the expectation resynchronizes to timestamp + 1 so one gap is one
  // violation, not a cascade.
  bool ObserveInOrder(int32_t stream, int32_t timestamp) {
    int32_t& next = next_timestamp_[static_cast<size_t>(stream)];
    const bool in_order = timestamp == next;
    if (!in_order) ++violations_;
    next = timestamp + 1;
    return in_order;
  }

  int64_t violations() const { return violations_; }

 private:
  std::vector<int32_t> next_timestamp_;
  int64_t violations_ = 0;
};

}  // namespace gsps

#endif  // GSPS_ENGINE_INGEST_AUDIT_H_
