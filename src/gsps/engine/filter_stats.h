// Per-timestamp statistics for the experiment harnesses.
//
// Accumulates, per timestamp, the candidate-set size, the total number of
// (stream, query) pairs, and the wall time split into NNT/index update and
// join evaluation. Also computes filter quality against the exact ground
// truth when the harness provides it (precision; recall is 1 by
// construction — the no-false-negative property, which the test suite
// enforces).

#ifndef GSPS_ENGINE_FILTER_STATS_H_
#define GSPS_ENGINE_FILTER_STATS_H_

#include <cstdint>
#include <vector>

namespace gsps {

// Measurements for one timestamp.
struct TimestampStats {
  int timestamp = 0;
  int64_t candidate_pairs = 0;
  int64_t total_pairs = 0;
  int64_t true_pairs = -1;  // -1 when ground truth was not computed.
  double update_millis = 0.0;
  double join_millis = 0.0;
  // Aggregate CPU time spent inside update/join work across all shards.
  // For a sequential run this equals update + join; for a parallel run it
  // exceeds the critical-path update/join costs, and the gap between
  // num_shards * (update + join) and busy is the shards' idle time.
  double busy_millis = 0.0;
};

// Merges the per-shard samples of one parallel epoch into a single
// timestamp sample. Pair counts are summed across shards; update/join costs
// take the maximum (the epoch's critical path — the wall-clock cost the
// caller observed, not aggregate CPU time) while busy_millis sums (aggregate
// work done); true_pairs sums when every shard computed it and stays -1
// otherwise. The timestamp is taken from the first shard. Sums and maxima
// are commutative and associative, so the result is independent of shard
// order. Zero shards merge to the empty sample (all-zero counts,
// true_pairs = -1).
TimestampStats MergeParallelSamples(const std::vector<TimestampStats>& shards);

// Aggregates TimestampStats.
class StatsAccumulator {
 public:
  void Add(const TimestampStats& stats);

  int64_t num_timestamps() const {
    return static_cast<int64_t>(samples_.size());
  }

  // Mean candidate-pair ratio (candidates / total pairs) per timestamp.
  double AvgCandidateRatio() const;

  // Mean per-timestamp processing cost, milliseconds (update + join).
  double AvgCostMillis() const;

  double AvgUpdateMillis() const;
  double AvgJoinMillis() const;
  double AvgBusyMillis() const;

  // Nearest-rank percentile of per-timestamp cost (update + join) in
  // milliseconds; pct in (0, 100]. 0.0 with no samples.
  double CostPercentileMillis(double pct) const;

  // Slowest per-timestamp cost (update + join), milliseconds.
  double MaxCostMillis() const;

  // Mean precision (true pairs / candidate pairs) over timestamps where
  // ground truth is present; 1.0 when no candidates were reported.
  double AvgPrecision() const;

  // True iff every recorded timestamp had candidate_pairs >= true_pairs
  // (a necessary consequence of no-false-negatives).
  bool CandidatesNeverBelowTruth() const;

  const std::vector<TimestampStats>& samples() const { return samples_; }

 private:
  std::vector<TimestampStats> samples_;
};

}  // namespace gsps

#endif  // GSPS_ENGINE_FILTER_STATS_H_
