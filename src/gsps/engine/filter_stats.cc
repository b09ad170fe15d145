#include "gsps/engine/filter_stats.h"

#include <algorithm>

namespace gsps {

TimestampStats MergeParallelSamples(const std::vector<TimestampStats>& shards) {
  // Zero shards (an engine with no streams, or an epoch that recorded
  // nothing) merges to the empty sample: all-zero counts, no ground truth.
  if (shards.empty()) return TimestampStats{};
  TimestampStats merged;
  merged.timestamp = shards.front().timestamp;
  merged.true_pairs = 0;
  for (const TimestampStats& s : shards) {
    merged.candidate_pairs += s.candidate_pairs;
    merged.total_pairs += s.total_pairs;
    merged.update_millis = std::max(merged.update_millis, s.update_millis);
    merged.join_millis = std::max(merged.join_millis, s.join_millis);
    merged.busy_millis += s.busy_millis;
    if (merged.true_pairs >= 0) {
      merged.true_pairs = s.true_pairs < 0 ? -1 : merged.true_pairs + s.true_pairs;
    }
  }
  return merged;
}

void StatsAccumulator::Add(const TimestampStats& stats) {
  samples_.push_back(stats);
}

double StatsAccumulator::AvgCandidateRatio() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const TimestampStats& s : samples_) {
    if (s.total_pairs > 0) {
      sum += static_cast<double>(s.candidate_pairs) /
             static_cast<double>(s.total_pairs);
    }
  }
  return sum / static_cast<double>(samples_.size());
}

double StatsAccumulator::AvgCostMillis() const {
  return AvgUpdateMillis() + AvgJoinMillis();
}

double StatsAccumulator::AvgUpdateMillis() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const TimestampStats& s : samples_) sum += s.update_millis;
  return sum / static_cast<double>(samples_.size());
}

double StatsAccumulator::AvgJoinMillis() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const TimestampStats& s : samples_) sum += s.join_millis;
  return sum / static_cast<double>(samples_.size());
}

double StatsAccumulator::AvgBusyMillis() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const TimestampStats& s : samples_) sum += s.busy_millis;
  return sum / static_cast<double>(samples_.size());
}

double StatsAccumulator::CostPercentileMillis(double pct) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> costs;
  costs.reserve(samples_.size());
  for (const TimestampStats& s : samples_) {
    costs.push_back(s.update_millis + s.join_millis);
  }
  std::sort(costs.begin(), costs.end());
  // Nearest-rank: the smallest cost with at least pct% of samples at or
  // below it. pct=100 is the maximum, pct->0 clamps to the minimum.
  const double rank = pct / 100.0 * static_cast<double>(costs.size());
  size_t index = static_cast<size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index > 0) --index;                          // 1-based -> 0-based
  return costs[std::min(index, costs.size() - 1)];
}

double StatsAccumulator::MaxCostMillis() const {
  return CostPercentileMillis(100.0);
}

double StatsAccumulator::AvgPrecision() const {
  double sum = 0.0;
  int64_t counted = 0;
  for (const TimestampStats& s : samples_) {
    if (s.true_pairs < 0) continue;
    ++counted;
    if (s.candidate_pairs == 0) {
      sum += 1.0;
    } else {
      sum += static_cast<double>(s.true_pairs) /
             static_cast<double>(s.candidate_pairs);
    }
  }
  if (counted == 0) return 0.0;
  return sum / static_cast<double>(counted);
}

bool StatsAccumulator::CandidatesNeverBelowTruth() const {
  for (const TimestampStats& s : samples_) {
    if (s.true_pairs >= 0 && s.candidate_pairs < s.true_pairs) return false;
  }
  return true;
}

}  // namespace gsps
