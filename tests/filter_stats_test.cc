// Tests for MergeParallelSamples and StatsAccumulator: shard-order
// independence, degenerate shard counts, and ground-truth propagation.

#include "gsps/engine/filter_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace gsps {
namespace {

TimestampStats MakeSample(int timestamp, int64_t candidates, int64_t total,
                          int64_t truth, double update_ms, double join_ms) {
  TimestampStats s;
  s.timestamp = timestamp;
  s.candidate_pairs = candidates;
  s.total_pairs = total;
  s.true_pairs = truth;
  s.update_millis = update_ms;
  s.join_millis = join_ms;
  s.busy_millis = update_ms + join_ms;
  return s;
}

TEST(FilterStatsTest, MergeSumsCountsAndTakesMaxCosts) {
  const std::vector<TimestampStats> shards = {
      MakeSample(7, 3, 10, 2, 1.5, 4.0),
      MakeSample(7, 1, 6, 1, 2.5, 0.5),
  };
  const TimestampStats merged = MergeParallelSamples(shards);
  EXPECT_EQ(merged.timestamp, 7);
  EXPECT_EQ(merged.candidate_pairs, 4);
  EXPECT_EQ(merged.total_pairs, 16);
  EXPECT_EQ(merged.true_pairs, 3);
  EXPECT_DOUBLE_EQ(merged.update_millis, 2.5);
  EXPECT_DOUBLE_EQ(merged.join_millis, 4.0);
}

TEST(FilterStatsTest, MergeIsShardOrderIndependent) {
  std::vector<TimestampStats> shards = {
      MakeSample(3, 5, 12, 4, 0.25, 1.0),
      MakeSample(3, 0, 4, 0, 3.0, 0.125),
      MakeSample(3, 2, 9, 2, 1.0, 2.0),
      MakeSample(3, 7, 20, -1, 0.5, 0.5),
  };
  const TimestampStats reference = MergeParallelSamples(shards);
  std::sort(shards.begin(), shards.end(),
            [](const TimestampStats& a, const TimestampStats& b) {
              return a.candidate_pairs < b.candidate_pairs;
            });
  do {
    const TimestampStats merged = MergeParallelSamples(shards);
    EXPECT_EQ(merged.candidate_pairs, reference.candidate_pairs);
    EXPECT_EQ(merged.total_pairs, reference.total_pairs);
    EXPECT_EQ(merged.true_pairs, reference.true_pairs);
    EXPECT_DOUBLE_EQ(merged.update_millis, reference.update_millis);
    EXPECT_DOUBLE_EQ(merged.join_millis, reference.join_millis);
  } while (std::next_permutation(
      shards.begin(), shards.end(),
      [](const TimestampStats& a, const TimestampStats& b) {
        return a.candidate_pairs < b.candidate_pairs;
      }));
}

TEST(FilterStatsTest, MergeOfZeroShardsIsTheEmptySample) {
  const TimestampStats merged = MergeParallelSamples({});
  EXPECT_EQ(merged.timestamp, 0);
  EXPECT_EQ(merged.candidate_pairs, 0);
  EXPECT_EQ(merged.total_pairs, 0);
  EXPECT_EQ(merged.true_pairs, -1);
  EXPECT_DOUBLE_EQ(merged.update_millis, 0.0);
  EXPECT_DOUBLE_EQ(merged.join_millis, 0.0);
}

TEST(FilterStatsTest, MergeOfOneShardIsThatShard) {
  const TimestampStats s = MakeSample(2, 8, 11, 5, 0.75, 1.25);
  const TimestampStats merged = MergeParallelSamples({s});
  EXPECT_EQ(merged.timestamp, s.timestamp);
  EXPECT_EQ(merged.candidate_pairs, s.candidate_pairs);
  EXPECT_EQ(merged.total_pairs, s.total_pairs);
  EXPECT_EQ(merged.true_pairs, s.true_pairs);
  EXPECT_DOUBLE_EQ(merged.update_millis, s.update_millis);
  EXPECT_DOUBLE_EQ(merged.join_millis, s.join_millis);
}

TEST(FilterStatsTest, MissingTruthOnAnyShardPoisonsTheMerge) {
  // One shard without ground truth makes the merged truth unknown,
  // regardless of where that shard sits in the list.
  for (int missing = 0; missing < 3; ++missing) {
    std::vector<TimestampStats> shards;
    for (int i = 0; i < 3; ++i) {
      shards.push_back(MakeSample(1, i, 5, i == missing ? -1 : i, 0.0, 0.0));
    }
    EXPECT_EQ(MergeParallelSamples(shards).true_pairs, -1) << missing;
  }
}

TEST(FilterStatsTest, MergeSumsBusyAcrossShards) {
  // Costs take the epoch's critical path (max), but busy time is
  // aggregate work and must sum — that difference is what exposes the
  // busy vs. idle split.
  const std::vector<TimestampStats> shards = {
      MakeSample(1, 0, 4, -1, 3.0, 1.0),
      MakeSample(1, 0, 4, -1, 1.0, 2.0),
  };
  const TimestampStats merged = MergeParallelSamples(shards);
  EXPECT_DOUBLE_EQ(merged.update_millis, 3.0);
  EXPECT_DOUBLE_EQ(merged.join_millis, 2.0);
  EXPECT_DOUBLE_EQ(merged.busy_millis, 7.0);
}

TEST(FilterStatsTest, CostPercentilesUseNearestRank) {
  StatsAccumulator acc;
  // Costs 1..10 ms (update + join split arbitrarily), inserted out of order.
  for (const int cost : {7, 2, 10, 1, 5, 3, 9, 4, 8, 6}) {
    acc.Add(MakeSample(cost, 0, 1, -1, cost * 0.25, cost * 0.75));
  }
  EXPECT_DOUBLE_EQ(acc.CostPercentileMillis(50.0), 5.0);
  EXPECT_DOUBLE_EQ(acc.CostPercentileMillis(95.0), 10.0);
  EXPECT_DOUBLE_EQ(acc.CostPercentileMillis(90.0), 9.0);
  EXPECT_DOUBLE_EQ(acc.CostPercentileMillis(100.0), 10.0);
  EXPECT_DOUBLE_EQ(acc.MaxCostMillis(), 10.0);
  EXPECT_DOUBLE_EQ(acc.AvgBusyMillis(), 5.5);
}

TEST(FilterStatsTest, PercentilesOfSingleSampleAndEmpty) {
  StatsAccumulator empty;
  EXPECT_DOUBLE_EQ(empty.CostPercentileMillis(50.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.MaxCostMillis(), 0.0);
  EXPECT_DOUBLE_EQ(empty.AvgBusyMillis(), 0.0);

  StatsAccumulator one;
  one.Add(MakeSample(0, 0, 1, -1, 1.5, 2.5));
  EXPECT_DOUBLE_EQ(one.CostPercentileMillis(50.0), 4.0);
  EXPECT_DOUBLE_EQ(one.CostPercentileMillis(95.0), 4.0);
  EXPECT_DOUBLE_EQ(one.MaxCostMillis(), 4.0);
}

TEST(FilterStatsTest, AccumulatorHandlesMergedEmptySamples) {
  StatsAccumulator acc;
  acc.Add(MergeParallelSamples({}));
  acc.Add(MakeSample(1, 2, 4, 2, 1.0, 1.0));
  EXPECT_EQ(acc.num_timestamps(), 2);
  // The empty sample has no ground truth, so precision averages over the
  // one sample that does; candidates never drop below truth.
  EXPECT_DOUBLE_EQ(acc.AvgPrecision(), 1.0);
  EXPECT_TRUE(acc.CandidatesNeverBelowTruth());
}

}  // namespace
}  // namespace gsps
