// Stream -> shard placement for the pipelined engine.
//
// LPT (largest-processing-time-first) greedily places the heaviest
// remaining stream on the lightest shard, the classic 4/3-approximation to
// makespan scheduling, using the initial graph edge counts as weights. A
// size-blind interleave would let one shard collect several heavy streams
// of a skewed (Zipf) population while the others idle.
//
// The plan is deterministic (ties broken by lowest stream/shard id) and
// reports the resulting imbalance so the placement quality is observable:
// imbalance_ratio = max shard weight / mean shard weight, 1.0 when
// perfectly balanced, exported as the gsps_shard_imbalance_ratio gauge in
// millis.

#ifndef GSPS_ENGINE_SHARD_ASSIGNMENT_H_
#define GSPS_ENGINE_SHARD_ASSIGNMENT_H_

#include <cstdint>
#include <vector>

namespace gsps {

struct ShardPlan {
  std::vector<int> stream_to_shard;
  // Position of each stream within its shard's stream list. Streams stay
  // ascending within a shard, so the merge order (and therefore engine
  // output) does not depend on the placement.
  std::vector<int> stream_to_local;
  std::vector<std::vector<int>> shard_streams;  // Ascending global ids.
  double imbalance_ratio = 1.0;  // max shard weight / mean shard weight.
};

// `weights[i]` is the placement weight of stream i (initial edge count;
// zero-weight streams are fine). `num_shards` must be >= 1.
ShardPlan PlanShardAssignment(const std::vector<int64_t>& weights,
                              int num_shards);

}  // namespace gsps

#endif  // GSPS_ENGINE_SHARD_ASSIGNMENT_H_
