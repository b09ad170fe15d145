#include "gsps/engine/shard_assignment.h"

#include <algorithm>
#include <numeric>

#include "gsps/common/check.h"

namespace gsps {

ShardPlan PlanShardAssignment(const std::vector<int64_t>& weights,
                              int num_shards) {
  GSPS_CHECK(num_shards >= 1);
  const int num_streams = static_cast<int>(weights.size());
  ShardPlan plan;
  plan.stream_to_shard.assign(num_streams, 0);
  plan.stream_to_local.assign(num_streams, 0);
  plan.shard_streams.resize(num_shards);

  // Heaviest stream first (ties by lowest stream id, so the order — and
  // with it the whole placement — is deterministic), each onto the
  // currently lightest shard (ties by lowest shard id).
  std::vector<int> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weights[a] > weights[b];
  });
  std::vector<int64_t> shard_weight(num_shards, 0);
  for (int stream : order) {
    int lightest = 0;
    for (int s = 1; s < num_shards; ++s) {
      if (shard_weight[s] < shard_weight[lightest]) lightest = s;
    }
    plan.stream_to_shard[stream] = lightest;
    shard_weight[lightest] += weights[stream];
  }

  // The assignment order is weight-sorted, so rebuild the shard stream
  // lists by stream id: ascending lists keep the merged candidate order
  // identical to the sequential engine's.
  for (int i = 0; i < num_streams; ++i) {
    std::vector<int>& members = plan.shard_streams[plan.stream_to_shard[i]];
    plan.stream_to_local[i] = static_cast<int>(members.size());
    members.push_back(i);
  }

  const int64_t total =
      std::accumulate(shard_weight.begin(), shard_weight.end(), int64_t{0});
  const int64_t max_weight =
      *std::max_element(shard_weight.begin(), shard_weight.end());
  plan.imbalance_ratio =
      total > 0 ? static_cast<double>(max_weight) * num_shards /
                      static_cast<double>(total)
                : 1.0;
  return plan;
}

}  // namespace gsps
