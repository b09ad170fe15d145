// Nested-loop join: the reference strategy (paper §IV.B's baseline).
//
// For each query graph, every query vertex must be dominated by at least one
// stream vertex (Lemma 4.2). The pairwise dominance scan is the baseline the
// optimized strategies are property-tested against, but it is evaluated
// incrementally: when a stream vertex's NPV changes, only that vertex is
// re-tested against the query vectors (one kernel sweep of the query slab,
// signature fast-reject first), and only the slots whose domination flipped
// reach the shared cover counts (CoverQuerySide). CandidatesForStream is an
// O(queries) counter scan, answered from a cached list while no slot has
// flipped and the stream's emptiness has held since the last call.

#ifndef GSPS_JOIN_NESTED_LOOP_JOIN_H_
#define GSPS_JOIN_NESTED_LOOP_JOIN_H_

#include <cstdint>
#include <vector>

#include "gsps/join/cover_query_side.h"
#include "gsps/join/join_strategy.h"
#include "gsps/join/stream_side.h"

namespace gsps {

class NestedLoopJoin final : public JoinStrategy {
 public:
  NestedLoopJoin() = default;

  void SetQueries(std::vector<QueryVectors> queries) override;
  void SetNumStreams(int num_streams) override;
  void AddQuery(int32_t id, const QueryVectors& query,
                bool* grew_dims) override;
  void RemoveQuery(int32_t id) override;
  void UpdateStreamVertex(int stream, VertexId v, const Npv& npv) override;
  void RemoveStreamVertex(int stream, VertexId v) override;
  void CandidatesForStream(int stream, std::vector<int>* out) override;
  using JoinStrategy::CandidatesForStream;
  void CheckChurnInvariants() const override;
  std::string_view name() const override { return "NL"; }

 private:
  // Per stream vertex: the slab slots of the query vectors it dominates.
  using Streams = StreamSide<std::vector<int32_t>>;

  Streams streams_;
  CoverQuerySide query_;
  // Update scratch: the vertex's old slots as a bitset, all zero between
  // updates, capacity kept so steady-state updates allocate nothing.
  std::vector<uint64_t> dominated_before_;
  JoinTally tally_;
};

}  // namespace gsps

#endif  // GSPS_JOIN_NESTED_LOOP_JOIN_H_
