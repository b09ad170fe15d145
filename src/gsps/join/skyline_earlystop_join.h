// Skyline-with-early-stop join (paper §IV.B.2, Fig. 11).
//
// The complement view of dominated-set-cover: a pair (stream, query) can be
// pruned as soon as ONE query vector is found that no stream vector
// dominates — a bichromatic skyline point of the query vectors with respect
// to the stream vectors. Three optimizations from the paper:
//
//   1. Query side: only the monochromatic skyline (maximal) query vectors
//      need checking — if a dominated query vector were uncovered, the
//      vector dominating it would be uncovered too (transitivity).
//   2. Query side: skyline points are checked in descending order of how
//      many query vectors they dominate; "bigger" points are less likely to
//      be covered, so the early stop fires sooner.
//   3. Stream side: per dimension the strategy keeps the maximum value and
//      the cardinality of stream vectors with a non-zero entry. A query
//      point exceeding a dimension's max is immediately a skyline point;
//      otherwise only the stream vectors of the query point's
//      minimum-cardinality non-zero dimension are compared (any dominating
//      stream vector must be non-zero wherever the query point is).
//
// On top of the paper's pruning, verdicts are delta-cached: each stream
// remembers, per query, whether all skyline points were covered and — when
// not — the index of the first uncovered point (the witness). Every NPV
// delta records the changed vertex's old|new dimension signature; at the
// next refresh a query is re-examined only when some changed signature
// could dominate one of its points, and within a query the points before
// the witness are re-checked only when a changed signature covers them
// (they were all covered at the last refresh, so an unaffected point stays
// covered; an unaffected witness stays uncovered). The changed-signature
// list is bounded — on overflow the refresh falls back to the combined OR
// of all changed signatures, still sound, just a weaker filter.
// The buckets name stream vertices by id, and a comparison reads the
// candidate's entries from the StreamSide table by index.

#ifndef GSPS_JOIN_SKYLINE_EARLYSTOP_JOIN_H_
#define GSPS_JOIN_SKYLINE_EARLYSTOP_JOIN_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gsps/join/dominance_kernel.h"
#include "gsps/join/join_strategy.h"
#include "gsps/join/stream_side.h"

namespace gsps {

class SkylineEarlyStopJoin final : public JoinStrategy {
 public:
  SkylineEarlyStopJoin() = default;

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
  std::string_view name() const override { return "Skyline"; }

  // Statistics: how many query skyline points were compared against stream
  // vectors since construction (exposed for the ablation bench).
  int64_t comparisons() const { return comparisons_; }

 private:
  struct QueryPlan {
    // Maximal (monochromatic-skyline, deduplicated) vectors, in descending
    // dominated-count order; slab indices into points_.
    std::vector<int32_t> points;
    // OR of the point signatures: a delta whose signatures miss this can
    // not change any point's coverage.
    NpvSignature union_sig = 0;
    // True if the query has a vector with no non-zero dimension; such a
    // vector is covered exactly when the stream graph is non-empty.
    bool has_trivial_vector = false;
    // True for a query with no vectors at all (always a candidate).
    bool empty_query = false;
    // Slot liveness: retired plans keep their buffers for reuse and are
    // skipped by CandidatesForStream.
    bool live = false;
  };

  // Cached per-(stream, query) outcome of the skyline scan. Invariant: at
  // the last refresh every point before `witness` was covered, and when
  // !covered the point at `witness` was not. The initial state {false, 0}
  // (or {true, 0} for point-less plans) is exactly the empty stream's.
  struct Verdict {
    bool covered = false;
    int32_t witness = 0;
  };

  struct DimBucket {
    // Stream vertex -> value in this dimension; 0 is a tombstone (removed
    // entries keep their map node so churn never allocates).
    std::unordered_map<VertexId, int32_t> values;
    int32_t live_count = 0;
    int32_t max_value = 0;
  };

  // Bounded list of old|new signatures of vertices changed since the last
  // refresh.
  static constexpr int kMaxChangedSigs = 16;

  struct NoVertexState {};
  using Streams = StreamSide<NoVertexState>;

  struct StreamState {
    // Indexed by dim id, one past the largest query dim long.
    std::vector<DimBucket> buckets;
    std::vector<Verdict> verdicts;
    std::array<NpvSignature, kMaxChangedSigs> changed_sigs{};
    int32_t num_changed = 0;
    bool changed_overflow = false;
    NpvSignature combined_changed = 0;
    std::vector<int> cache;
    bool cache_valid = false;
  };

  // True if some vector of stream `stream_index` dominates point `point`.
  bool Covered(int stream_index, int32_t point);

  // True if a changed signature could have flipped coverage of a point with
  // signature `sig`.
  bool Affected(const StreamState& stream, NpvSignature sig) const;

  void PushChanged(StreamState& stream, NpvSignature sig);

  // Re-runs the skyline scan for one query, skipping points the deltas
  // provably left alone.
  void Reevaluate(int stream_index, const QueryPlan& plan, Verdict* verdict);

  void IndexVertex(StreamState& stream, VertexId v,
                   const std::vector<NpvEntry>& entries);
  void DeindexVertex(StreamState& stream, VertexId v,
                     const std::vector<NpvEntry>& entries);

  // Computes the plan (skyline + ordering + point slab slots) for one
  // query's vectors into plans_[j] using the member scratch, tallying its
  // kernel work. Shared by SetQueries and AddQuery (which follows it with
  // an eager verdict scan).
  void BuildPlan(int32_t j, const std::vector<Npv>& vectors);

  // Indexed by query id.
  std::vector<QueryPlan> plans_;
  // All skyline points of all plans, in one slab.
  NpvSlab points_;
  Streams streams_;
  std::vector<StreamState> states_;  // Indexed like streams_.
  // Plan-build scratch (monochromatic-skyline computation), capacity-
  // retained so steady-state AddQuery is allocation-free.
  NpvSlab scratch_slab_;
  DominanceBatch scratch_batch_;
  std::vector<int32_t> scratch_distinct_;
  std::vector<uint64_t> scratch_row_;
  std::vector<uint64_t> scratch_colset_;
  std::vector<int32_t> scratch_dom_count_;
  std::vector<std::pair<int32_t, int32_t>> scratch_order_;
  int64_t comparisons_ = 0;
  // Counts since the last CandidatesForStream, which publishes them.
  JoinTally tally_;
};

}  // namespace gsps

#endif  // GSPS_JOIN_SKYLINE_EARLYSTOP_JOIN_H_
