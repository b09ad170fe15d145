// Dominated Set Cover join (paper §IV.B.1, Fig. 8).
//
// Query side (fixed): every query vertex vector is projected into each of
// its non-zero single dimensions; per dimension the projected values are
// kept sorted. Dimensions are translated into the dense query dim-id space
// (NpvDimRemap), so the per-dimension lists live in a flat array indexed by
// dense id, and stream NPVs drop dimensions no query projects into — those
// can never flip a counter. Every non-trivial query vector lives in one
// NpvSlab slot, and the slot index is its id throughout: per-dimension list
// entries, cover counts and counter rows are all indexed by it. Stream side
// (changing): each stream vertex keeps one dominant counter per slab slot —
// in how many of that query vector's non-zero dimensions the stream
// vector's value is no smaller. A stream vertex dominates a query vector
// exactly when the counter reaches the query vector's non-zero dimension
// count; a query graph is a candidate for a stream exactly when the union
// of dominated query vectors covers all of its vectors (Theorem 4.1).
//
// Updates are incremental: when a stream vertex's NPV moves, only its own
// counter contributions are retracted and re-added, and per-query cover
// counts are adjusted — nothing is recomputed from scratch. The per-stream
// candidate list is cached; it is invalidated only by a domination-status
// flip or by the stream transitioning between empty and non-empty, so
// counter churn that flips nothing reuses the previous verdict.
//
// Counter rows are flat, 4 B x slab slots x stream vertices, so the hot
// loop is a direct row increment. Rows grow only when AddQuery appends a
// tail slot (every row, tombstoned vertices included); a re-add into a
// freed slot reuses its column, which RemoveQuery zeroed. A hash map keyed
// by the query vectors a vertex has met costs about 40 B per entry, so the
// row is smaller once a vertex meets more than about a tenth of the query
// vectors. On the reality_manyq benchmark workload a replayed vertex has
// met a median 87% of them, and a freshly set-up one 28%.

#ifndef GSPS_JOIN_DOMINATED_SET_COVER_JOIN_H_
#define GSPS_JOIN_DOMINATED_SET_COVER_JOIN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gsps/join/dominance_kernel.h"
#include "gsps/join/join_strategy.h"
#include "gsps/obs/attribution.h"

namespace gsps {

class DominatedSetCoverJoin final : public JoinStrategy {
 public:
  DominatedSetCoverJoin() = default;

  void SetQueries(std::vector<QueryVectors> queries) override;
  void SetNumStreams(int num_streams) override;
  int32_t AddQuery(const QueryVectors& query, bool* grew_dims) override;
  void RemoveQuery(int32_t local_id) override;
  void UpdateStreamVertex(int stream, VertexId v, const Npv& npv) override;
  void RemoveStreamVertex(int stream, VertexId v) override;
  void CandidatesForStream(int stream, std::vector<int>* out) override;
  using JoinStrategy::CandidatesForStream;
  void CheckChurnInvariants() const override;
  void FlushAttribution() override { attr_.Flush(); }
  std::string_view name() const override { return "DSC"; }

 private:
  // One projected query value in a single (dense) dimension.
  struct DimEntry {
    int32_t value = 0;
    int32_t slot = -1;  // The query vector's slab slot.
  };

  struct StreamVertexState {
    // Dense-translated NPV entries (query dims only), sorted ascending.
    std::vector<NpvEntry> entries;
    // Dominant counters indexed by slab slot, qvecs_.size() long; zero for
    // freed slots.
    std::vector<int32_t> dominant;
    // Tombstone flag: removed vertices keep their buffers (entries cleared,
    // counters retracted to zero) so a later re-add allocates nothing.
    bool live = false;
  };

  struct StreamState {
    std::unordered_map<VertexId, StreamVertexState> vertices;
    // Per query vector (slab slot): how many stream vertices dominate it.
    std::vector<int32_t> cover_count;
    // Per query graph: how many of its query vectors are covered.
    std::vector<int32_t> covered_vectors;
    int32_t live_vertices = 0;
    // Cached candidate list; invalidated by SetDominates flips and by
    // 0 <-> non-zero live_vertices transitions only.
    std::vector<int> cache;
    bool cache_valid = false;
  };

  // Retracts (`delta`=-1) or re-adds (`delta`=+1) the counter contributions
  // of `vertex`'s current entries, maintaining cover bookkeeping.
  void Apply(StreamState& stream, StreamVertexState& vertex, int delta);

  // The paper's incremental position update: adjusts the dominant counters
  // of `vertex` in dense dimension `dim` for query entries with value in
  // (from, to] (delta = +1) or retracts them (delta = -1). `from < to`.
  void AdjustRange(StreamState& stream, StreamVertexState& vertex, DimId dim,
                   int32_t from, int32_t to, int delta);

  void SetDominates(StreamState& stream, int32_t slot, bool now_dominates);

  // Allocates (or reuses) a query slot.
  int32_t AllocQuerySlot();

  int32_t num_queries_ = 0;
  // Slab slot -> owning query graph index.
  std::vector<int32_t> qvec_query_;
  // Per query graph: the slab slots of its non-trivial ("tracked") query
  // vectors; a query is covered when all of them are.
  std::vector<std::vector<int32_t>> query_qvecs_;
  // Per query graph: number of trivially-covered (nnz == 0) vectors.
  std::vector<int32_t> query_trivial_vectors_;
  // Churn slot bookkeeping: retired query ids are reused (slab slots are
  // reused through the slab's own free list).
  std::vector<uint8_t> query_live_;
  std::vector<int32_t> free_queries_;
  // Dense dimension -> sorted projected query values (the paper's
  // per-dimension sorted lists), indexed directly by dense dim id.
  NpvDimRemap remap_;
  std::vector<std::vector<DimEntry>> dim_lists_;
  // The non-trivial query vectors, also consumed by the batched dominance
  // kernel in count mode when a vertex arrives with no prior entries (bulk
  // insert): counters start from zero, so one kernel sweep yields every
  // dominant counter without walking the dimension lists.
  NpvSlab qvecs_;
  DominanceBatch batch_;

  std::vector<StreamState> streams_;
  std::vector<NpvEntry> translate_scratch_;
  std::vector<DimId> remap_scratch_;

  // Observability accumulators for the maintenance inner loops: plain
  // member adds there (AdjustRange / SetDominates run per dimension-range
  // per NPV move), flushed to the installed sink once per
  // CandidatesForStream. Counts pending since the last flush are only lost
  // if no candidate read ever follows the updates.
  int64_t pending_rounds_ = 0;
  int64_t pending_flips_ = 0;
  DominanceKernelStats pending_kernel_;
  // Per-query work attribution; weight is the query's tracked vector
  // count. Flushed by the engine at metrics cadence.
  obs::QueryAttribution attr_;
};

}  // namespace gsps

#endif  // GSPS_JOIN_DOMINATED_SET_COVER_JOIN_H_
