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
// counter contributions are retracted and re-added, and the cover counts
// (CoverQuerySide, shared with the nested-loop join) are adjusted — nothing
// is recomputed from scratch. The per-stream candidate list is cached; it
// is invalidated only by a domination-status flip or by the stream
// transitioning between empty and non-empty, so counter churn that flips
// nothing reuses the previous verdict.
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

#include "gsps/join/cover_query_side.h"
#include "gsps/join/join_strategy.h"

namespace gsps {

class DominatedSetCoverJoin final : public JoinStrategy {
 public:
  DominatedSetCoverJoin() = default;

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
    // Dominant counters indexed by slab slot, slab().size() long; zero for
    // freed slots.
    std::vector<int32_t> dominant;
    // Tombstone flag: removed vertices keep their buffers (entries cleared,
    // counters retracted to zero) so a later re-add allocates nothing.
    bool live = false;
  };
  using VertexMap = std::unordered_map<VertexId, StreamVertexState>;

  // Retracts (`delta`=-1) or re-adds (`delta`=+1) the counter contributions
  // of `vertex`'s current entries, maintaining cover bookkeeping.
  void Apply(CoverQuerySide::Stream& cover, StreamVertexState& vertex,
             int delta);

  // The paper's incremental position update: adjusts the dominant counters
  // of `vertex` in dense dimension `dim` for query entries with value in
  // (from, to] (delta = +1) or retracts them (delta = -1). `from < to`.
  void AdjustRange(CoverQuerySide::Stream& cover, StreamVertexState& vertex,
                   DimId dim, int32_t from, int32_t to, int delta);

  void SetDominates(CoverQuerySide::Stream& cover, int32_t slot,
                    bool now_dominates) {
    ++pending_flips_;
    query_.SetDominates(cover, slot, now_dominates);
  }

  // The query vectors, their cover counts and the candidate caches.
  CoverQuerySide query_;
  // Dense dimension -> sorted projected query values (the paper's
  // per-dimension sorted lists), indexed directly by dense dim id. The
  // slab's kernel also runs in count mode when a vertex arrives with no
  // prior entries (bulk insert): counters start from zero, so one sweep
  // yields every dominant counter without walking these lists.
  std::vector<std::vector<DimEntry>> dim_lists_;
  // Per stream: its vertices.
  std::vector<VertexMap> vertices_;
  std::vector<NpvEntry> translate_scratch_;

  // Observability accumulators for the maintenance inner loops: plain
  // member adds there (AdjustRange / SetDominates run per dimension-range
  // per NPV move), flushed to the installed sink once per
  // CandidatesForStream. Counts pending since the last flush are only lost
  // if no candidate read ever follows the updates.
  int64_t pending_rounds_ = 0;
  int64_t pending_flips_ = 0;
};

}  // namespace gsps

#endif  // GSPS_JOIN_DOMINATED_SET_COVER_JOIN_H_
