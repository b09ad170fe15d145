// Dominated Set Cover join (paper §IV.B.1, Fig. 8).
//
// Query side (fixed): every query vertex vector is projected into each of
// its non-zero single dimensions; per dimension the projected values are
// kept sorted. The per-dimension lists live in a flat array indexed by
// global dim id, and stream NPVs drop dimensions no query projects into
// (NpvDimRemap) — those can never flip a counter. Every non-trivial query
// vector lives in one NpvSlab slot, and the slot index is its id
// throughout: per-dimension list entries, cover counts and counter rows are
// all indexed by it. Stream side (changing): each stream vertex keeps one
// dominant counter per slab slot — in how many of that query vector's
// non-zero dimensions the stream vector's value is no smaller. A stream
// vertex dominates a query vector exactly when the counter reaches the
// query vector's non-zero dimension count; a query graph is a candidate
// for a stream exactly when the union of dominated query vectors covers
// all of its vectors (Theorem 4.1).
//
// Updates are incremental: when a stream vertex's NPV moves, only its own
// counter contributions are retracted and re-added, and the cover counts
// (CoverQuerySide, shared with the nested-loop join) are adjusted — nothing
// is recomputed from scratch. The per-stream candidate list is cached; it
// is invalidated only by a domination-status flip or by the stream
// transitioning between empty and non-empty, so counter churn that flips
// nothing reuses the previous verdict.
//
// Counter rows are flat, 2 B x slab slots x stream vertices (uint16_t: a
// counter never exceeds its query vector's nnz, so SetQueries and AddQuery
// reject a vector with more than kMaxVectorNnz non-zero dimensions before
// changing anything). A row is its vertex's StreamSide State. Live rows
// widen when AddQuery appends a tail slot, and a tombstoned (all-zero) one
// when its vertex returns; a re-add into a freed slot reuses its column,
// which RemoveQuery zeroed. A hash map keyed by the
// query vectors a vertex has met costs about 40 B per entry, so the row is
// smaller once a vertex meets more than about a twentieth of the query
// vectors. On the reality_manyq benchmark workload a replayed vertex has
// met a median 87% of them, and a freshly set-up one 28%.
//
// An update is planned, then applied. The plan is one pass over the
// old-vs-new merge-diff that records each changed dimension's list range
// and the total entries the walk will visit. When that total reaches the
// row's cache-line count the whole row is prefetched, so the scattered
// increments that follow find it in cache; a smaller update touches too
// few lines to pay for it. A vertex with no prior entries (all counters
// zero) is seeded by one count-kernel sweep over the whole slab instead of
// the walk only when the walk would visit more than (total list entries) /
// kDominanceLanes entries: the sweep handles kDominanceLanes entries per
// vector op, so past that point it is the cheaper path. The rule reads only
// counts, never the dispatched ISA, so every ISA takes the same path.
// Stream NPVs reach the plan through the StreamSide's table-driven
// Translate.

#ifndef GSPS_JOIN_DOMINATED_SET_COVER_JOIN_H_
#define GSPS_JOIN_DOMINATED_SET_COVER_JOIN_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "gsps/join/cover_query_side.h"
#include "gsps/join/join_strategy.h"
#include "gsps/join/stream_side.h"

namespace gsps {

class DominatedSetCoverJoin final : public JoinStrategy {
 public:
  // Largest nnz a query vector may have: the counter row's uint16_t range.
  // Reaching it takes a query vertex with 65,536 distinct (level, label,
  // label) dimensions.
  static constexpr int32_t kMaxVectorNnz =
      std::numeric_limits<uint16_t>::max();

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
  // One projected query value in a single dimension.
  struct DimEntry {
    int32_t value = 0;
    int32_t slot = -1;  // The query vector's slab slot.
  };

  // Per stream vertex: its dominant counter per slab slot (0 if freed).
  using Streams = StreamSide<std::vector<uint16_t>>;

  // One changed dimension of a planned update: the query entries with
  // value in (from, to] of the paper's incremental position update, whose
  // counters all move by `delta`.
  struct PlannedRange {
    const DimEntry* begin;
    const DimEntry* end;
    int32_t delta;  // +1 or -1.
  };

  // Moves `vertex`'s counters from its current entries to `next` (sorted
  // ascending by dim): plans, then walks or seeds by kernel. The
  // StreamSide stores `next` afterwards.
  void Repair(CoverQuerySide::Stream& cover, Streams::Vertex& vertex,
              std::span<const NpvEntry> next);

  // Appends to plan_ the range of dimension `dim`'s list whose
  // counters move when the vertex's value there goes between `from` and
  // `to` (`from` < `to`), and returns its length.
  int64_t PlanRange(DimId dim, int32_t from, int32_t to, int32_t delta);

  void SetDominates(CoverQuerySide::Stream& cover, int32_t slot,
                    bool now_dominates) {
    ++tally_.set_cover_flips;
    query_.SetDominates(cover, slot, now_dominates);
  }

  Streams streams_;
  // The query vectors, their cover counts and the candidate caches.
  CoverQuerySide query_;
  // Dimension -> sorted projected query values (the paper's per-dimension
  // sorted lists), indexed directly by dim id, one past the largest query
  // dim long.
  std::vector<std::vector<DimEntry>> dim_lists_;
  // Entries over all dim_lists_: the live slots' total nnz.
  int64_t list_entries_ = 0;
  // The current update's plan, capacity kept across updates.
  std::vector<PlannedRange> plan_;
  // Counts since the last CandidatesForStream, which publishes them.
  JoinTally tally_;
};

}  // namespace gsps

#endif  // GSPS_JOIN_DOMINATED_SET_COVER_JOIN_H_
