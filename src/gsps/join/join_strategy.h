// Stream–query join strategies over node projected vectors (paper §IV.B).
//
// Every strategy answers the same question — "which query graphs may be
// subgraph-isomorphic to stream graph i, judged by NPV dominance
// (Lemma 4.2)?" — and all three must return identical candidate sets:
//
//   * kNestedLoop: the reference; per (query vertex, stream vertex)
//     cover counts, re-evaluating a stream vertex against every query
//     vector only when that vertex's NPV changes.
//   * kDominatedSetCover (Fig. 8): per-dimension sorted query projections
//     with position/dominant counters, maintained incrementally as stream
//     vectors move.
//   * kSkylineEarlyStop (Fig. 11): checks only the monochromatic skyline of
//     each query's vectors, ordered to stop as early as possible, with
//     per-dimension max/cardinality pruning on the stream side; per-query
//     verdicts are cached and re-examined only when a changed vertex's
//     dimension signature intersects the query's.
//
// All three are delta-driven: the engine's FlushDirty feeds vertex-level
// NPV deltas through UpdateStreamVertex, and each
// strategy folds the delta into per-(stream, query-vertex) cover state and
// a cached per-stream candidate list. CandidatesForStream answers from the
// cache when no delta touched the stream since the last call (a "verdict
// reuse"), and otherwise recomputes only what the delta invalidated.
// Query-side vectors live in a slab, and stream vectors keep only the query
// dims (see NpvDimRemap/NpvSlab in nnt/npv.h), so dominance tests that
// survive the 64-bit signature fast-reject are linear merges over contiguous
// arrays.
// NL and DSC share that query side and the cover counts built on it
// (CoverQuerySide, cover_query_side.h); Skyline keeps its own slab of
// skyline points. All three share one stream side (stream_side.h). Query
// ids are the caller's: SetQueries numbers the initial queries 0..n-1, and
// AddQuery / RemoveQuery take the id the caller chose, so candidate lists
// need no translation.

#ifndef GSPS_JOIN_JOIN_STRATEGY_H_
#define GSPS_JOIN_JOIN_STRATEGY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "gsps/graph/graph.h"
#include "gsps/nnt/npv.h"

namespace gsps {

// The NPVs of one query graph, one entry per query vertex.
struct QueryVectors {
  std::vector<Npv> vectors;
};

// Strategy selector.
enum class JoinKind {
  kNestedLoop,
  kDominatedSetCover,
  kSkylineEarlyStop,
};

// Returns a short stable name ("NL", "DSC", "Skyline").
std::string_view JoinKindName(JoinKind kind);

// Common interface. Not thread-safe; one instance per engine.
class JoinStrategy {
 public:
  virtual ~JoinStrategy() = default;

  // Installs the initial query workload. Must be called exactly once,
  // before any stream updates; later churn goes through AddQuery /
  // RemoveQuery.
  virtual void SetQueries(std::vector<QueryVectors> queries) = 0;

  // Declares how many streams will be updated. Must be called once after
  // SetQueries.
  virtual void SetNumStreams(int num_streams) = 0;

  // Registers query `id` at runtime. The caller owns the id space (the
  // shard's free list): `id` must be a retired id or the next unused one
  // (one past the largest id ever registered), and the strategy checks
  // both. May be called after SetNumStreams with stream state already in
  // place; the strategy folds the new query into every live stream vertex
  // incrementally. Sets *grew_dims to true when the query introduced
  // dimensions no existing query used — the caller must then replay every
  // stream vertex NPV through UpdateStreamVertex, because stream-side
  // vectors translated before the query dropped those dimensions at
  // translate time and cannot be fixed up in place.
  virtual void AddQuery(int32_t id, const QueryVectors& query,
                        bool* grew_dims) = 0;

  // Retires query `id` (must be live). Its slab slots, signatures, cached
  // verdicts, and per-dimension index entries are freed for reuse; live
  // queries and the kernel's sentinel-padded slab layout are undisturbed.
  // The id may be passed to a later AddQuery.
  virtual void RemoveQuery(int32_t id) = 0;

  // Validates the strategy's churn bookkeeping (slab kernel layout, slot
  // ownership, cover and liveness counts). Test/soak hook; O(state), not
  // for hot loops.
  virtual void CheckChurnInvariants() const = 0;

  // Installs or replaces the NPV of vertex `v` of stream `stream`.
  virtual void UpdateStreamVertex(int stream, VertexId v, const Npv& npv) = 0;

  // Removes vertex `v` of stream `stream`; an id never updated is a no-op.
  // The engine never calls it: an NntSet never drops a root's row.
  virtual void RemoveStreamVertex(int stream, VertexId v) = 0;

  // Writes the indices of query graphs that are candidates for stream
  // `stream` at the current state into *out (cleared first, capacity
  // reused), ascending. The allocation-free form for steady-state loops.
  virtual void CandidatesForStream(int stream, std::vector<int>* out) = 0;

  // By-value convenience wrapper.
  std::vector<int> CandidatesForStream(int stream) {
    std::vector<int> out;
    CandidatesForStream(stream, &out);
    return out;
  }

  virtual std::string_view name() const = 0;
};

// Factory.
std::unique_ptr<JoinStrategy> MakeJoinStrategy(JoinKind kind);

}  // namespace gsps

#endif  // GSPS_JOIN_JOIN_STRATEGY_H_
