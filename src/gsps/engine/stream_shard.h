// The engine core: one shard of the continuous subgraph pattern search.
//
// A StreamShard owns everything the paper's per-stream pipeline needs —
// the evolving stream graphs, their NNTs and NPVs (§III.B), the pluggable
// join strategy (§IV.B), the candidate-transition tracker, the per-stage
// obs timers, per-query attribution, and the dynamic-query churn machinery.
// It is the single implementation of the tick path (NNT maintain → dirty
// drain → join refresh → tracker observe); the engines in
// continuous_query_engine.h and pipelined_query_engine.h are thin
// schedulers over one or many identical shards and contain no copies of
// this logic.
//
// A shard is single-threaded by construction: exactly one thread drives
// it (the caller, or the pipelined engine's worker that owns it), so
// nothing in here locks. Scheduling state — stream placement, epoch
// snapshots, per-worker metric sinks — lives with the scheduler.

#ifndef GSPS_ENGINE_STREAM_SHARD_H_
#define GSPS_ENGINE_STREAM_SHARD_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gsps/engine/candidate_tracker.h"
#include "gsps/graph/graph.h"
#include "gsps/graph/graph_change.h"
#include "gsps/join/join_strategy.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {

struct EngineOptions {
  // Maximum NNT depth; the paper's self-test (Fig. 12) shows 3 suffices.
  int nnt_depth = 3;
  JoinKind join_kind = JoinKind::kDominatedSetCover;
};

class StreamShard {
 public:
  explicit StreamShard(const EngineOptions& options);

  StreamShard(const StreamShard&) = delete;
  StreamShard& operator=(const StreamShard&) = delete;

  // --- Setup (before Start) -------------------------------------------------

  // Registers a query pattern; returns its index.
  int AddQuery(const Graph& query);

  // Registers a stream with its timestamp-0 graph; returns its index.
  int AddStream(Graph start);

  // Builds all NNTs and primes the join strategy. Must be called once after
  // registration and before any ApplyChange/candidate call.
  void Start();

  // --- Streaming ------------------------------------------------------------

  // Applies one change batch to stream `stream`: updates the graph, the
  // NNTs (deletions first, then insertions, §III.B), and pushes the changed
  // NPVs into the join strategy.
  void ApplyChange(int stream, const GraphChange& change);

  // Query indices that are candidates ("possibly joinable", Def. 2.8) for
  // stream `stream` right now, ascending. The buffer form clears *out and
  // reuses its capacity — the allocation-free path for per-timestamp loops.
  std::vector<int> CandidatesForStream(int stream);
  void CandidatesForStream(int stream, std::vector<int>* out);

  // All candidate (stream, query) pairs at the current state. Buffer form
  // as above.
  std::vector<std::pair<int, int>> AllCandidatePairs();
  void AllCandidatePairs(std::vector<std::pair<int, int>>* out);

  // Recomputes the candidates of one stream on a freshly constructed join
  // strategy fed the stream's current NPVs — deliberately bypassing all
  // incremental state. Differential referee for the cached verdicts (fuzz
  // oracle, tests); allocates, so never on the hot path.
  std::vector<int> RecomputeCandidatesFromScratch(int stream);

  // Runs the exact subgraph-isomorphism check on one pair (filter+verify;
  // expensive, off the monitoring hot path).
  bool VerifyCandidate(int stream, int query) const;

  // Pushes the join strategy's pending per-query attribution (dominance
  // probes, refresh time) into the global AttributionRegistry. Call at
  // metrics-flush cadence — per epoch close in the pipelined engine, per
  // metrics interval in single-threaded drivers. No-op before Start().
  void FlushAttribution();

  // --- Candidate transitions ------------------------------------------------

  // Diffs `*current` (ascending query indices) against the last observed
  // set of `stream` and writes the appearance/disappearance events into
  // *out. Swap-based and allocation-free in steady state (see
  // CandidateTracker::Observe); the caller chooses what to observe — raw
  // candidates or a verified subset — so filter+verify drivers keep their
  // semantics. Must not be called before Start().
  void ObserveTransitions(int stream, std::vector<int>* current,
                          CandidateTransitions* out);

  // The most recently observed candidate set of `stream`.
  const std::vector<int>& LastObservedCandidates(int stream) const;

  // --- Dynamic queries (extension; the paper leaves these as future work) ---

  // Registers a new query while streaming, incrementally: the join
  // strategy's slotted AddQuery folds the new vectors into its existing
  // state (no rebuild). Returns the engine id — the most recently retired
  // slot when one is free, a fresh index otherwise. When
  // the new query introduces dimensions no prior query used, every stream
  // vertex is replayed through the strategy once (the dense dim space was
  // renumbered); otherwise the cost is proportional to the new query alone.
  int AddQueryDynamic(const Graph& query);

  // Retires a query in place: its slab rows, signatures and per-stream
  // bookkeeping are freed inside the strategy, and the engine slot becomes
  // reusable by a later AddQueryDynamic. Checks (GSPS_CHECK) that `query`
  // is in range and not already removed.
  void RemoveQueryDynamic(int query);

  // True when `query` has been removed. Checks that `query` is in range.
  bool IsQueryRetired(int query) const;

  // Asserts the full churn-invariant battery of the underlying strategy
  // plus the shard's own slot maps. Test/fuzz hook; O(everything).
  void CheckChurnInvariants() const;

  // --- Introspection --------------------------------------------------------

  int num_streams() const { return static_cast<int>(streams_.size()); }
  // Slot-space size: includes retired slots awaiting reuse.
  int num_queries() const { return static_cast<int>(queries_.size()); }
  // Queries currently registered (num_queries() minus retired slots).
  int num_active_queries() const { return num_active_queries_; }
  const Graph& StreamGraph(int stream) const;
  const Graph& QueryGraph(int query) const;
  const NntSet& StreamNnts(int stream) const;
  const DimensionTable& dimensions() const { return dimensions_; }

 private:
  struct StreamState {
    Graph graph;
    std::unique_ptr<NntSet> nnts;
  };
  struct QueryState {
    Graph graph;
    QueryVectors vectors;  // Computed once at registration.
    bool retired = false;
  };

  // Builds the NPVs of a query graph against the shared dimension table.
  QueryVectors ComputeQueryVectors(const Graph& query);

  // Recreates the join strategy from current queries and stream vectors.
  void RebuildStrategy();

  // Pushes dirty NPVs of one stream into the strategy.
  void FlushDirty(int stream);

  EngineOptions options_;
  DimensionTable dimensions_;
  std::vector<QueryState> queries_;
  std::vector<StreamState> streams_;
  std::unique_ptr<JoinStrategy> strategy_;
  CandidateTracker tracker_{0};  // Resized (reconstructed) at Start().
  // Maps the strategy's local query slots back to engine query indices and
  // vice versa. With slot reuse neither map is monotonic, so candidate
  // lists are sorted after mapping. engine_to_strategy_ holds -1 for
  // retired engine slots.
  std::vector<int> strategy_to_engine_;
  std::vector<int> engine_to_strategy_;
  // Retired engine slots available for AddQueryDynamic reuse (LIFO).
  std::vector<int> free_query_slots_;
  int num_active_queries_ = 0;
  // Reused dirty-root drain buffer so FlushDirty allocates nothing in
  // steady state.
  std::vector<VertexId> dirty_scratch_;
  // Reused strategy-local candidate buffer for the index mapping in
  // CandidatesForStream, and the mapped per-stream buffer used by
  // AllCandidatePairs.
  std::vector<int> local_scratch_;
  std::vector<int> mapped_scratch_;
  bool started_ = false;
};

}  // namespace gsps

#endif  // GSPS_ENGINE_STREAM_SHARD_H_
