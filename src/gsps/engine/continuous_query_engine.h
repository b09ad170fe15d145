// The continuous subgraph pattern search engine (paper Definition 2.8).
//
// A thin sequential scheduler over exactly one StreamShard: every call
// forwards to the shard, which owns the whole pipeline (NNTs, join
// strategy, tracker, stage timers, churn). The pipelined
// engine (pipelined_query_engine.h) drives many shards of the same type on
// worker threads; this class exists so single-threaded callers keep a
// minimal API with no sharding vocabulary. See stream_shard.h for the
// semantics of each method.
//
// Usage:
//   ContinuousQueryEngine engine(options);
//   for (auto& q : queries) engine.AddQuery(q);
//   for (auto& s : streams) engine.AddStream(s.StartGraph());
//   engine.Start();
//   for (int t = 1; t < horizon; ++t) {
//     for (int i = 0; i < num_streams; ++i)
//       engine.ApplyChange(i, streams[i].ChangeAt(t));
//     auto pairs = engine.AllCandidatePairs();
//   }

#ifndef GSPS_ENGINE_CONTINUOUS_QUERY_ENGINE_H_
#define GSPS_ENGINE_CONTINUOUS_QUERY_ENGINE_H_

#include <utility>
#include <vector>

#include "gsps/engine/stream_shard.h"
#include "gsps/graph/graph.h"
#include "gsps/graph/graph_change.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {

class ContinuousQueryEngine {
 public:
  explicit ContinuousQueryEngine(const EngineOptions& options)
      : shard_(options) {}

  ContinuousQueryEngine(const ContinuousQueryEngine&) = delete;
  ContinuousQueryEngine& operator=(const ContinuousQueryEngine&) = delete;

  // --- Setup (before Start) -------------------------------------------------

  int AddQuery(const Graph& query) { return shard_.AddQuery(query); }
  int AddStream(Graph start) { return shard_.AddStream(std::move(start)); }
  void Start() { shard_.Start(); }

  // --- Streaming ------------------------------------------------------------

  void ApplyChange(int stream, const GraphChange& change) {
    shard_.ApplyChange(stream, change);
  }
  std::vector<int> CandidatesForStream(int stream) {
    return shard_.CandidatesForStream(stream);
  }
  void CandidatesForStream(int stream, std::vector<int>* out) {
    shard_.CandidatesForStream(stream, out);
  }
  std::vector<std::pair<int, int>> AllCandidatePairs() {
    return shard_.AllCandidatePairs();
  }
  void AllCandidatePairs(std::vector<std::pair<int, int>>* out) {
    shard_.AllCandidatePairs(out);
  }
  std::vector<int> RecomputeCandidatesFromScratch(int stream) {
    return shard_.RecomputeCandidatesFromScratch(stream);
  }
  bool VerifyCandidate(int stream, int query) const {
    return shard_.VerifyCandidate(stream, query);
  }

  // --- Candidate transitions ------------------------------------------------

  void ObserveTransitions(int stream, std::vector<int>* current,
                          CandidateTransitions* out) {
    shard_.ObserveTransitions(stream, current, out);
  }
  const std::vector<int>& LastObservedCandidates(int stream) const {
    return shard_.LastObservedCandidates(stream);
  }

  // --- Dynamic queries ------------------------------------------------------

  int AddQueryDynamic(const Graph& query) {
    return shard_.AddQueryDynamic(query);
  }
  void RemoveQueryDynamic(int query) { shard_.RemoveQueryDynamic(query); }
  bool IsQueryRetired(int query) const { return shard_.IsQueryRetired(query); }
  void CheckChurnInvariants() const { shard_.CheckChurnInvariants(); }

  // --- Introspection --------------------------------------------------------

  int num_streams() const { return shard_.num_streams(); }
  int num_queries() const { return shard_.num_queries(); }
  int num_active_queries() const { return shard_.num_active_queries(); }
  const Graph& StreamGraph(int stream) const {
    return shard_.StreamGraph(stream);
  }
  const Graph& QueryGraph(int query) const { return shard_.QueryGraph(query); }
  const NntSet& StreamNnts(int stream) const {
    return shard_.StreamNnts(stream);
  }
  const DimensionTable& dimensions() const { return shard_.dimensions(); }

 private:
  StreamShard shard_;
};

}  // namespace gsps

#endif  // GSPS_ENGINE_CONTINUOUS_QUERY_ENGINE_H_
