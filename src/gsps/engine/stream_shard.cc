#include "gsps/engine/stream_shard.h"

#include <algorithm>
#include <utility>

#include "gsps/common/check.h"
#include "gsps/iso/subgraph_isomorphism.h"
#include "gsps/join/dominance.h"
#include "gsps/obs/obs.h"

namespace gsps {

StreamShard::StreamShard(const EngineOptions& options) : options_(options) {
  GSPS_CHECK(options.nnt_depth >= 1);
}

int StreamShard::AddQuery(const Graph& query) {
  GSPS_CHECK_MSG(!started_, "use AddQueryDynamic after Start()");
  queries_.push_back(QueryState{query, ComputeQueryVectors(query), false});
  return static_cast<int>(queries_.size()) - 1;
}

int StreamShard::AddStream(Graph start) {
  GSPS_CHECK_MSG(!started_, "streams are fixed at Start()");
  StreamState state;
  state.graph = std::move(start);
  streams_.push_back(std::move(state));
  return static_cast<int>(streams_.size()) - 1;
}

void StreamShard::Start() {
  GSPS_CHECK(!started_);
  started_ = true;
  for (StreamState& stream : streams_) {
    stream.nnts = std::make_unique<NntSet>(options_.nnt_depth, &dimensions_);
    stream.nnts->Build(stream.graph);
  }
  tracker_ = CandidateTracker(num_streams());
  // No query can be retired before Start(), so the strategy's ids are the
  // engine's: 0..n-1.
  strategy_ = MakeJoinStrategy(options_.join_kind);
  std::vector<QueryVectors> vectors;
  for (const QueryState& query : queries_) vectors.push_back(query.vectors);
  GSPS_OBS_GAUGE_SET(Gauge::kQueriesActive, num_active_queries());
  strategy_->SetQueries(std::move(vectors));
  strategy_->SetNumStreams(num_streams());
  for (int i = 0; i < num_streams(); ++i) ReplayStream(i);
}

void StreamShard::ApplyChange(int stream_index, const GraphChange& change) {
  GSPS_CHECK(started_);
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  {
    GSPS_OBS_STAGE(Stage::kNntMaintain, stream_index);
    // Deletions first, then insertions (§III.B sequentialization).
    for (const EdgeOp& op : change.ops) {
      if (op.kind != EdgeOp::Kind::kDelete) continue;
      if (!stream.graph.HasEdge(op.u, op.v)) continue;
      stream.nnts->DeleteEdge(op.u, op.v);
      stream.graph.RemoveEdge(op.u, op.v);
    }
    for (const EdgeOp& op : change.ops) {
      if (op.kind != EdgeOp::Kind::kInsert) continue;
      if (!ApplyInsert(op, stream.graph)) continue;
      stream.nnts->InsertEdge(stream.graph, op.u, op.v);
    }
  }
  GSPS_OBS_STAGE(Stage::kDirtyDrain, stream_index);
  FlushDirty(stream_index);
}

std::vector<int> StreamShard::CandidatesForStream(int stream) {
  std::vector<int> candidates;
  CandidatesForStream(stream, &candidates);
  return candidates;
}

void StreamShard::CandidatesForStream(int stream, std::vector<int>* out) {
  GSPS_CHECK(started_);
  strategy_->CandidatesForStream(stream, out);
}

std::vector<std::pair<int, int>> StreamShard::AllCandidatePairs() {
  std::vector<std::pair<int, int>> pairs;
  AllCandidatePairs(&pairs);
  return pairs;
}

void StreamShard::AllCandidatePairs(std::vector<std::pair<int, int>>* out) {
  GSPS_CHECK(started_);
  out->clear();
  for (int i = 0; i < num_streams(); ++i) {
    CandidatesForStream(i, &candidates_scratch_);
    for (const int query : candidates_scratch_) out->emplace_back(i, query);
  }
}

std::vector<int> StreamShard::RecomputeCandidatesFromScratch(
    int stream_index) {
  GSPS_CHECK(started_);
  std::unique_ptr<JoinStrategy> fresh = MakeJoinStrategy(options_.join_kind);
  std::vector<QueryVectors> vectors;
  // The fresh strategy numbers the registered queries 0..n-1 in ascending
  // engine order, which skips retired ids — map back through a local
  // table.
  std::vector<int> fresh_to_engine;
  for (size_t j = 0; j < queries_.size(); ++j) {
    if (queries_[j].retired) continue;
    vectors.push_back(queries_[j].vectors);
    fresh_to_engine.push_back(static_cast<int>(j));
  }
  fresh->SetQueries(std::move(vectors));
  fresh->SetNumStreams(num_streams());
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  for (const VertexId root : stream.nnts->Roots()) {
    fresh->UpdateStreamVertex(stream_index, root, stream.nnts->NpvOf(root));
  }
  std::vector<int> mapped;
  for (const int local : fresh->CandidatesForStream(stream_index)) {
    mapped.push_back(fresh_to_engine[static_cast<size_t>(local)]);
  }
  return mapped;
}

bool StreamShard::VerifyCandidate(int stream, int query) const {
  return IsSubgraphIsomorphic(queries_[static_cast<size_t>(query)].graph,
                              streams_[static_cast<size_t>(stream)].graph);
}

void StreamShard::ObserveTransitions(int stream, std::vector<int>* current,
                                     CandidateTransitions* out) {
  GSPS_CHECK(started_);
  // CandidateTracker::Observe carries its own stage timer and counters;
  // forwarding must not wrap it in a second GSPS_OBS_STAGE.
  tracker_.Observe(stream, current, out);
}

const std::vector<int>& StreamShard::LastObservedCandidates(int stream) const {
  GSPS_CHECK(started_);
  return tracker_.LastObserved(stream);
}

int StreamShard::AddQueryDynamic(const Graph& query) {
  GSPS_CHECK(started_);
  QueryVectors vectors = ComputeQueryVectors(query);
  int id;
  if (!free_query_slots_.empty()) {
    id = free_query_slots_.back();
    free_query_slots_.pop_back();
  } else {
    id = static_cast<int>(queries_.size());
    queries_.emplace_back();
  }
  bool grew_dims = false;
  strategy_->AddQuery(id, vectors, &grew_dims);
  queries_[static_cast<size_t>(id)] =
      QueryState{query, std::move(vectors), false};
  GSPS_OBS_GAUGE_SET(Gauge::kQueriesActive, num_active_queries());
  if (grew_dims) {
    // The strategy's stored stream entries dropped the new dimensions at
    // translate time; replay every stream vertex to bring them in.
    for (int i = 0; i < num_streams(); ++i) ReplayStream(i);
  }
  return id;
}

void StreamShard::RemoveQueryDynamic(int query) {
  GSPS_CHECK(started_);
  GSPS_CHECK_MSG(query >= 0 && query < static_cast<int>(queries_.size()),
                 "RemoveQueryDynamic: query id out of range");
  QueryState& state = queries_[static_cast<size_t>(query)];
  GSPS_CHECK_MSG(!state.retired,
                 "RemoveQueryDynamic: query was already removed");
  strategy_->RemoveQuery(query);
  state.retired = true;
  free_query_slots_.push_back(query);
  GSPS_OBS_GAUGE_SET(Gauge::kQueriesActive, num_active_queries());
}

bool StreamShard::IsQueryRetired(int query) const {
  GSPS_CHECK(query >= 0 && query < static_cast<int>(queries_.size()));
  return queries_[static_cast<size_t>(query)].retired;
}

void StreamShard::CheckChurnInvariants() const {
  GSPS_CHECK(started_);
  strategy_->CheckChurnInvariants();
  const auto active = std::count_if(
      queries_.begin(), queries_.end(),
      [](const QueryState& query) { return !query.retired; });
  GSPS_CHECK(active == num_active_queries());
}

const Graph& StreamShard::StreamGraph(int stream) const {
  return streams_[static_cast<size_t>(stream)].graph;
}

const Graph& StreamShard::QueryGraph(int query) const {
  return queries_[static_cast<size_t>(query)].graph;
}

const NntSet& StreamShard::StreamNnts(int stream) const {
  GSPS_CHECK(started_);
  return *streams_[static_cast<size_t>(stream)].nnts;
}

void StreamShard::ReplayStream(int stream_index) {
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  // Drain the dirty set so the next incremental flush starts clean.
  stream.nnts->TakeDirtyRoots(&dirty_scratch_);
  for (const VertexId root : stream.nnts->Roots()) {
    strategy_->UpdateStreamVertex(stream_index, root,
                                  stream.nnts->NpvOf(root));
  }
}

QueryVectors StreamShard::ComputeQueryVectors(const Graph& query) {
  // The dimension table is append-only and shared, so interning the query's
  // dimensions up front keeps its vectors valid for the engine's lifetime.
  NntSet query_nnts(options_.nnt_depth, &dimensions_);
  query_nnts.Build(query);
  return BuildQueryVectors(query_nnts);
}

void StreamShard::FlushDirty(int stream_index) {
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  stream.nnts->TakeDirtyRoots(&dirty_scratch_);
  for (const VertexId root : dirty_scratch_) {
    strategy_->UpdateStreamVertex(stream_index, root, stream.nnts->NpvOf(root));
  }
}

}  // namespace gsps
