// Tests for the threaded engine driven in lockstep.
//
// gsps_monitor, the figure harnesses' --threads mode and the churn and obs
// tests drive PipelinedQueryEngine one timestamp at a time: every stream's
// whole batch is ingested, then AdvanceEpoch(t) closes the epoch before
// the next tick. The load-bearing property is output equivalence under
// that schedule: candidate pairs byte-identical to ContinuousQueryEngine at
// every timestamp, for every join strategy and worker count (1-12,
// spanning fewer and more workers than streams), with the merged epoch
// sample that the figure harnesses read (TakeBarrierStats) counting
// exactly those pairs. On top of that, the paper's no-false-negative
// guarantee is re-checked under concurrency against VF2 ground truth,
// query churn between epochs is checked against the sequential engine, and
// the shards are checked to run the LPT placement. Fragmented batches,
// backpressure, watermarks and churn with data in flight are covered in
// pipelined_engine_test.cc.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gsps/engine/continuous_query_engine.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/engine/shard_assignment.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/graph/graph_change.h"
#include "gsps/iso/subgraph_isomorphism.h"

namespace gsps {
namespace {

struct Workload {
  std::vector<Graph> queries;
  std::vector<GraphStream> streams;
};

Workload RandomWorkload(int num_streams, int num_timestamps, uint64_t seed) {
  SyntheticStreamParams params;
  params.num_pairs = num_streams;
  params.evolution.num_timestamps = num_timestamps;
  params.evolution.p_appear = 0.25;
  params.evolution.p_disappear = 0.2;
  params.evolution.extra_pair_fraction = 3.0;
  params.seed = seed;
  StreamDataset dataset = MakeSyntheticStreams(params);
  return Workload{std::move(dataset.queries), std::move(dataset.streams)};
}

int Horizon(const Workload& workload) {
  int horizon = 0;
  for (const GraphStream& s : workload.streams) {
    horizon = std::max(horizon, s.NumTimestamps());
  }
  return horizon;
}

GraphChange ChangeAt(const GraphStream& stream, int t) {
  return t < stream.NumTimestamps() ? stream.ChangeAt(t) : GraphChange{};
}

// One lockstep tick: every stream's whole batch for `t` (empty past the
// end of a shorter stream), then the epoch close.
void ApplyTimestamp(PipelinedQueryEngine& engine, const Workload& workload,
                    int t) {
  for (size_t i = 0; i < workload.streams.size(); ++i) {
    IngestEvent event;
    event.stream = static_cast<int32_t>(i);
    event.timestamp = t;
    event.change = ChangeAt(workload.streams[i], t);
    ASSERT_TRUE(engine.Ingest(std::move(event)));
  }
  engine.AdvanceEpoch(t);
}

// Runs both engines over the workload in lockstep and asserts identical
// candidate pairs at every timestamp, plus a merged epoch sample that
// covers exactly that timestamp's pairs.
void ExpectEquivalent(const Workload& workload, JoinKind kind,
                      int num_threads) {
  EngineOptions engine_options;
  engine_options.join_kind = kind;
  ContinuousQueryEngine sequential(engine_options);

  PipelinedEngineOptions options;
  options.engine = engine_options;
  options.num_threads = num_threads;
  PipelinedQueryEngine parallel(options);

  for (const Graph& q : workload.queries) {
    sequential.AddQuery(q);
    parallel.AddQuery(q);
  }
  const int num_streams = static_cast<int>(workload.streams.size());
  for (const GraphStream& s : workload.streams) {
    sequential.AddStream(s.StartGraph());
    parallel.AddStream(s.StartGraph());
  }
  sequential.Start();
  parallel.Start();  // Completes epoch 0.
  EXPECT_EQ(parallel.num_shards(),
            std::min(std::max(1, num_threads), num_streams));
  const int64_t total_pairs =
      static_cast<int64_t>(num_streams) * parallel.num_queries();

  for (int t = 0; t < Horizon(workload); ++t) {
    if (t > 0) {
      for (int i = 0; i < num_streams; ++i) {
        sequential.ApplyChange(
            i, ChangeAt(workload.streams[static_cast<size_t>(i)], t));
      }
      ApplyTimestamp(parallel, workload, t);
    }
    const std::vector<std::pair<int, int>> pairs =
        sequential.AllCandidatePairs();
    ASSERT_EQ(parallel.AllCandidatePairs(), pairs)
        << "join=" << JoinKindName(kind) << " threads=" << num_threads
        << " t=" << t;
    const TimestampStats stats = parallel.TakeBarrierStats();
    EXPECT_EQ(stats.timestamp, t);
    EXPECT_EQ(stats.candidate_pairs, static_cast<int64_t>(pairs.size()))
        << "t=" << t;
    EXPECT_EQ(stats.total_pairs, total_pairs) << "t=" << t;
  }
  parallel.Shutdown();
}

TEST(ParallelEngineTest, MatchesSequentialAcrossThreadCountsAndStrategies) {
  const Workload workload = RandomWorkload(/*num_streams=*/9,
                                           /*num_timestamps=*/12,
                                           /*seed=*/77);
  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
        JoinKind::kSkylineEarlyStop}) {
    // 1 = degenerate single shard; 4 < streams; 8 ~ streams; 12 > streams.
    for (const int threads : {1, 4, 8, 12}) {
      ExpectEquivalent(workload, kind, threads);
    }
  }
}

TEST(ParallelEngineTest, MatchesSequentialOnManyRandomSeeds) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Workload workload =
        RandomWorkload(/*num_streams=*/6, /*num_timestamps=*/8, seed);
    ExpectEquivalent(workload, JoinKind::kDominatedSetCover, 3);
  }
}

TEST(ParallelEngineTest, CandidatesForStreamMatchesMergedPairs) {
  const Workload workload = RandomWorkload(5, 6, 21);
  PipelinedEngineOptions options;
  options.num_threads = 3;
  PipelinedQueryEngine engine(options);
  for (const Graph& q : workload.queries) engine.AddQuery(q);
  for (const GraphStream& s : workload.streams) {
    engine.AddStream(s.StartGraph());
  }
  engine.Start();
  for (int t = 0; t < Horizon(workload); ++t) {
    if (t > 0) ApplyTimestamp(engine, workload, t);
    std::vector<std::pair<int, int>> rebuilt;
    for (int i = 0; i < engine.num_streams(); ++i) {
      for (const int q : engine.CandidatesForStream(i)) {
        rebuilt.emplace_back(i, q);
      }
    }
    EXPECT_EQ(rebuilt, engine.AllCandidatePairs()) << "t=" << t;
  }
  engine.Shutdown();
}

// --- No-false-negative property under concurrency --------------------------

TEST(ParallelEngineTest, NoFalseNegativesAgainstExactIsomorphism) {
  // A dense regime — small low-label queries, appear-biased evolution — so
  // streams actually grow supergraphs of their base query and ground-truth
  // matches occur (asserted below: the property must have teeth).
  SyntheticStreamParams params;
  params.num_pairs = 6;
  params.avg_graph_edges = 9;
  params.num_vertex_labels = 2;
  params.evolution.num_timestamps = 10;
  params.evolution.p_appear = 0.55;
  params.evolution.p_disappear = 0.05;
  params.evolution.extra_pair_fraction = 2.0;
  params.seed = 99;
  StreamDataset dataset = MakeSyntheticStreams(params);
  const Workload workload{std::move(dataset.queries),
                          std::move(dataset.streams)};
  PipelinedEngineOptions options;
  options.num_threads = 4;
  PipelinedQueryEngine engine(options);
  for (const Graph& q : workload.queries) engine.AddQuery(q);
  const int num_streams = static_cast<int>(workload.streams.size());
  for (const GraphStream& s : workload.streams) {
    engine.AddStream(s.StartGraph());
  }
  engine.Start();

  int true_pairs_seen = 0;
  for (int t = 0; t < Horizon(workload); ++t) {
    if (t > 0) ApplyTimestamp(engine, workload, t);
    // Quiescent past the epoch: the live graphs match the snapshots.
    const std::vector<std::pair<int, int>> candidates =
        engine.AllCandidatePairs();
    for (int i = 0; i < num_streams; ++i) {
      for (int q = 0; q < engine.num_queries(); ++q) {
        if (!IsSubgraphIsomorphic(engine.QueryGraph(q),
                                  engine.StreamGraph(i))) {
          continue;
        }
        ++true_pairs_seen;
        EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                            std::make_pair(i, q)),
                  candidates.end())
            << "false negative: stream " << i << " query " << q << " at t="
            << t;
        EXPECT_TRUE(engine.VerifyCandidate(i, q));
      }
    }
  }
  // The workload derives queries from the streams, so ground-truth matches
  // must actually occur for the property to have teeth.
  EXPECT_GT(true_pairs_seen, 0);
  engine.Shutdown();
}

// --- Dynamic queries and stats ---------------------------------------------

TEST(ParallelEngineTest, DynamicQueriesStayEquivalent) {
  // Churn lands between epochs, with no data in flight; the next epoch's
  // snapshot is the first read that reflects it.
  const Workload workload = RandomWorkload(5, 4, 13);
  ContinuousQueryEngine sequential(EngineOptions{});
  PipelinedEngineOptions options;
  options.num_threads = 4;
  PipelinedQueryEngine parallel(options);

  for (size_t j = 0; j + 1 < workload.queries.size(); ++j) {
    sequential.AddQuery(workload.queries[j]);
    parallel.AddQuery(workload.queries[j]);
  }
  const int num_streams = static_cast<int>(workload.streams.size());
  for (const GraphStream& s : workload.streams) {
    sequential.AddStream(s.StartGraph());
    parallel.AddStream(s.StartGraph());
  }
  sequential.Start();
  parallel.Start();

  auto tick = [&](int t) {
    for (int i = 0; i < num_streams; ++i) {
      sequential.ApplyChange(
          i, ChangeAt(workload.streams[static_cast<size_t>(i)], t));
    }
    ApplyTimestamp(parallel, workload, t);
    EXPECT_EQ(parallel.AllCandidatePairs(), sequential.AllCandidatePairs())
        << "t=" << t;
    EXPECT_EQ(parallel.num_active_queries(), sequential.num_active_queries());
  };

  const Graph& late_query = workload.queries.back();
  EXPECT_EQ(parallel.AddQueryDynamic(late_query),
            sequential.AddQueryDynamic(late_query));
  tick(1);

  sequential.RemoveQueryDynamic(0);
  parallel.RemoveQueryDynamic(0);
  tick(2);

  // Slot reuse: the retired slot comes back on both engines.
  EXPECT_EQ(parallel.AddQueryDynamic(workload.queries[0]),
            sequential.AddQueryDynamic(workload.queries[0]));
  tick(3);
  parallel.CheckChurnInvariants();
  parallel.Shutdown();
}

TEST(ParallelEngineTest, BarrierStatsMergePerWorkerSamples) {
  const Workload workload = RandomWorkload(6, 3, 31);
  PipelinedEngineOptions options;
  options.num_threads = 3;
  PipelinedQueryEngine engine(options);
  for (const Graph& q : workload.queries) engine.AddQuery(q);
  for (const GraphStream& s : workload.streams) {
    engine.AddStream(s.StartGraph());
  }
  engine.Start();  // Epoch 0's snapshot is the first sample.
  const int64_t total_pairs =
      static_cast<int64_t>(engine.num_streams()) * engine.num_queries();

  const std::vector<std::pair<int, int>> pairs0 = engine.AllCandidatePairs();
  const TimestampStats stats0 = engine.TakeBarrierStats();
  EXPECT_EQ(stats0.timestamp, 0);
  EXPECT_EQ(stats0.candidate_pairs, static_cast<int64_t>(pairs0.size()));
  EXPECT_EQ(stats0.total_pairs, total_pairs);
  EXPECT_GE(stats0.join_millis, 0.0);
  // The merge drained the per-shard accumulators.
  const TimestampStats drained = engine.TakeBarrierStats();
  EXPECT_EQ(drained.candidate_pairs, 0);
  EXPECT_EQ(drained.update_millis, 0.0);
  EXPECT_EQ(drained.join_millis, 0.0);

  // Two epochs between reads: candidate pairs sum over shards and epochs,
  // the costs are the slowest shard's, and busy time sums the shards' work.
  int64_t candidates = 0;
  for (int t = 1; t < Horizon(workload); ++t) {
    ApplyTimestamp(engine, workload, t);
    candidates += static_cast<int64_t>(engine.AllCandidatePairs().size());
  }
  const TimestampStats stats = engine.TakeBarrierStats();
  EXPECT_EQ(stats.timestamp, Horizon(workload) - 1);
  EXPECT_EQ(stats.candidate_pairs, candidates);
  EXPECT_EQ(stats.total_pairs, total_pairs);
  EXPECT_GT(stats.update_millis, 0.0);
  EXPECT_GE(stats.busy_millis, stats.update_millis);
  EXPECT_GE(stats.busy_millis, stats.join_millis);
  EXPECT_EQ(engine.TakeBarrierStats().candidate_pairs, 0);
  engine.Shutdown();
}

// --- LPT placement ---------------------------------------------------------

TEST(ParallelEngineLptTest, LptPlacementIsOutputIdenticalToSequential) {
  const Workload workload = RandomWorkload(7, 8, 17);
  ExpectEquivalent(workload, JoinKind::kDominatedSetCover, 3);

  // The shards run the LPT plan over the start graphs' edge counts: each
  // lane consumed one event per tick for each stream the plan gave it.
  std::vector<int64_t> weights;
  for (const GraphStream& s : workload.streams) {
    weights.push_back(s.StartGraph().NumEdges());
  }
  const ShardPlan plan = PlanShardAssignment(weights, 3);
  PipelinedEngineOptions options;
  options.num_threads = 3;
  PipelinedQueryEngine engine(options);
  for (const Graph& q : workload.queries) engine.AddQuery(q);
  for (const GraphStream& s : workload.streams) {
    engine.AddStream(s.StartGraph());
  }
  engine.Start();
  for (int t = 1; t < Horizon(workload); ++t) {
    ApplyTimestamp(engine, workload, t);
  }
  engine.Shutdown();
  ASSERT_EQ(engine.num_shards(), 3);
  for (int s = 0; s < engine.num_shards(); ++s) {
    EXPECT_EQ(engine.ReportLane(s).applied_events,
              static_cast<int64_t>(
                  plan.shard_streams[static_cast<size_t>(s)].size()) *
                  (Horizon(workload) - 1))
        << "shard " << s;
  }
}

}  // namespace
}  // namespace gsps
