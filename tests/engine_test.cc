// Tests for the continuous query engine: lifecycle, incremental updates,
// verification hook, dynamic queries, and stats accumulation.

#include "gsps/engine/continuous_query_engine.h"

#include <gtest/gtest.h>

#include <optional>

#include "gsps/engine/filter_stats.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/graph/graph_change.h"
#include "gsps/iso/branch_compatibility.h"

namespace gsps {
namespace {

Graph TrianglePattern() {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddVertex(0);
  EXPECT_TRUE(g.AddEdge(0, 1, 0));
  EXPECT_TRUE(g.AddEdge(1, 2, 0));
  EXPECT_TRUE(g.AddEdge(0, 2, 0));
  return g;
}

Graph EdgePattern(VertexLabel a, VertexLabel b) {
  Graph g;
  g.AddVertex(a);
  g.AddVertex(b);
  EXPECT_TRUE(g.AddEdge(0, 1, 0));
  return g;
}

TEST(EngineTest, ReportsPairAfterPatternAppears) {
  EngineOptions options;
  options.nnt_depth = 3;
  ContinuousQueryEngine engine(options);
  const int q = engine.AddQuery(TrianglePattern());
  Graph start;
  for (int i = 0; i < 3; ++i) start.AddVertex(0);
  ASSERT_TRUE(start.AddEdge(0, 1, 0));
  ASSERT_TRUE(start.AddEdge(1, 2, 0));
  const int s = engine.AddStream(start);
  engine.Start();

  // Open path: no triangle yet; NNT depth 3 prunes the pair.
  EXPECT_TRUE(engine.CandidatesForStream(s).empty());

  // Close the triangle.
  GraphChange change;
  change.ops.push_back(EdgeOp::Insert(0, 2, 0, 0, 0));
  engine.ApplyChange(s, change);
  EXPECT_EQ(engine.CandidatesForStream(s), std::vector<int>{q});
  EXPECT_TRUE(engine.VerifyCandidate(s, q));

  // Break it again.
  GraphChange removal;
  removal.ops.push_back(EdgeOp::Delete(1, 2));
  engine.ApplyChange(s, removal);
  EXPECT_TRUE(engine.CandidatesForStream(s).empty());
  EXPECT_FALSE(engine.VerifyCandidate(s, q));
}

TEST(EngineTest, AllCandidatePairsCoversAllStreams) {
  ContinuousQueryEngine engine(EngineOptions{});
  engine.AddQuery(EdgePattern(1, 2));
  Graph match;
  match.AddVertex(1);
  match.AddVertex(2);
  ASSERT_TRUE(match.AddEdge(0, 1, 0));
  Graph mismatch;
  mismatch.AddVertex(1);
  mismatch.AddVertex(1);
  ASSERT_TRUE(mismatch.AddEdge(0, 1, 0));
  engine.AddStream(match);
  engine.AddStream(mismatch);
  engine.Start();
  const std::vector<std::pair<int, int>> pairs = engine.AllCandidatePairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], std::make_pair(0, 0));
}

TEST(EngineTest, DynamicQueryRegistrationAndRemoval) {
  ContinuousQueryEngine engine(EngineOptions{});
  engine.AddQuery(EdgePattern(1, 2));
  Graph start;
  start.AddVertex(1);
  start.AddVertex(2);
  start.AddVertex(3);
  ASSERT_TRUE(start.AddEdge(0, 1, 0));
  ASSERT_TRUE(start.AddEdge(1, 2, 0));
  engine.AddStream(start);
  engine.Start();
  EXPECT_EQ(engine.CandidatesForStream(0), std::vector<int>{0});

  const int added = engine.AddQueryDynamic(EdgePattern(2, 3));
  EXPECT_EQ(added, 1);
  EXPECT_EQ(engine.CandidatesForStream(0), (std::vector<int>{0, 1}));

  engine.RemoveQueryDynamic(0);
  EXPECT_EQ(engine.CandidatesForStream(0), std::vector<int>{1});

  // The engine keeps working incrementally after a rebuild.
  GraphChange change;
  change.ops.push_back(EdgeOp::Delete(1, 2));
  engine.ApplyChange(0, change);
  EXPECT_TRUE(engine.CandidatesForStream(0).empty());
}

TEST(EngineTest, ChangeBatchTouchingUnknownVerticesGrowsStream) {
  ContinuousQueryEngine engine(EngineOptions{});
  engine.AddQuery(EdgePattern(5, 6));
  Graph start;
  start.AddVertex(5);
  engine.AddStream(start);
  engine.Start();
  EXPECT_TRUE(engine.CandidatesForStream(0).empty());
  GraphChange change;
  change.ops.push_back(EdgeOp::Insert(0, 7, 0, 5, 6));
  engine.ApplyChange(0, change);
  EXPECT_EQ(engine.CandidatesForStream(0), std::vector<int>{0});
  EXPECT_TRUE(engine.StreamGraph(0).HasVertex(7));
}

TEST(EngineTest, EngineMatchesColdRestartAcrossAStream) {
  // Incremental engine result == an engine started fresh at each timestamp.
  SyntheticStreamParams params;
  params.num_pairs = 3;
  params.avg_graph_edges = 10;
  params.evolution.num_timestamps = 12;
  params.seed = 21;
  const StreamDataset dataset = MakeSyntheticStreams(params);

  EngineOptions options;
  options.nnt_depth = 2;
  ContinuousQueryEngine incremental(options);
  for (const Graph& q : dataset.queries) incremental.AddQuery(q);
  for (const GraphStream& s : dataset.streams) {
    incremental.AddStream(s.StartGraph());
  }
  incremental.Start();

  for (int t = 0; t < params.evolution.num_timestamps; ++t) {
    if (t > 0) {
      for (size_t i = 0; i < dataset.streams.size(); ++i) {
        incremental.ApplyChange(static_cast<int>(i),
                                dataset.streams[i].ChangeAt(t));
      }
    }
    ContinuousQueryEngine fresh(options);
    for (const Graph& q : dataset.queries) fresh.AddQuery(q);
    for (const GraphStream& s : dataset.streams) {
      fresh.AddStream(s.MaterializeAt(t));
    }
    fresh.Start();
    EXPECT_EQ(incremental.AllCandidatePairs(), fresh.AllCandidatePairs())
        << "t=" << t;
  }
}

// AddQuery builds a query's NPVs at once and Start builds the stream NNTs,
// so the shard's DimensionTable numbers the query dims [0, Q) before any
// stream dim. The join keeps global dim ids, so with Q <= 64 its
// signatures are exact.
TEST(EngineTest, QueriesInternTheirDimsBeforeAnyStream) {
  SyntheticStreamParams params;
  params.num_pairs = 3;
  params.avg_graph_edges = 10;
  params.evolution.num_timestamps = 6;
  params.seed = 21;
  const StreamDataset dataset = MakeSyntheticStreams(params);

  EngineOptions options;
  options.nnt_depth = 3;
  ContinuousQueryEngine engine(options);
  for (const Graph& q : dataset.queries) engine.AddQuery(q);
  const int32_t num_query_dims = engine.dimensions().size();
  ASSERT_GT(num_query_dims, 0);
  for (const GraphStream& s : dataset.streams) engine.AddStream(s.StartGraph());
  engine.Start();
  for (int t = 1; t < params.evolution.num_timestamps; ++t) {
    for (size_t i = 0; i < dataset.streams.size(); ++i) {
      engine.ApplyChange(static_cast<int>(i), dataset.streams[i].ChangeAt(t));
    }
  }
  // The streams interned dims no query uses, so the check is not vacuous.
  EXPECT_GT(engine.dimensions().size(), num_query_dims);

  // A branch of k edges counts at (k, label of vertex k-1, label of vertex
  // k), which sit at signature positions 2k-2 and 2k.
  for (const Graph& q : dataset.queries) {
    for (VertexId v = 0; v < q.VertexIdBound(); ++v) {
      if (!q.HasVertex(v)) continue;
      for (const auto& [branch, count] :
           EnumerateBranches(q, v, options.nnt_depth)) {
        const size_t k = (branch.size() - 1) / 2;
        const std::optional<DimId> dim = engine.dimensions().Find(
            static_cast<int32_t>(k), branch[2 * k - 2], branch[2 * k]);
        ASSERT_TRUE(dim.has_value());
        EXPECT_LT(*dim, num_query_dims);
      }
    }
  }
}

TEST(FilterStatsTest, Averages) {
  StatsAccumulator acc;
  acc.Add(TimestampStats{0, 5, 10, 2, 1.0, 3.0});
  acc.Add(TimestampStats{1, 10, 10, 10, 3.0, 5.0});
  EXPECT_EQ(acc.num_timestamps(), 2);
  EXPECT_DOUBLE_EQ(acc.AvgCandidateRatio(), (0.5 + 1.0) / 2);
  EXPECT_DOUBLE_EQ(acc.AvgUpdateMillis(), 2.0);
  EXPECT_DOUBLE_EQ(acc.AvgJoinMillis(), 4.0);
  EXPECT_DOUBLE_EQ(acc.AvgCostMillis(), 6.0);
  EXPECT_DOUBLE_EQ(acc.AvgPrecision(), (0.4 + 1.0) / 2);
  EXPECT_TRUE(acc.CandidatesNeverBelowTruth());
}

TEST(FilterStatsTest, DetectsFalseNegativeSignature) {
  StatsAccumulator acc;
  acc.Add(TimestampStats{0, 1, 10, 3, 0.0, 0.0});
  EXPECT_FALSE(acc.CandidatesNeverBelowTruth());
}

TEST(FilterStatsTest, PrecisionSkipsMissingGroundTruth) {
  StatsAccumulator acc;
  acc.Add(TimestampStats{0, 4, 10, -1, 0.0, 0.0});
  acc.Add(TimestampStats{1, 4, 10, 2, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(acc.AvgPrecision(), 0.5);
  acc.Add(TimestampStats{2, 0, 10, 0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(acc.AvgPrecision(), 0.75);
}

}  // namespace
}  // namespace gsps
