// Edge-case and robustness tests that cut across modules: empty workloads,
// vertex-id reuse, deep/degenerate structures, and parser robustness
// against arbitrary input.

#include <gtest/gtest.h>

#include "gsps/common/random.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/graph/graph_io.h"
#include "gsps/graph/stream_io.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {
namespace {

TEST(EngineEdgeCasesTest, NoQueries) {
  ContinuousQueryEngine engine(EngineOptions{});
  Graph start;
  start.AddVertex(0);
  engine.AddStream(start);
  engine.Start();
  EXPECT_TRUE(engine.CandidatesForStream(0).empty());
  EXPECT_TRUE(engine.AllCandidatePairs().empty());
}

TEST(EngineEdgeCasesTest, NoStreams) {
  ContinuousQueryEngine engine(EngineOptions{});
  Graph q;
  q.AddVertex(0);
  engine.AddQuery(q);
  engine.Start();
  EXPECT_TRUE(engine.AllCandidatePairs().empty());
}

TEST(EngineEdgeCasesTest, EmptyStartGraph) {
  ContinuousQueryEngine engine(EngineOptions{});
  Graph q;
  q.AddVertex(3);
  engine.AddQuery(q);
  engine.AddStream(Graph());
  engine.Start();
  EXPECT_TRUE(engine.CandidatesForStream(0).empty());
  // The first vertices arrive through an insertion.
  GraphChange change;
  change.ops.push_back(EdgeOp::Insert(0, 1, 0, 3, 4));
  engine.ApplyChange(0, change);
  EXPECT_EQ(engine.CandidatesForStream(0), std::vector<int>{0});
}

TEST(EngineEdgeCasesTest, SingleVertexQueryNeedsMatchingLabelSomewhereOnly) {
  // A single-vertex query has an empty NPV: any non-empty stream covers it
  // (labels are not checked for degree-0 query vertices — a documented
  // source of false positives, resolved by VerifyCandidate).
  ContinuousQueryEngine engine(EngineOptions{});
  Graph q;
  q.AddVertex(3);
  engine.AddQuery(q);
  Graph start;
  start.AddVertex(9);
  engine.AddStream(start);
  engine.Start();
  EXPECT_EQ(engine.CandidatesForStream(0), std::vector<int>{0});
  EXPECT_FALSE(engine.VerifyCandidate(0, 0));
}

TEST(EngineEdgeCasesTest, RepeatedChangesOfSameEdgeWithinBatch) {
  ContinuousQueryEngine engine(EngineOptions{});
  Graph q;
  q.AddVertex(0);
  q.AddVertex(0);
  ASSERT_TRUE(q.AddEdge(0, 1, 0));
  engine.AddQuery(q);
  Graph start;
  start.AddVertex(0);
  start.AddVertex(0);
  ASSERT_TRUE(start.AddEdge(0, 1, 0));
  engine.AddStream(start);
  engine.Start();
  // Delete then reinsert the same edge in one batch; deletions run first.
  GraphChange change;
  change.ops.push_back(EdgeOp::Delete(0, 1));
  change.ops.push_back(EdgeOp::Insert(0, 1, 0, 0, 0));
  change.ops.push_back(EdgeOp::Insert(0, 1, 0, 0, 0));  // Duplicate: no-op.
  engine.ApplyChange(0, change);
  EXPECT_EQ(engine.CandidatesForStream(0), std::vector<int>{0});
  EXPECT_EQ(engine.StreamGraph(0).NumEdges(), 1);
}

TEST(EngineEdgeCasesTest, LabelsOutsideTwentyOneBitsStayExact) {
  // The parsers accept any int32 label; negative labels and labels of 2^21
  // and beyond must neither trip a precondition nor share dimensions.
  constexpr VertexLabel kNeg = -7;
  constexpr VertexLabel kBig = 3000000;
  ContinuousQueryEngine engine(EngineOptions{});
  Graph q;
  q.AddVertex(kNeg);
  q.AddVertex(kBig);
  ASSERT_TRUE(q.AddEdge(0, 1, 0));
  engine.AddQuery(q);
  Graph big_pair;
  big_pair.AddVertex(kBig);
  big_pair.AddVertex(kBig);
  ASSERT_TRUE(big_pair.AddEdge(0, 1, 0));
  engine.AddQuery(big_pair);
  Graph start;
  start.AddVertex(kNeg);
  start.AddVertex(kBig);
  start.AddVertex(kNeg);
  ASSERT_TRUE(start.AddEdge(0, 1, 0));
  ASSERT_TRUE(start.AddEdge(1, 2, 0));
  engine.AddStream(start);
  engine.Start();
  EXPECT_EQ(engine.CandidatesForStream(0), std::vector<int>{0});
  EXPECT_TRUE(engine.VerifyCandidate(0, 0));
  // A kBig-kBig edge arrives: now the second query is present too.
  GraphChange change;
  change.ops.push_back(EdgeOp::Insert(1, 3, 0, kBig, kBig));
  engine.ApplyChange(0, change);
  EXPECT_EQ(engine.CandidatesForStream(0), (std::vector<int>{0, 1}));
  EXPECT_TRUE(engine.VerifyCandidate(0, 1));
}

TEST(GraphEdgeCasesTest, VertexIdReuseAfterRemoval) {
  Graph g;
  const VertexId a = g.AddVertex(1);
  const VertexId b = g.AddVertex(2);
  ASSERT_TRUE(g.AddEdge(a, b, 0));
  ASSERT_TRUE(g.RemoveVertex(a));
  // The slot can be revived with a different label via EnsureVertex.
  EXPECT_TRUE(g.EnsureVertex(a, 7));
  EXPECT_EQ(g.GetVertexLabel(a), 7);
  EXPECT_EQ(g.Degree(a), 0);
  EXPECT_TRUE(g.AddEdge(a, b, 1));
}

TEST(NntEdgeCasesTest, DepthOneCountsOnlyDirectNeighbors) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddVertex(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 0));
  ASSERT_TRUE(g.AddEdge(1, 2, 0));
  DimensionTable dims;
  NntSet nnts(1, &dims);
  nnts.Build(g);
  // Level-1 counts only: 1 neighbor for vertex 0, 2 for vertex 1.
  EXPECT_EQ(nnts.NpvOf(0).entries(),
            (std::vector<NpvEntry>{{*dims.Find(1, 0, 1), 1}}));
  EXPECT_EQ(nnts.NpvOf(1).entries(),
            (std::vector<NpvEntry>{{*dims.Find(1, 1, 0), 1},
                                   {*dims.Find(1, 1, 2), 1}}));
  EXPECT_EQ(nnts.TotalTreeNodes(), 3 + 4);
  EXPECT_TRUE(nnts.Validate(g));
}

TEST(NntEdgeCasesTest, HighDepthOnSmallCycleTerminates) {
  // Depth far beyond the graph diameter: edge-simple paths exhaust.
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddVertex(0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(g.AddEdge(i, (i + 1) % 3, 0));
  DimensionTable dims;
  NntSet nnts(50, &dims);
  nnts.Build(g);
  // Each root: 2 + 2 + 2 nodes (lengths 1..3), nothing deeper.
  EXPECT_EQ(nnts.NpvOf(0).entries(),
            (std::vector<NpvEntry>{{*dims.Find(1, 0, 0), 2},
                                   {*dims.Find(2, 0, 0), 2},
                                   {*dims.Find(3, 0, 0), 2}}));
  EXPECT_EQ(nnts.TotalTreeNodes(), 3 * 7);
  EXPECT_TRUE(nnts.Validate(g));
}

TEST(ParserRobustnessTest, RandomBytesNeverCrash) {
  Rng rng(20260706);
  const std::string alphabet = "vegt+-# 0123456789\n\t-";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const int length = static_cast<int>(rng.UniformInt(0, 120));
    for (int i = 0; i < length; ++i) {
      text += alphabet[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
    }
    // Must not crash; may or may not parse.
    (void)ParseGraph(text);
    (void)ParseGraphs(text);
    (void)ParseStream(text);
  }
}

TEST(ParserRobustnessTest, TruncatedValidFilesNeverCrash) {
  Graph g;
  g.AddVertex(1);
  g.AddVertex(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 3));
  GraphStream stream(g);
  GraphChange change;
  change.ops.push_back(EdgeOp::Insert(0, 2, 0, 1, 5));
  stream.AppendChange(change);
  const std::string full = FormatStream(stream);
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    (void)ParseStream(full.substr(0, cut));
  }
}

}  // namespace
}  // namespace gsps
