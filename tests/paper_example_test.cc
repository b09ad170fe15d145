// Fidelity tests that replay the paper's running examples.
//
//   * Figure 7/9: the projected vectors of query Q {(1,1),(0,3),(2,3),(3,1)}
//     and stream G {(2,2),(1,3),(2,3),(3,2)} over dimensions Dim1=(1,A,C)
//     and Dim2=(1,A,B); the dominance relations the paper derives
//     (NPV(b) dominates NPV(1) and NPV(2) in the full space) and the
//     resulting candidate decision for all three strategies.
//   * Figure 10: the monochromatic skyline of the query vectors is
//     {NPV(3), NPV(4)} (NPV(3) dominates NPV(1) and NPV(2)); NPV(3) is
//     dominated only by NPV(c), NPV(4) only by NPV(d).
//   * Lemma 3.2's setting: incremental updates touch only trees within
//     depth of the changed edge.

#include <gtest/gtest.h>

#include "gsps/iso/branch_compatibility.h"
#include "gsps/join/dominance.h"
#include "gsps/join/join_strategy.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"
#include "gsps/nnt/npv.h"

namespace gsps {
namespace {

constexpr DimId kDim1 = 0;  // (1, A, C)
constexpr DimId kDim2 = 1;  // (1, A, B)

Npv Vec(int32_t dim1, int32_t dim2) {
  std::unordered_map<DimId, int32_t> counts;
  if (dim1 > 0) counts[kDim1] = dim1;
  if (dim2 > 0) counts[kDim2] = dim2;
  return Npv::FromMap(counts);
}

// The paper's Figure 7(b) vectors.
struct PaperVectors {
  // Query Q: nodes 1..4.
  Npv q1 = Vec(1, 1);
  Npv q2 = Vec(0, 3);
  Npv q3 = Vec(2, 3);
  Npv q4 = Vec(3, 1);
  // Stream G: nodes a..d.
  Npv a = Vec(2, 2);
  Npv b = Vec(1, 3);
  Npv c = Vec(2, 3);
  Npv d = Vec(3, 2);
};

TEST(PaperFigure9Test, DominanceRelationsMatchThePaper) {
  const PaperVectors v;
  // "query vectors NPV(1) and NPV(2) are dominated by NPV(b) at the full
  // space".
  EXPECT_TRUE(v.b.Dominates(v.q1));
  EXPECT_TRUE(v.b.Dominates(v.q2));
  EXPECT_FALSE(v.b.Dominates(v.q3));
  EXPECT_FALSE(v.b.Dominates(v.q4));
  // Figure 10(a): among stream vectors, only NPV(c) dominates NPV(3).
  EXPECT_TRUE(v.c.Dominates(v.q3));
  EXPECT_FALSE(v.a.Dominates(v.q3));
  EXPECT_FALSE(v.d.Dominates(v.q3));
  // And NPV(4) = (3,1) is dominated by NPV(d) = (3,2) only.
  EXPECT_TRUE(v.d.Dominates(v.q4));
  EXPECT_FALSE(v.a.Dominates(v.q4));
  EXPECT_FALSE(v.b.Dominates(v.q4));
  EXPECT_FALSE(v.c.Dominates(v.q4));
}

TEST(PaperFigure9Test, AllStrategiesReportThePairAsCandidate) {
  const PaperVectors v;
  // Every query vector is dominated by some stream vector (q1,q2 <= b;
  // q3 <= c; q4 <= d), so (G, Q) must be reported by every strategy.
  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
        JoinKind::kSkylineEarlyStop}) {
    auto strategy = MakeJoinStrategy(kind);
    std::vector<QueryVectors> queries;
    queries.push_back(QueryVectors{{v.q1, v.q2, v.q3, v.q4}});
    strategy->SetQueries(std::move(queries));
    strategy->SetNumStreams(1);
    strategy->UpdateStreamVertex(0, 0, v.a);
    strategy->UpdateStreamVertex(0, 1, v.b);
    strategy->UpdateStreamVertex(0, 2, v.c);
    strategy->UpdateStreamVertex(0, 3, v.d);
    EXPECT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0})
        << JoinKindName(kind);
  }
}

TEST(PaperFigure9Test, IncrementalMoveOfBUncoversQueryVectors) {
  // The paper's incremental illustration: node b moves to b' with its Dim1
  // value decreased, and b' stops dominating the query vectors it used to
  // cover. With b as the only stream vertex, the pair must drop out of the
  // candidate set and come back when b moves again.
  const PaperVectors v;
  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
        JoinKind::kSkylineEarlyStop}) {
    auto strategy = MakeJoinStrategy(kind);
    std::vector<QueryVectors> queries;
    queries.push_back(QueryVectors{{v.q1, v.q2}});
    strategy->SetQueries(std::move(queries));
    strategy->SetNumStreams(1);
    strategy->UpdateStreamVertex(0, 1, v.b);  // b covers both q1 and q2.
    ASSERT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0});
    // b -> b' = (0, 3): its Dim1 position counter drops below q1's value,
    // so the dominant counter for q1 falls short of q1's dimension count.
    strategy->UpdateStreamVertex(0, 1, Vec(0, 3));
    EXPECT_TRUE(strategy->CandidatesForStream(0).empty())
        << JoinKindName(kind);
    // Moving b back restores the candidate.
    strategy->UpdateStreamVertex(0, 1, v.b);
    EXPECT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0})
        << JoinKindName(kind);
  }
}

TEST(PaperFigure3Test, NntOfExampleVertexHasDocumentedShape) {
  // Figure 3's graph: six vertices labeled A,B,A,C,B,C; NNTs at l = 2.
  // (Vertex ids are 0-based here; the paper numbers them 1..6.)
  Graph g;
  const VertexLabel kA = 0, kB = 1, kC = 2;
  g.AddVertex(kA);  // 1
  g.AddVertex(kB);  // 2
  g.AddVertex(kA);  // 3
  g.AddVertex(kC);  // 4
  g.AddVertex(kB);  // 5
  g.AddVertex(kC);  // 6
  ASSERT_TRUE(g.AddEdge(0, 1, 0));
  ASSERT_TRUE(g.AddEdge(1, 2, 0));
  ASSERT_TRUE(g.AddEdge(1, 3, 0));
  ASSERT_TRUE(g.AddEdge(2, 4, 0));
  ASSERT_TRUE(g.AddEdge(3, 5, 0));

  DimensionTable dims;
  NntSet nnts(2, &dims);
  nnts.Build(g);
  ASSERT_TRUE(nnts.Validate(g));

  // T1 (root vertex 0, label A): branches A-B, A-B-A, A-B-C.
  const auto t1 = EnumerateBranches(g, 0, 2);
  EXPECT_EQ(t1.size(), 3u);
  EXPECT_EQ(t1.at({kA, 0, kB}), 1);
  EXPECT_EQ(t1.at({kA, 0, kB, 0, kA}), 1);
  EXPECT_EQ(t1.at({kA, 0, kB, 0, kC}), 1);
  // Its NPV counts one tree edge per branch at (level, parent, child).
  const Npv& npv1 = nnts.NpvOf(0);
  EXPECT_EQ(npv1.nnz(), 3);
  EXPECT_EQ(npv1.ValueAt(*dims.Find(1, kA, kB)), 1);
  EXPECT_EQ(npv1.ValueAt(*dims.Find(2, kB, kA)), 1);
  EXPECT_EQ(npv1.ValueAt(*dims.Find(2, kB, kC)), 1);

  // T2 (root vertex 1, label B): depth-1 children A, A, C and their
  // depth-2 continuations B (via vertex 2) and C (via vertex 3).
  const auto t2 = EnumerateBranches(g, 1, 2);
  EXPECT_EQ(t2.at({kB, 0, kA}), 2);
  EXPECT_EQ(t2.at({kB, 0, kC}), 1);
  EXPECT_EQ(t2.at({kB, 0, kA, 0, kB}), 1);
  EXPECT_EQ(t2.at({kB, 0, kC, 0, kC}), 1);
  const Npv& npv2 = nnts.NpvOf(1);
  EXPECT_EQ(npv2.nnz(), 4);
  EXPECT_EQ(npv2.ValueAt(*dims.Find(1, kB, kA)), 2);
  EXPECT_EQ(npv2.ValueAt(*dims.Find(1, kB, kC)), 1);
  EXPECT_EQ(npv2.ValueAt(*dims.Find(2, kA, kB)), 1);
  EXPECT_EQ(npv2.ValueAt(*dims.Find(2, kC, kC)), 1);

  // Deleting edge (2,4) (paper's (1,3)-flavored example) removes exactly
  // the subtrees that used it: T2's C child and its C grandchild.
  nnts.DeleteEdge(1, 3);
  ASSERT_TRUE(g.RemoveEdge(1, 3));
  ASSERT_TRUE(nnts.Validate(g));
  const Npv& npv2_after = nnts.NpvOf(1);
  EXPECT_EQ(npv2_after.nnz(), 2);
  EXPECT_EQ(npv2_after.ValueAt(*dims.Find(1, kB, kC)), 0);
  EXPECT_EQ(npv2_after.ValueAt(*dims.Find(2, kC, kC)), 0);
  EXPECT_EQ(npv2_after.ValueAt(*dims.Find(1, kB, kA)), 2);
  EXPECT_EQ(npv2_after.ValueAt(*dims.Find(2, kA, kB)), 1);
}

}  // namespace
}  // namespace gsps
