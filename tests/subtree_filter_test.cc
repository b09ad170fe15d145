// Tests for bipartite matching and the NNT subtree-embedding filter tier.

#include "gsps/nnt/subtree_filter.h"

#include <gtest/gtest.h>

#include "gsps/common/random.h"
#include "gsps/gen/query_extractor.h"
#include "gsps/gen/synthetic_generator.h"
#include "gsps/iso/bipartite_matching.h"
#include "gsps/iso/branch_compatibility.h"
#include "gsps/iso/subgraph_isomorphism.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {
namespace {

TEST(BipartiteMatchingTest, EmptyAndTrivialCases) {
  EXPECT_EQ(MaximumBipartiteMatching({}, 0), 0);
  EXPECT_TRUE(HasLeftPerfectMatching({}, 0));
  EXPECT_EQ(MaximumBipartiteMatching({{}}, 3), 0);
  EXPECT_FALSE(HasLeftPerfectMatching({{}}, 3));
  EXPECT_EQ(MaximumBipartiteMatching({{0}}, 1), 1);
  EXPECT_TRUE(HasLeftPerfectMatching({{0}}, 1));
}

TEST(BipartiteMatchingTest, RequiresAugmentingPaths) {
  // left0 -> {r0, r1}, left1 -> {r0}: greedy left0->r0 must be reshuffled.
  const BipartiteAdjacency adjacency = {{0, 1}, {0}};
  EXPECT_EQ(MaximumBipartiteMatching(adjacency, 2), 2);
  EXPECT_TRUE(HasLeftPerfectMatching(adjacency, 2));
}

TEST(BipartiteMatchingTest, DetectsDeficiency) {
  // Three lefts compete for two rights (Hall violation).
  const BipartiteAdjacency adjacency = {{0, 1}, {0, 1}, {0, 1}};
  EXPECT_EQ(MaximumBipartiteMatching(adjacency, 2), 2);
  EXPECT_FALSE(HasLeftPerfectMatching(adjacency, 2));
}

TEST(BipartiteMatchingTest, MoreLeftsThanRightsIsNeverPerfect) {
  EXPECT_FALSE(HasLeftPerfectMatching({{0}, {0}}, 1));
}

Graph Path(std::initializer_list<VertexLabel> labels) {
  Graph g;
  VertexId prev = kInvalidVertex;
  for (const VertexLabel label : labels) {
    const VertexId v = g.AddVertex(label);
    if (prev != kInvalidVertex) {
      EXPECT_TRUE(g.AddEdge(prev, v, 0));
    }
    prev = v;
  }
  return g;
}

TEST(SubtreeFilterTest, TreeSizesMatchCountedNodes) {
  // The build-once trees and NntSet's counts describe the same NNTs: each
  // tree has one node per counted path plus its root.
  Rng rng(17);
  for (int depth = 1; depth <= 3; ++depth) {
    const Graph g = RandomConnectedGraph(12, 2, 2, rng);
    const std::vector<NodeNeighborTree> trees =
        BuildNodeNeighborTrees(g, depth);
    DimensionTable dims;
    NntSet nnts(depth, &dims);
    nnts.Build(g);
    ASSERT_EQ(trees.size(), nnts.Roots().size());
    for (const VertexId v : g.VertexIds()) {
      int64_t counted = 1;
      for (const NpvEntry& entry : *nnts.TreeOf(v)) counted += entry.count;
      EXPECT_EQ(trees[static_cast<size_t>(v)].size(), counted)
          << "vertex " << v;
    }
  }
}

TEST(SubtreeFilterTest, IdenticalTreesEmbed) {
  const Graph g = Path({1, 2, 3});
  const auto a = BuildNodeNeighborTrees(g, 3);
  const auto b = BuildNodeNeighborTrees(g, 3);
  for (const VertexId v : g.VertexIds()) {
    EXPECT_TRUE(NntSubtreeEmbeddable(a[v], b[v]));
  }
  EXPECT_TRUE(NntSubtreeFilter(a, b));
}

TEST(SubtreeFilterTest, RootLabelMismatchRejected) {
  const Graph a = Path({1, 2});
  const Graph b = Path({2, 1});
  const auto qa = BuildNodeNeighborTrees(a, 2);
  const auto qb = BuildNodeNeighborTrees(b, 2);
  // a's vertex 0 has label 1; b's vertex 0 has label 2.
  EXPECT_FALSE(NntSubtreeEmbeddable(qa[0], qb[0]));
  // The mirrored roots match (1 -> 1, 2 -> 2) including their children.
  EXPECT_TRUE(NntSubtreeEmbeddable(qa[0], qb[1]));
  EXPECT_TRUE(NntSubtreeEmbeddable(qa[1], qb[0]));
}

TEST(SubtreeFilterTest, ChildMultiplicityEnforced) {
  // Query center has two label-2 children; data center only one.
  Graph query;
  query.AddVertex(1);
  query.AddVertex(2);
  query.AddVertex(2);
  ASSERT_TRUE(query.AddEdge(0, 1, 0));
  ASSERT_TRUE(query.AddEdge(0, 2, 0));
  Graph data;
  data.AddVertex(1);
  data.AddVertex(2);
  data.AddVertex(3);
  ASSERT_TRUE(data.AddEdge(0, 1, 0));
  ASSERT_TRUE(data.AddEdge(0, 2, 0));
  const auto q = BuildNodeNeighborTrees(query, 2);
  const auto d = BuildNodeNeighborTrees(data, 2);
  EXPECT_FALSE(NntSubtreeEmbeddable(q[0], d[0]));
}

TEST(SubtreeFilterTest, EdgeLabelsMustMatch) {
  Graph query;
  query.AddVertex(1);
  query.AddVertex(2);
  ASSERT_TRUE(query.AddEdge(0, 1, 7));
  Graph data;
  data.AddVertex(1);
  data.AddVertex(2);
  ASSERT_TRUE(data.AddEdge(0, 1, 8));
  const auto q = BuildNodeNeighborTrees(query, 2);
  const auto d = BuildNodeNeighborTrees(data, 2);
  EXPECT_FALSE(NntSubtreeEmbeddable(q[0], d[0]));
}

TEST(SubtreeFilterTest, MatchingNeedsReshuffling) {
  // Query children: one that requires a grandchild, one that does not.
  // Data children: one with a grandchild, one without. A greedy assignment
  // of the undemanding query child onto the grandchild-bearing data child
  // must be undone by the augmenting path.
  Graph query;
  query.AddVertex(0);               // root
  query.AddVertex(1);               // child A (leaf)
  query.AddVertex(1);               // child B (has grandchild)
  query.AddVertex(2);               // grandchild
  ASSERT_TRUE(query.AddEdge(0, 1, 0));
  ASSERT_TRUE(query.AddEdge(0, 2, 0));
  ASSERT_TRUE(query.AddEdge(2, 3, 0));
  Graph data = query;               // Same shape.
  const auto q = BuildNodeNeighborTrees(query, 2);
  const auto d = BuildNodeNeighborTrees(data, 2);
  EXPECT_TRUE(NntSubtreeEmbeddable(q[0], d[0]));
}

TEST(SubtreeFilterTest, FilterChainOnRandomWorkload) {
  // iso => subtree-embeddable => branch-compatible, on random pairs.
  Rng rng(61);
  SyntheticParams params;
  params.num_graphs = 12;
  params.num_seeds = 4;
  params.avg_seed_edges = 4;
  params.avg_graph_edges = 14;
  params.num_vertex_labels = 3;
  const std::vector<Graph> database = GenerateSyntheticDataset(params);
  const std::vector<Graph> queries = ExtractQuerySet(database, 4, 6, rng);
  ASSERT_FALSE(queries.empty());

  int confirmed_chain = 0;
  for (int depth = 1; depth <= 3; ++depth) {
    for (const Graph& query : queries) {
      const auto q = BuildNodeNeighborTrees(query, depth);
      for (const Graph& data : database) {
        const auto d = BuildNodeNeighborTrees(data, depth);
        const bool exact = IsSubgraphIsomorphic(query, data);
        const bool subtree = NntSubtreeFilter(q, d);
        const bool branch = BranchCompatibleFilter(query, data, depth);
        if (exact) {
          EXPECT_TRUE(subtree) << "iso must imply subtree embedding";
          ++confirmed_chain;
        }
        if (subtree) {
          EXPECT_TRUE(branch) << "subtree must imply branches";
        }
      }
    }
  }
  EXPECT_GT(confirmed_chain, 0);
}

TEST(SubtreeFilterTest, StrictlyStrongerThanBranchesSomewhere) {
  // A case where branch multisets agree but the tree shapes do not:
  // query root has children {B with child C, B with child D};
  // data root has children {B with children C and D, B leaf}.
  // Branch multisets from the root coincide, but embedding the two query
  // children needs two data children with one grandchild each.
  Graph query;
  query.AddVertex(0);
  query.AddVertex(1);
  query.AddVertex(1);
  query.AddVertex(2);
  query.AddVertex(3);
  ASSERT_TRUE(query.AddEdge(0, 1, 0));
  ASSERT_TRUE(query.AddEdge(0, 2, 0));
  ASSERT_TRUE(query.AddEdge(1, 3, 0));  // B -> C
  ASSERT_TRUE(query.AddEdge(2, 4, 0));  // B -> D
  Graph data;
  data.AddVertex(0);
  data.AddVertex(1);
  data.AddVertex(1);
  data.AddVertex(2);
  data.AddVertex(3);
  ASSERT_TRUE(data.AddEdge(0, 1, 0));
  ASSERT_TRUE(data.AddEdge(0, 2, 0));
  ASSERT_TRUE(data.AddEdge(1, 3, 0));  // First B -> C
  ASSERT_TRUE(data.AddEdge(1, 4, 0));  // First B -> D
  ASSERT_TRUE(BranchCompatible(query, 0, data, 0, 2));
  const auto q = BuildNodeNeighborTrees(query, 2);
  const auto d = BuildNodeNeighborTrees(data, 2);
  EXPECT_FALSE(NntSubtreeEmbeddable(q[0], d[0]));
}

}  // namespace
}  // namespace gsps
