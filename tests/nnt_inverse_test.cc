// Delete-then-insert inverse property of incremental NNT maintenance: for
// any live edge e, applying DeleteEdge(e) followed by re-inserting e must
// restore the NntSet exactly — the same roots, the same count rows root by
// root (and Validate against a fresh path enumeration in between), the
// same NPVs, and the same total node count as before the deletion. Paper
// Figs. 4-5 describe the two operations as exact inverses; this is the
// regression net for counting paths out and back in.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "gsps/common/random.h"
#include "gsps/gen/synthetic_generator.h"
#include "gsps/graph/graph.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {
namespace {

// Everything observable about an NntSet (per root and in aggregate).
struct NntSnapshot {
  std::vector<VertexId> roots;
  std::map<VertexId, std::vector<NpvEntry>> rows;
  std::map<VertexId, Npv> npvs;
  int64_t total_tree_nodes = 0;
};

NntSnapshot Snapshot(const NntSet& nnts) {
  NntSnapshot snap;
  snap.roots = nnts.Roots();
  for (const VertexId root : snap.roots) {
    snap.rows[root] = *nnts.TreeOf(root);
    snap.npvs[root] = nnts.NpvOf(root);
  }
  snap.total_tree_nodes = nnts.TotalTreeNodes();
  return snap;
}

void ExpectSnapshotsEqual(const NntSnapshot& a, const NntSnapshot& b) {
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.npvs, b.npvs);
  EXPECT_EQ(a.total_tree_nodes, b.total_tree_nodes);
}

// Deletes and re-inserts every edge of `graph` (one at a time, engine
// protocol order) and checks the NntSet returns to its pre-delete state.
void CheckAllEdgesInvertible(Graph graph, int depth) {
  DimensionTable dims;
  NntSet nnts(depth, &dims);
  nnts.Build(graph);
  ASSERT_TRUE(nnts.Validate(graph));

  for (const VertexId u : graph.VertexIds()) {
    // Copy: the adjacency list reference would dangle across mutations.
    const std::vector<HalfEdge> neighbors = graph.Neighbors(u);
    for (const HalfEdge& half : neighbors) {
      const VertexId v = half.to;
      if (v < u) continue;  // Each undirected edge once.
      const EdgeLabel label = half.label;
      const NntSnapshot before = Snapshot(nnts);

      // Engine deletion protocol: trees first, then the graph.
      nnts.DeleteEdge(u, v);
      ASSERT_TRUE(graph.RemoveEdge(u, v));
      ASSERT_TRUE(nnts.Validate(graph)) << "after delete " << u << "-" << v;

      // Engine insertion protocol: graph first, then the trees.
      ASSERT_TRUE(graph.AddEdge(u, v, label));
      nnts.InsertEdge(graph, u, v);
      ASSERT_TRUE(nnts.Validate(graph)) << "after re-insert " << u << "-"
                                        << v;

      ExpectSnapshotsEqual(before, Snapshot(nnts));
      nnts.TakeDirtyRoots();  // Reset dirtiness between probes.
    }
  }
}

TEST(NntInverseTest, HandBuiltTriangleWithTail) {
  Graph g;
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddVertex(1);
  g.AddVertex(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0));
  ASSERT_TRUE(g.AddEdge(1, 2, 0));
  ASSERT_TRUE(g.AddEdge(0, 2, 1));
  ASSERT_TRUE(g.AddEdge(2, 3, 0));
  for (int depth = 1; depth <= 3; ++depth) {
    CheckAllEdgesInvertible(g, depth);
  }
}

TEST(NntInverseTest, BridgeEdgeDisconnectsAndReconnects) {
  // Deleting the bridge splits the graph in two; re-inserting it must
  // regrow exactly the cross-component paths that were pruned.
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddVertex(i % 2);
  ASSERT_TRUE(g.AddEdge(0, 1, 0));
  ASSERT_TRUE(g.AddEdge(1, 2, 0));
  ASSERT_TRUE(g.AddEdge(0, 2, 0));
  ASSERT_TRUE(g.AddEdge(2, 3, 1));  // The bridge.
  ASSERT_TRUE(g.AddEdge(3, 4, 0));
  ASSERT_TRUE(g.AddEdge(4, 5, 0));
  ASSERT_TRUE(g.AddEdge(3, 5, 0));
  CheckAllEdgesInvertible(g, 3);
}

TEST(NntInverseTest, RandomGraphsAllDepths) {
  Rng rng(271828);
  for (int trial = 0; trial < 6; ++trial) {
    const int num_edges = 4 + static_cast<int>(rng.UniformInt(0, 10));
    const Graph g = RandomConnectedGraph(num_edges, /*num_vertex_labels=*/3,
                                         /*num_edge_labels=*/2, rng);
    const int depth = 1 + trial % 3;
    CheckAllEdgesInvertible(g, depth);
  }
}

TEST(NntInverseTest, DeleteInsertLeavesDirtyRootsConsistent) {
  // The inverse round trip may mark roots dirty (their NPV was touched
  // twice), but every dirty root's NPV must still equal the rebuilt truth.
  Graph g;
  Rng rng(31415);
  const Graph random = RandomConnectedGraph(8, 3, 1, rng);
  g = random;

  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(g);
  nnts.TakeDirtyRoots();

  const VertexId u = g.VertexIds().front();
  ASSERT_FALSE(g.Neighbors(u).empty());
  const HalfEdge half = g.Neighbors(u).front();
  nnts.DeleteEdge(u, half.to);
  ASSERT_TRUE(g.RemoveEdge(u, half.to));
  ASSERT_TRUE(g.AddEdge(u, half.to, half.label));
  nnts.InsertEdge(g, u, half.to);

  NntSet fresh(3, &dims);
  fresh.Build(g);
  for (const VertexId root : nnts.TakeDirtyRoots()) {
    EXPECT_EQ(nnts.NpvOf(root), fresh.NpvOf(root)) << "root " << root;
  }
}

}  // namespace
}  // namespace gsps
