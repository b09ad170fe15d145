// Tests for NntSet's storage (DESIGN.md "NPV maintenance"): deep churn with
// full validation after every operation, the one-row-per-root storage bound
// on cliques, and the deterministic (sorted) dirty-root drain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gsps/common/random.h"
#include "gsps/gen/synthetic_generator.h"
#include "gsps/graph/graph.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {
namespace {

// --- Counting under churn ---------------------------------------------------

TEST(NntStorageTest, DeepChurnValidatesAfterEveryOperation) {
  Rng rng(99);
  Graph g = RandomConnectedGraph(40, 3, 2, rng);
  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(g);
  ASSERT_TRUE(nnts.Validate(g));

  struct EdgeRec {
    VertexId u, v;
    EdgeLabel label;
  };
  std::vector<EdgeRec> edges;
  for (const VertexId u : g.VertexIds()) {
    for (const HalfEdge& half : g.Neighbors(u)) {
      if (u < half.to) edges.push_back({u, half.to, half.label});
    }
  }

  DimensionTable fresh_dims;
  NntSet fresh(3, &fresh_dims);
  for (size_t i = 0; i < edges.size(); ++i) {
    const EdgeRec& e = edges[i];
    nnts.DeleteEdge(e.u, e.v);
    ASSERT_TRUE(g.RemoveEdge(e.u, e.v));
    ASSERT_TRUE(nnts.Validate(g)) << "after delete " << i;
    fresh.Build(g);
    ASSERT_EQ(nnts.TotalTreeNodes(), fresh.TotalTreeNodes())
        << "after delete " << i;

    ASSERT_TRUE(g.AddEdge(e.u, e.v, e.label));
    nnts.InsertEdge(g, e.u, e.v);
    ASSERT_TRUE(nnts.Validate(g)) << "after insert " << i;
    fresh.Build(g);
    ASSERT_EQ(nnts.TotalTreeNodes(), fresh.TotalTreeNodes())
        << "after insert " << i;
  }
}

// --- Deterministic dirty-root drains ---------------------------------------

// Replays the same seeded toggle workload and records every drained dirty
// sequence; two runs must produce byte-identical output.
std::vector<std::vector<VertexId>> DirtySequencesOfRun(uint64_t seed) {
  Rng rng(seed);
  Graph g = RandomConnectedGraph(30, 3, 1, rng);
  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(g);

  std::vector<std::vector<VertexId>> drains;
  std::vector<VertexId> buffer;
  nnts.TakeDirtyRoots(&buffer);
  drains.push_back(buffer);

  struct EdgeRec {
    VertexId u, v;
    EdgeLabel label;
  };
  std::vector<EdgeRec> edges;
  for (const VertexId u : g.VertexIds()) {
    for (const HalfEdge& half : g.Neighbors(u)) {
      if (u < half.to) edges.push_back({u, half.to, half.label});
    }
  }
  for (const EdgeRec& e : edges) {
    nnts.DeleteEdge(e.u, e.v);
    g.RemoveEdge(e.u, e.v);
    nnts.TakeDirtyRoots(&buffer);
    drains.push_back(buffer);
    g.AddEdge(e.u, e.v, e.label);
    nnts.InsertEdge(g, e.u, e.v);
    nnts.TakeDirtyRoots(&buffer);
    drains.push_back(buffer);
  }
  return drains;
}

TEST(NntStorageTest, DirtyRootDrainsAreSortedAndDeterministic) {
  const std::vector<std::vector<VertexId>> first = DirtySequencesOfRun(7);
  const std::vector<std::vector<VertexId>> second = DirtySequencesOfRun(7);
  EXPECT_EQ(first, second);
  for (const std::vector<VertexId>& drain : first) {
    EXPECT_TRUE(std::is_sorted(drain.begin(), drain.end()));
  }
  // The first drain (post-Build) covers every root.
  EXPECT_FALSE(first.empty());
  EXPECT_FALSE(first[0].empty());
}

TEST(NntStorageTest, TakeDirtyRootsOverloadsAgree) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(1);
  ASSERT_TRUE(g.AddEdge(0, 1, 0));
  DimensionTable dims;
  NntSet nnts(2, &dims);
  nnts.Build(g);
  EXPECT_EQ(nnts.TakeDirtyRoots(), (std::vector<VertexId>{0, 1}));
  // Drained: both overloads now report empty.
  std::vector<VertexId> out = {123};
  nnts.TakeDirtyRoots(&out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(nnts.TakeDirtyRoots().empty());
}

TEST(NntStorageTest, StorageBytesTracksIndexFootprint) {
  Rng rng(5);
  Graph g = RandomConnectedGraph(25, 3, 1, rng);
  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(g);
  // At minimum the storage holds every root's row.
  int64_t row_bytes = 0;
  for (const VertexId root : nnts.Roots()) {
    row_bytes += static_cast<int64_t>(nnts.TreeOf(root)->size() *
                                      sizeof(NpvEntry));
  }
  EXPECT_GT(row_bytes, 0);
  EXPECT_GE(nnts.StorageBytes(), row_bytes);
}

TEST(NntStorageTest, CliqueStorageIsPerRoot) {
  // K_25 at depth 3 with one label: every vertex has 24 + 24*23 + 24*23*23
  // = 13,272 edge-simple paths, so its tree has 13,273 nodes. Stored trees
  // would need megabytes; the rows need three entries per root.
  constexpr int kVertices = 25;
  Graph g;
  for (int i = 0; i < kVertices; ++i) g.AddVertex(0);
  for (VertexId u = 0; u < kVertices; ++u) {
    for (VertexId v = u + 1; v < kVertices; ++v) {
      ASSERT_TRUE(g.AddEdge(u, v, 0));
    }
  }
  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(g);
  EXPECT_EQ(nnts.TotalTreeNodes(), 331825);  // 25 * 13,273.
  EXPECT_LT(nnts.StorageBytes(), 64 * 1024);
  EXPECT_EQ(nnts.NpvOf(0).nnz(), 3);
}

}  // namespace
}  // namespace gsps
