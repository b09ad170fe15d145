// Tests for Node-Neighbor Trees as NntSet counts them: construction,
// incremental maintenance (insert/delete), and projection (dimensions +
// NPVs).
//
// The central properties, checked on randomized workloads:
//   * after any sequence of edge inserts/deletes, Validate() holds: every
//     root's counts equal a fresh enumeration of its edge-simple paths
//     (iso/branch_compatibility's EnumerateBranches);
//   * NPVs derived incrementally equal NPVs of a from-scratch rebuild;
//   * the dirty set names exactly the roots whose counts changed.

#include "gsps/nnt/nnt_set.h"

#include <gtest/gtest.h>

#include <climits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gsps/common/random.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/gen/synthetic_generator.h"
#include "gsps/graph/graph_change.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/npv.h"
#include "gsps/obs/obs.h"

namespace gsps {
namespace {

// The paper's Figure 3 example graph: vertices 1..6 (here 0..5) with labels
// A,B,A,C,B,C and edges forming the example topology.
Graph PaperExampleGraph() {
  Graph g;
  const VertexLabel kA = 0, kB = 1, kC = 2;
  g.AddVertex(kA);  // 0
  g.AddVertex(kB);  // 1
  g.AddVertex(kA);  // 2
  g.AddVertex(kC);  // 3
  g.AddVertex(kB);  // 4
  g.AddVertex(kC);  // 5
  EXPECT_TRUE(g.AddEdge(0, 1, 0));
  EXPECT_TRUE(g.AddEdge(1, 2, 0));
  EXPECT_TRUE(g.AddEdge(1, 3, 0));
  EXPECT_TRUE(g.AddEdge(2, 4, 0));
  EXPECT_TRUE(g.AddEdge(3, 5, 0));
  return g;
}

// Nodes of NNT(root), the root included: one per counted path plus one.
int64_t TreeNodesOf(const NntSet& nnts, VertexId root) {
  int64_t nodes = 1;
  for (const NpvEntry& entry : *nnts.TreeOf(root)) nodes += entry.count;
  return nodes;
}

// Asserts that `nnts` (interning into `dims`) is internally consistent and
// that every root matches a from-scratch rebuild of `graph`.
void ExpectMatchesRebuild(const NntSet& nnts, const Graph& graph,
                          DimensionTable* dims) {
  ASSERT_TRUE(nnts.Validate(graph));
  NntSet fresh(nnts.depth(), dims);
  fresh.Build(graph);
  ASSERT_EQ(nnts.Roots(), fresh.Roots());
  for (const VertexId root : fresh.Roots()) {
    EXPECT_EQ(nnts.NpvOf(root), fresh.NpvOf(root)) << "root " << root;
  }
  EXPECT_EQ(nnts.TotalTreeNodes(), fresh.TotalTreeNodes());
}

TEST(NntTest, BuildSingleVertex) {
  Graph g;
  g.AddVertex(7);
  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(g);
  ASSERT_NE(nnts.TreeOf(0), nullptr);
  EXPECT_EQ(TreeNodesOf(nnts, 0), 1);
  EXPECT_EQ(nnts.TotalTreeNodes(), 1);
  EXPECT_EQ(nnts.NpvOf(0).nnz(), 0);
  EXPECT_TRUE(nnts.Validate(g));
}

TEST(NntTest, BuildPaperExample) {
  const Graph g = PaperExampleGraph();
  DimensionTable dims;
  NntSet nnts(2, &dims);
  nnts.Build(g);
  EXPECT_TRUE(nnts.Validate(g));
  // Vertex 0 (label A) at depth 2: paths 0-1, 0-1-2, 0-1-3.
  EXPECT_EQ(TreeNodesOf(nnts, 0), 4);
  // Its NPV: one level-1 (A,B) edge, level-2 (B,A) and (B,C).
  const Npv npv = nnts.NpvOf(0);
  EXPECT_EQ(npv.nnz(), 3);
  const DimId d1 = *dims.Find(1, 0, 1);
  EXPECT_EQ(npv.ValueAt(d1), 1);
}

TEST(NntTest, TreeCountsMatchDegreeStructure) {
  // Star: center connected to 4 leaves; depth 2.
  Graph g;
  g.AddVertex(0);
  for (int i = 0; i < 4; ++i) {
    g.AddVertex(1);
    EXPECT_TRUE(g.AddEdge(0, i + 1, 0));
  }
  DimensionTable dims;
  NntSet nnts(2, &dims);
  nnts.Build(g);
  // Center tree: root + 4 children (depth-2 continuations would revisit the
  // same edge, so none exist).
  EXPECT_EQ(TreeNodesOf(nnts, 0), 5);
  // Leaf tree: root + center + 3 siblings at depth 2.
  EXPECT_EQ(TreeNodesOf(nnts, 1), 5);
  EXPECT_TRUE(nnts.Validate(g));
}

TEST(NntTest, EdgeSimplePathsAllowRevisitingVertices) {
  // Triangle at depth 3: paths may return to the root through unused edges.
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddVertex(0);
  EXPECT_TRUE(g.AddEdge(0, 1, 0));
  EXPECT_TRUE(g.AddEdge(1, 2, 0));
  EXPECT_TRUE(g.AddEdge(0, 2, 0));
  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(g);
  // From the root: 2 length-1, 2 length-2, 2 length-3 = 6 non-root nodes.
  EXPECT_EQ(TreeNodesOf(nnts, 0), 7);
  EXPECT_TRUE(nnts.Validate(g));
}

TEST(NntTest, InsertEdgeMatchesRebuild) {
  Graph g = PaperExampleGraph();
  DimensionTable dims;
  NntSet nnts(2, &dims);
  nnts.Build(g);
  // The paper's running example: insert edge (0-based) {0, 3}.
  ASSERT_TRUE(g.AddEdge(0, 3, 0));
  nnts.InsertEdge(g, 0, 3);
  ExpectMatchesRebuild(nnts, g, &dims);
}

TEST(NntTest, DeleteEdgeMatchesRebuild) {
  Graph g = PaperExampleGraph();
  DimensionTable dims;
  NntSet nnts(2, &dims);
  nnts.Build(g);
  // The paper's running example: delete edge {1, 3} (paper's (1,3)).
  nnts.DeleteEdge(1, 3);
  ASSERT_TRUE(g.RemoveEdge(1, 3));
  ExpectMatchesRebuild(nnts, g, &dims);
}

TEST(NntTest, InsertIntoEmptyVertexPairCreatesTrees) {
  Graph g;
  g.AddVertex(1);
  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(g);
  // New vertex arrives via an edge insertion.
  ASSERT_TRUE(g.EnsureVertex(1, 2));
  ASSERT_TRUE(g.AddEdge(0, 1, 0));
  nnts.InsertEdge(g, 0, 1);
  ExpectMatchesRebuild(nnts, g, &dims);
  EXPECT_EQ(TreeNodesOf(nnts, 1), 2);
}

TEST(NntTest, DeleteThenReinsertRestoresState) {
  Graph g = PaperExampleGraph();
  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(g);
  const Npv before = nnts.NpvOf(1);
  nnts.DeleteEdge(1, 2);
  ASSERT_TRUE(g.RemoveEdge(1, 2));
  ExpectMatchesRebuild(nnts, g, &dims);
  ASSERT_TRUE(g.AddEdge(1, 2, 0));
  nnts.InsertEdge(g, 1, 2);
  ExpectMatchesRebuild(nnts, g, &dims);
  EXPECT_EQ(nnts.NpvOf(1), before);
}

TEST(NntTest, DirtyRootsReportedOnChange) {
  Graph g = PaperExampleGraph();
  DimensionTable dims;
  NntSet nnts(2, &dims);
  nnts.Build(g);
  // Build marks everything dirty.
  EXPECT_EQ(nnts.TakeDirtyRoots().size(), 6u);
  EXPECT_TRUE(nnts.TakeDirtyRoots().empty());
  // Deleting a pendant edge touches trees within depth of both endpoints.
  nnts.DeleteEdge(3, 5);
  ASSERT_TRUE(g.RemoveEdge(3, 5));
  const std::vector<VertexId> dirty = nnts.TakeDirtyRoots();
  EXPECT_FALSE(dirty.empty());
  for (const VertexId v : dirty) {
    EXPECT_TRUE(g.HasVertex(v));
  }
  ExpectMatchesRebuild(nnts, g, &dims);
}

// Property test: a randomized mixed insert/delete workload, incremental vs
// rebuild, across depths.
class NntRandomWorkloadTest : public ::testing::TestWithParam<int> {};

TEST_P(NntRandomWorkloadTest, IncrementalEqualsRebuild) {
  const int depth = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(depth));
  // A pool of vertices; edges toggled randomly.
  constexpr int kNumVertices = 14;
  constexpr int kSteps = 120;
  Graph g;
  for (int i = 0; i < kNumVertices; ++i) {
    g.AddVertex(static_cast<VertexLabel>(rng.UniformInt(0, 2)));
  }
  DimensionTable dims;
  NntSet nnts(depth, &dims);
  nnts.Build(g);
  for (int step = 0; step < kSteps; ++step) {
    const VertexId a =
        static_cast<VertexId>(rng.UniformInt(0, kNumVertices - 1));
    const VertexId b =
        static_cast<VertexId>(rng.UniformInt(0, kNumVertices - 1));
    if (a == b) continue;
    if (g.HasEdge(a, b)) {
      nnts.DeleteEdge(a, b);
      ASSERT_TRUE(g.RemoveEdge(a, b));
    } else {
      ASSERT_TRUE(g.AddEdge(a, b, static_cast<EdgeLabel>(step % 2)));
      nnts.InsertEdge(g, a, b);
    }
    // Full validation is expensive; do it on a sample of steps plus the
    // final state.
    if (step % 20 == 19 || step == kSteps - 1) {
      ExpectMatchesRebuild(nnts, g, &dims);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, NntRandomWorkloadTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(NntTest, StreamWorkloadStaysConsistent) {
  // Drive a generated stream through incremental maintenance.
  SyntheticStreamParams params;
  params.num_pairs = 2;
  params.avg_graph_edges = 12;
  params.evolution.num_timestamps = 40;
  params.seed = 5;
  const StreamDataset dataset = MakeSyntheticStreams(params);
  for (const GraphStream& stream : dataset.streams) {
    DimensionTable dims;
    NntSet nnts(3, &dims);
    Graph g = stream.StartGraph();
    nnts.Build(g);
    for (int t = 1; t < stream.NumTimestamps(); ++t) {
      for (const EdgeOp& op : stream.ChangeAt(t).ops) {
        if (op.kind == EdgeOp::Kind::kDelete) {
          if (!g.HasEdge(op.u, op.v)) continue;
          nnts.DeleteEdge(op.u, op.v);
          ASSERT_TRUE(g.RemoveEdge(op.u, op.v));
        } else {
          ASSERT_TRUE(g.EnsureVertex(op.u, op.u_label));
          ASSERT_TRUE(g.EnsureVertex(op.v, op.v_label));
          if (!g.AddEdge(op.u, op.v, op.edge_label)) continue;
          nnts.InsertEdge(g, op.u, op.v);
        }
      }
      if (t % 10 == 0 || t == stream.NumTimestamps() - 1) {
        ExpectMatchesRebuild(nnts, g, &dims);
      }
    }
  }
}

// Every root's row, for diffing states across one operation.
std::map<VertexId, std::vector<NpvEntry>> RowsOf(const NntSet& nnts) {
  std::map<VertexId, std::vector<NpvEntry>> rows;
  for (const VertexId root : nnts.Roots()) rows[root] = *nnts.TreeOf(root);
  return rows;
}

// Deletes {a, b} if `g` holds it, else inserts it (b may be a vertex with
// no edge yet), keeping `nnts` in step. Then checks that Validate() holds
// and that the drained dirty set is exactly the roots whose rows changed
// (a new root's row always does: it gains the new edge). `rows` holds
// every row before the op and is advanced past it.
void ToggleAndCheck(VertexId a, VertexId b, EdgeLabel label, Graph* g,
                    NntSet* nnts,
                    std::map<VertexId, std::vector<NpvEntry>>* rows) {
  if (g->HasEdge(a, b)) {
    nnts->DeleteEdge(a, b);
    ASSERT_TRUE(g->RemoveEdge(a, b));
  } else {
    ASSERT_TRUE(g->AddEdge(a, b, label));
    nnts->InsertEdge(*g, a, b);
  }
  ASSERT_TRUE(nnts->Validate(*g));
  const std::map<VertexId, std::vector<NpvEntry>> after = RowsOf(*nnts);
  std::vector<VertexId> changed;
  for (const auto& [root, row] : after) {
    auto it = rows->find(root);
    if (it == rows->end() || it->second != row) changed.push_back(root);
  }
  EXPECT_EQ(nnts->TakeDirtyRoots(), changed);
  *rows = after;
}

using EdgePairs = std::vector<std::pair<VertexId, VertexId>>;

// A hub (vertex 0) whose `leaves` leaves all touch a second hub.
EdgePairs TwoHubs(int leaves) {
  EdgePairs edges;
  for (VertexId leaf = 1; leaf <= leaves; ++leaf) {
    edges.emplace_back(0, leaf);
    edges.emplace_back(leaf, leaves + 1);
  }
  return edges;
}

// The counter's referee: random churn with deletes, re-inserts and edges to
// brand-new vertices, across depths and label alphabets, then fixed graphs
// with the depth-3 histogram's corner cases, each edge deleted and
// re-inserted. After every operation Validate() holds — each row equals
// the projection of a fresh EnumerateBranches — and the drained dirty set
// is exactly the roots whose rows changed.
TEST(NntCounterTest, RandomChurnMatchesPathEnumerationAfterEveryOp) {
  for (int depth = 1; depth <= 4; ++depth) {
    for (int labels = 1; labels <= 4; ++labels) {
      SCOPED_TRACE("depth " + std::to_string(depth) + ", labels " +
                   std::to_string(labels));
      Rng rng(7000 + static_cast<uint64_t>(10 * depth + labels));
      auto random_label = [&] {
        return static_cast<VertexLabel>(rng.UniformInt(0, labels - 1));
      };
      Graph g;
      for (int i = 0; i < 6; ++i) g.AddVertex(random_label());
      DimensionTable dims;
      NntSet nnts(depth, &dims);
      nnts.Build(g);
      ASSERT_TRUE(nnts.Validate(g));
      nnts.TakeDirtyRoots();
      std::map<VertexId, std::vector<NpvEntry>> rows = RowsOf(nnts);
      for (int step = 0; step < 80; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const VertexId bound = g.VertexIdBound();
        const VertexId a = static_cast<VertexId>(rng.UniformInt(0, bound - 1));
        // b == bound grows the graph by one vertex through the insertion.
        const VertexId b = static_cast<VertexId>(rng.UniformInt(0, bound));
        if (a == b) continue;
        if (b == bound) {
          ASSERT_TRUE(g.EnsureVertex(b, random_label()));
        }
        ASSERT_NO_FATAL_FAILURE(ToggleAndCheck(
            a, b, static_cast<EdgeLabel>(step % 2), &g, &nnts, &rows));
      }
      ExpectMatchesRebuild(nnts, g, &dims);
    }
  }

  const struct {
    const char* name;
    int vertices;
    EdgePairs edges;
  } fixed[] = {
      // A root at distances 1 and 2 at once, 2-walks ending at b, and
      // forward 2-steps ending at a.
      {"K4", 4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
      // Crossing the chord {0, 2} from 0, vertex 2 is a distance-2 root
      // reached by two 2-walks.
      {"4-cycle with a chord", 4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}},
      // Crossing {0, 1} from 0, the second hub is reached by four 2-walks.
      {"two hubs", 7, TwoHubs(5)},
  };
  for (const auto& graph : fixed) {
    for (int depth = 1; depth <= 4; ++depth) {
      for (int labels = 1; labels <= 2; ++labels) {
        SCOPED_TRACE(std::string(graph.name) + ", depth " +
                     std::to_string(depth) + ", labels " +
                     std::to_string(labels));
        Graph g;
        for (int v = 0; v < graph.vertices; ++v) g.AddVertex(v % labels);
        for (const auto& [u, v] : graph.edges) ASSERT_TRUE(g.AddEdge(u, v, 0));
        DimensionTable dims;
        NntSet nnts(depth, &dims);
        nnts.Build(g);
        ASSERT_TRUE(nnts.Validate(g));
        nnts.TakeDirtyRoots();
        std::map<VertexId, std::vector<NpvEntry>> rows = RowsOf(nnts);
        for (const auto& [u, v] : graph.edges) {
          SCOPED_TRACE("edge " + std::to_string(u) + "-" + std::to_string(v));
          ASSERT_NO_FATAL_FAILURE(ToggleAndCheck(u, v, 0, &g, &nnts, &rows));
          ASSERT_NO_FATAL_FAILURE(ToggleAndCheck(u, v, 0, &g, &nnts, &rows));
        }
        ExpectMatchesRebuild(nnts, g, &dims);
      }
    }
  }
}

// The tree-node counters count paths, not row updates: after Build and
// after every op, created minus freed is the number of tree nodes below
// the roots. With instrumentation compiled out both stay 0.
TEST(NntCounterTest, TreeNodeCountersCountPaths) {
  for (int depth = 1; depth <= 4; ++depth) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    obs::MetricSink sink;
    obs::ScopedObsContext scope(&sink, nullptr);
    Rng rng(7100 + static_cast<uint64_t>(depth));
    Graph g = RandomConnectedGraph(10, 2, 1, rng);
    DimensionTable dims;
    NntSet nnts(depth, &dims);
    auto expect_counters_match = [&] {
      const int64_t net = sink.Value(obs::Counter::kNntTreeNodesCreated) -
                          sink.Value(obs::Counter::kNntTreeNodesFreed);
      if constexpr (obs::kEnabled) {
        EXPECT_EQ(net, nnts.TotalTreeNodes() -
                           static_cast<int64_t>(nnts.Roots().size()));
      } else {
        EXPECT_EQ(sink.Value(obs::Counter::kNntTreeNodesCreated), 0);
        EXPECT_EQ(sink.Value(obs::Counter::kNntTreeNodesFreed), 0);
      }
    };
    nnts.Build(g);
    expect_counters_match();
    nnts.TakeDirtyRoots();
    std::map<VertexId, std::vector<NpvEntry>> rows = RowsOf(nnts);
    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const VertexId bound = g.VertexIdBound();
      const VertexId a = static_cast<VertexId>(rng.UniformInt(0, bound - 1));
      // b == bound grows the graph by one vertex through the insertion.
      const VertexId b = static_cast<VertexId>(rng.UniformInt(0, bound));
      if (a == b) continue;
      if (b == bound) {
        ASSERT_TRUE(
            g.EnsureVertex(b, static_cast<VertexLabel>(rng.UniformInt(0, 1))));
      }
      ASSERT_NO_FATAL_FAILURE(ToggleAndCheck(a, b, 0, &g, &nnts, &rows));
      expect_counters_match();
    }
  }
}

TEST(NpvTest, FromMapDropsZeros) {
  std::unordered_map<DimId, int32_t> counts = {{3, 2}, {1, 0}, {7, 5}};
  const Npv npv = Npv::FromMap(counts);
  EXPECT_EQ(npv.nnz(), 2);
  EXPECT_EQ(npv.ValueAt(1), 0);
  EXPECT_EQ(npv.ValueAt(3), 2);
  EXPECT_EQ(npv.ValueAt(7), 5);
  EXPECT_EQ(npv.ValueAt(99), 0);
}

TEST(NpvTest, DominanceBasics) {
  const Npv a = Npv::FromMap({{1, 2}, {2, 3}});
  const Npv b = Npv::FromMap({{1, 1}, {2, 3}});
  const Npv c = Npv::FromMap({{1, 1}, {3, 1}});
  const Npv empty;
  EXPECT_TRUE(a.Dominates(b));
  EXPECT_FALSE(b.Dominates(a));
  EXPECT_TRUE(a.Dominates(a));
  EXPECT_FALSE(a.Dominates(c));  // Dimension 3 missing in a.
  EXPECT_FALSE(c.Dominates(a));
  EXPECT_TRUE(a.Dominates(empty));
  EXPECT_FALSE(empty.Dominates(a));
  EXPECT_TRUE(empty.Dominates(empty));
}

TEST(DimensionTableTest, InternIsIdempotentAndDense) {
  DimensionTable dims;
  const DimId a = dims.Intern(1, 0, 1);
  const DimId b = dims.Intern(2, 0, 1);
  const DimId c = dims.Intern(1, 0, 1);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(dims.size(), 2);
  EXPECT_EQ(dims.Get(a).level, 1);
  EXPECT_EQ(dims.Get(b).level, 2);
  EXPECT_FALSE(dims.Find(3, 0, 1).has_value());
  EXPECT_EQ(*dims.Find(2, 0, 1), b);
}

TEST(DimensionTableTest, DistinguishesDirectionOfLabels) {
  DimensionTable dims;
  const DimId ab = dims.Intern(1, 0, 1);
  const DimId ba = dims.Intern(1, 1, 0);
  EXPECT_NE(ab, ba);
}

TEST(DimensionTableTest, DistinguishesFullLabelRange) {
  // The parsers accept any int32 label, so no two triples may share an id:
  // negative labels and labels of 2^21 and beyond included.
  DimensionTable dims;
  EXPECT_NE(dims.Intern(1, -1, 0), dims.Intern(2, -1, 0));
  EXPECT_NE(dims.Intern(1, 1 << 21, 0), dims.Intern(1, 0, 0));
  const VertexLabel labels[] = {INT32_MIN, -7,      -1,      0,        1,
                                (1 << 21) - 1, 1 << 21, 3000000, INT32_MAX};
  std::set<DimId> ids;
  for (int32_t level = 1; level <= 3; ++level) {
    for (const VertexLabel parent : labels) {
      for (const VertexLabel child : labels) {
        const DimId id = dims.Intern(level, parent, child);
        ids.insert(id);
        EXPECT_EQ(dims.Get(id), (Dimension{level, parent, child}));
        EXPECT_EQ(dims.Find(level, parent, child).value_or(kInvalidDim), id);
      }
    }
  }
  EXPECT_EQ(ids.size(), 3u * 9u * 9u);
  EXPECT_EQ(dims.size(), 3 * 9 * 9);
}

}  // namespace
}  // namespace gsps
