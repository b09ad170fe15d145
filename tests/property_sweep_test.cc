// Parameterized property sweeps across workload regimes.
//
// These complement the per-module tests with broader randomized coverage:
// every combination of (label alphabet, density regime) is exercised for
//   * the no-false-negative guarantee of the full NPV pipeline,
//   * strategy agreement (NL == DSC == Skyline),
//   * the pruning-power chain: exact iso  =>  branch compatible  =>
//     NPV candidate (each filter is weaker than the previous, never wrong),
//   * NNT incremental maintenance under batched changes through the engine.

#include <gtest/gtest.h>

#include <tuple>

#include "gsps/common/random.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/gen/query_extractor.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/gen/synthetic_generator.h"
#include "gsps/iso/branch_compatibility.h"
#include "gsps/iso/subgraph_isomorphism.h"
#include "gsps/join/dominance.h"
#include "gsps/nnt/nnt_set.h"
#include "gsps/nnt/subtree_filter.h"

namespace gsps {
namespace {

struct Regime {
  int num_labels;
  double p_appear;
  double p_disappear;
  double extra_pairs;
};

class PipelineSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  // (labels, density index) -> workload regime.
  Regime GetRegime() const {
    const int labels = std::get<0>(GetParam());
    const bool dense = std::get<1>(GetParam()) == 1;
    return Regime{labels, dense ? 0.3 : 0.12, dense ? 0.15 : 0.3,
                  dense ? 3.0 : 1.5};
  }
};

TEST_P(PipelineSweepTest, NoFalseNegativesAndStrategyAgreement) {
  const Regime regime = GetRegime();
  SyntheticStreamParams params;
  params.num_pairs = 4;
  params.avg_graph_edges = 9;
  params.num_vertex_labels = regime.num_labels;
  params.evolution.p_appear = regime.p_appear;
  params.evolution.p_disappear = regime.p_disappear;
  params.evolution.extra_pair_fraction = regime.extra_pairs;
  params.evolution.num_timestamps = 15;
  params.seed = 1000 + static_cast<uint64_t>(regime.num_labels);
  const StreamDataset dataset = MakeSyntheticStreams(params);

  Rng rng(55);
  std::vector<Graph> snapshots;
  for (const GraphStream& s : dataset.streams) {
    snapshots.push_back(s.MaterializeAt(s.NumTimestamps() / 2));
  }
  const std::vector<Graph> queries = ExtractQuerySet(snapshots, 3, 4, rng);
  if (queries.empty()) GTEST_SKIP() << "no extractable queries";

  std::vector<std::unique_ptr<ContinuousQueryEngine>> engines;
  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
        JoinKind::kSkylineEarlyStop}) {
    EngineOptions options;
    options.nnt_depth = 3;
    options.join_kind = kind;
    auto engine = std::make_unique<ContinuousQueryEngine>(options);
    for (const Graph& q : queries) engine->AddQuery(q);
    for (const GraphStream& s : dataset.streams) {
      engine->AddStream(s.StartGraph());
    }
    engine->Start();
    engines.push_back(std::move(engine));
  }

  for (int t = 0; t < params.evolution.num_timestamps; ++t) {
    if (t > 0) {
      for (size_t i = 0; i < dataset.streams.size(); ++i) {
        for (auto& engine : engines) {
          engine->ApplyChange(static_cast<int>(i),
                              dataset.streams[i].ChangeAt(t));
        }
      }
    }
    for (size_t i = 0; i < dataset.streams.size(); ++i) {
      const auto reference =
          engines[0]->CandidatesForStream(static_cast<int>(i));
      for (size_t e = 1; e < engines.size(); ++e) {
        ASSERT_EQ(engines[e]->CandidatesForStream(static_cast<int>(i)),
                  reference);
      }
      for (size_t j = 0; j < queries.size(); ++j) {
        if (IsSubgraphIsomorphic(queries[j],
                                 engines[0]->StreamGraph(static_cast<int>(i)))) {
          EXPECT_TRUE(std::find(reference.begin(), reference.end(),
                                static_cast<int>(j)) != reference.end())
              << "false negative at t=" << t;
        }
      }
    }
  }
}

TEST_P(PipelineSweepTest, FilterChainIsMonotone) {
  // exact iso => subtree embeddable => branch compatible => NPV candidate,
  // at every depth.
  const Regime regime = GetRegime();
  SyntheticParams params;
  params.num_graphs = 10;
  params.num_seeds = 4;
  params.avg_seed_edges = 4;
  params.avg_graph_edges = 12;
  params.num_vertex_labels = regime.num_labels;
  params.seed = 2000 + static_cast<uint64_t>(regime.num_labels) +
                static_cast<uint64_t>(std::get<1>(GetParam()));
  const std::vector<Graph> database = GenerateSyntheticDataset(params);
  Rng rng(31);
  const std::vector<Graph> queries = ExtractQuerySet(database, 4, 6, rng);
  if (queries.empty()) GTEST_SKIP();

  for (int depth = 1; depth <= 3; ++depth) {
    DimensionTable dims;
    std::vector<QueryVectors> query_vectors;
    for (const Graph& q : queries) {
      NntSet nnts(depth, &dims);
      nnts.Build(q);
      query_vectors.push_back(BuildQueryVectors(nnts));
    }
    std::vector<std::vector<NodeNeighborTree>> query_trees;
    for (const Graph& q : queries) {
      query_trees.push_back(BuildNodeNeighborTrees(q, depth));
    }
    auto strategy = MakeJoinStrategy(JoinKind::kNestedLoop);
    strategy->SetQueries(query_vectors);
    strategy->SetNumStreams(static_cast<int>(database.size()));
    std::vector<std::vector<NodeNeighborTree>> data_trees;
    for (size_t i = 0; i < database.size(); ++i) {
      NntSet nnts(depth, &dims);
      nnts.Build(database[i]);
      for (const VertexId root : nnts.Roots()) {
        strategy->UpdateStreamVertex(static_cast<int>(i), root,
                                     nnts.NpvOf(root));
      }
      data_trees.push_back(BuildNodeNeighborTrees(database[i], depth));
    }
    for (size_t i = 0; i < database.size(); ++i) {
      const auto candidates =
          strategy->CandidatesForStream(static_cast<int>(i));
      for (size_t j = 0; j < queries.size(); ++j) {
        const bool exact = IsSubgraphIsomorphic(queries[j], database[i]);
        const bool subtree = NntSubtreeFilter(query_trees[j], data_trees[i]);
        const bool branch =
            BranchCompatibleFilter(queries[j], database[i], depth);
        const bool npv = std::find(candidates.begin(), candidates.end(),
                                   static_cast<int>(j)) != candidates.end();
        if (exact) {
          EXPECT_TRUE(subtree) << "iso must imply subtree embed";
        }
        if (subtree) {
          EXPECT_TRUE(branch) << "subtree must imply branch";
        }
        if (branch) {
          EXPECT_TRUE(npv) << "branch-compat must imply NPV";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, PipelineSweepTest,
    ::testing::Combine(::testing::Values(2, 3, 6),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      return "labels" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == 1 ? "_dense" : "_sparse");
    });

// Batched-change property: applying a whole GraphChange through the engine
// equals materializing the target graph from scratch, for every batch
// composition (multi-insert, multi-delete, mixed, vertex-introducing).
class BatchChangeTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchChangeTest, EngineMatchesFreshEngineAfterRandomBatches) {
  Rng rng(3000 + static_cast<uint64_t>(GetParam()));
  Graph start;
  constexpr int kVertices = 10;
  for (int i = 0; i < kVertices; ++i) {
    start.AddVertex(static_cast<VertexLabel>(rng.UniformInt(0, 2)));
  }
  for (int i = 0; i < 8; ++i) {
    start.AddEdge(static_cast<VertexId>(rng.UniformInt(0, kVertices - 1)),
                  static_cast<VertexId>(rng.UniformInt(0, kVertices - 1)), 0);
  }
  Graph pattern;
  pattern.AddVertex(0);
  pattern.AddVertex(1);
  pattern.AddVertex(2);
  pattern.AddEdge(0, 1, 0);
  pattern.AddEdge(1, 2, 0);

  EngineOptions options;
  options.nnt_depth = 3;
  ContinuousQueryEngine engine(options);
  engine.AddQuery(pattern);
  engine.AddStream(start);
  engine.Start();

  for (int step = 0; step < 12; ++step) {
    GraphChange batch;
    const int ops = static_cast<int>(rng.UniformInt(1, 6));
    for (int k = 0; k < ops; ++k) {
      const VertexId a =
          static_cast<VertexId>(rng.UniformInt(0, kVertices + 1));
      const VertexId b =
          static_cast<VertexId>(rng.UniformInt(0, kVertices + 1));
      if (a == b) continue;
      if (rng.Bernoulli(0.5)) {
        batch.ops.push_back(EdgeOp::Delete(a, b));
      } else {
        batch.ops.push_back(EdgeOp::Insert(
            a, b, 0, static_cast<VertexLabel>(rng.UniformInt(0, 2)),
            static_cast<VertexLabel>(rng.UniformInt(0, 2))));
      }
    }
    engine.ApplyChange(0, batch);

    ContinuousQueryEngine fresh(options);
    fresh.AddQuery(pattern);
    fresh.AddStream(engine.StreamGraph(0));
    fresh.Start();
    ASSERT_EQ(engine.CandidatesForStream(0), fresh.CandidatesForStream(0))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchChangeTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace gsps
