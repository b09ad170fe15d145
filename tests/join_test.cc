// Tests for the three join strategies.
//
// Key properties:
//   * NL, DSC, and Skyline return identical candidate sets on arbitrary
//     workloads, including after incremental updates and vertex removals;
//   * the candidate set never misses a truly isomorphic pair (Lemma 4.2,
//     the paper's no-false-negative guarantee), verified against VF2;
//   * the candidate set is exactly { (G,Q) : every query vertex NPV is
//     dominated by some stream vertex NPV } (checked by explicit recompute).

#include "gsps/join/join_strategy.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "gsps/common/random.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/gen/query_extractor.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/gen/synthetic_generator.h"
#include "gsps/iso/subgraph_isomorphism.h"
#include "gsps/join/dominance.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {
namespace {

// Builds QueryVectors straight from NPV maps for hand-crafted cases.
QueryVectors MakeQuery(std::vector<Npv> vectors) {
  return QueryVectors{std::move(vectors)};
}

std::vector<JoinKind> AllKinds() {
  return {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
          JoinKind::kSkylineEarlyStop};
}

TEST(JoinStrategyTest, NamesAreStable) {
  EXPECT_EQ(JoinKindName(JoinKind::kNestedLoop), "NL");
  EXPECT_EQ(JoinKindName(JoinKind::kDominatedSetCover), "DSC");
  EXPECT_EQ(JoinKindName(JoinKind::kSkylineEarlyStop), "Skyline");
  for (const JoinKind kind : AllKinds()) {
    EXPECT_EQ(MakeJoinStrategy(kind)->name(), JoinKindName(kind));
  }
}

class JoinKindTest : public ::testing::TestWithParam<JoinKind> {};

TEST_P(JoinKindTest, SingleVectorDominance) {
  auto strategy = MakeJoinStrategy(GetParam());
  std::vector<QueryVectors> queries;
  queries.push_back(MakeQuery({Npv::FromMap({{0, 2}, {1, 1}})}));
  strategy->SetQueries(std::move(queries));
  strategy->SetNumStreams(1);

  // No stream vertices: not covered.
  EXPECT_TRUE(strategy->CandidatesForStream(0).empty());

  // A dominating vector appears.
  strategy->UpdateStreamVertex(0, 0, Npv::FromMap({{0, 2}, {1, 3}}));
  EXPECT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0});

  // It shrinks below the query: no longer covered.
  strategy->UpdateStreamVertex(0, 0, Npv::FromMap({{0, 1}, {1, 3}}));
  EXPECT_TRUE(strategy->CandidatesForStream(0).empty());

  // A second vertex covers it again; then removing it uncovers.
  strategy->UpdateStreamVertex(0, 1, Npv::FromMap({{0, 5}, {1, 1}}));
  EXPECT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0});
  strategy->RemoveStreamVertex(0, 1);
  EXPECT_TRUE(strategy->CandidatesForStream(0).empty());
}

TEST_P(JoinKindTest, CoverageMustComeFromSingleVertexPerQueryVertex) {
  // One query vertex needing {0:2, 1:2}; two stream vertices each dominate
  // one coordinate only. The pair must NOT be a candidate (dominance is per
  // vector, not per coordinate).
  auto strategy = MakeJoinStrategy(GetParam());
  std::vector<QueryVectors> queries;
  queries.push_back(MakeQuery({Npv::FromMap({{0, 2}, {1, 2}})}));
  strategy->SetQueries(std::move(queries));
  strategy->SetNumStreams(1);
  strategy->UpdateStreamVertex(0, 0, Npv::FromMap({{0, 9}}));
  strategy->UpdateStreamVertex(0, 1, Npv::FromMap({{1, 9}}));
  EXPECT_TRUE(strategy->CandidatesForStream(0).empty());
}

TEST_P(JoinKindTest, AllQueryVerticesMustBeCovered) {
  auto strategy = MakeJoinStrategy(GetParam());
  std::vector<QueryVectors> queries;
  queries.push_back(MakeQuery(
      {Npv::FromMap({{0, 1}}), Npv::FromMap({{1, 1}})}));
  strategy->SetQueries(std::move(queries));
  strategy->SetNumStreams(1);
  strategy->UpdateStreamVertex(0, 0, Npv::FromMap({{0, 1}}));
  EXPECT_TRUE(strategy->CandidatesForStream(0).empty());
  strategy->UpdateStreamVertex(0, 1, Npv::FromMap({{1, 1}}));
  EXPECT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0});
}

TEST_P(JoinKindTest, TrivialQueryVectorNeedsNonEmptyStream) {
  // A query vertex with an all-zero NPV (isolated vertex / single-vertex
  // query) is dominated by any vertex, but only if one exists.
  auto strategy = MakeJoinStrategy(GetParam());
  std::vector<QueryVectors> queries;
  queries.push_back(MakeQuery({Npv()}));
  strategy->SetQueries(std::move(queries));
  strategy->SetNumStreams(1);
  EXPECT_TRUE(strategy->CandidatesForStream(0).empty());
  strategy->UpdateStreamVertex(0, 0, Npv());
  EXPECT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0});
}

TEST_P(JoinKindTest, EmptyQueryIsAlwaysCandidate) {
  auto strategy = MakeJoinStrategy(GetParam());
  std::vector<QueryVectors> queries;
  queries.push_back(MakeQuery({}));
  strategy->SetQueries(std::move(queries));
  strategy->SetNumStreams(2);
  EXPECT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0});
  EXPECT_EQ(strategy->CandidatesForStream(1), std::vector<int>{0});
}

TEST_P(JoinKindTest, StreamsAreIndependent) {
  auto strategy = MakeJoinStrategy(GetParam());
  std::vector<QueryVectors> queries;
  queries.push_back(MakeQuery({Npv::FromMap({{0, 1}})}));
  strategy->SetQueries(std::move(queries));
  strategy->SetNumStreams(2);
  strategy->UpdateStreamVertex(1, 0, Npv::FromMap({{0, 4}}));
  EXPECT_TRUE(strategy->CandidatesForStream(0).empty());
  EXPECT_EQ(strategy->CandidatesForStream(1), std::vector<int>{0});
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, JoinKindTest,
                         ::testing::Values(JoinKind::kNestedLoop,
                                           JoinKind::kDominatedSetCover,
                                           JoinKind::kSkylineEarlyStop),
                         [](const auto& info) {
                           return std::string(JoinKindName(info.param));
                         });

// Randomized agreement test: all three strategies see the same stream of
// updates/removals and must agree after every step.
TEST(JoinAgreementTest, RandomVectorWorkload) {
  Rng rng(424242);
  constexpr int kNumQueries = 8;
  constexpr int kNumStreams = 3;
  constexpr int kNumDims = 6;
  constexpr int kSteps = 300;

  std::vector<QueryVectors> queries;
  for (int j = 0; j < kNumQueries; ++j) {
    QueryVectors query;
    const int vectors = static_cast<int>(rng.UniformInt(1, 4));
    for (int v = 0; v < vectors; ++v) {
      std::unordered_map<DimId, int32_t> counts;
      const int nnz = static_cast<int>(rng.UniformInt(0, 3));
      for (int k = 0; k < nnz; ++k) {
        counts[static_cast<DimId>(rng.UniformInt(0, kNumDims - 1))] =
            static_cast<int32_t>(rng.UniformInt(1, 4));
      }
      query.vectors.push_back(Npv::FromMap(counts));
    }
    queries.push_back(std::move(query));
  }

  std::vector<std::unique_ptr<JoinStrategy>> strategies;
  for (const JoinKind kind : AllKinds()) {
    auto strategy = MakeJoinStrategy(kind);
    strategy->SetQueries(queries);
    strategy->SetNumStreams(kNumStreams);
    strategies.push_back(std::move(strategy));
  }

  for (int step = 0; step < kSteps; ++step) {
    const int stream = static_cast<int>(rng.UniformInt(0, kNumStreams - 1));
    const VertexId vertex = static_cast<VertexId>(rng.UniformInt(0, 9));
    if (rng.Bernoulli(0.15)) {
      for (auto& strategy : strategies) {
        strategy->RemoveStreamVertex(stream, vertex);
      }
    } else {
      std::unordered_map<DimId, int32_t> counts;
      const int nnz = static_cast<int>(rng.UniformInt(0, 4));
      for (int k = 0; k < nnz; ++k) {
        counts[static_cast<DimId>(rng.UniformInt(0, kNumDims - 1))] =
            static_cast<int32_t>(rng.UniformInt(1, 5));
      }
      const Npv npv = Npv::FromMap(counts);
      for (auto& strategy : strategies) {
        strategy->UpdateStreamVertex(stream, vertex, npv);
      }
    }
    for (int i = 0; i < kNumStreams; ++i) {
      const std::vector<int> reference = strategies[0]->CandidatesForStream(i);
      for (size_t s = 1; s < strategies.size(); ++s) {
        EXPECT_EQ(strategies[s]->CandidatesForStream(i), reference)
            << "step " << step << " stream " << i << " strategy "
            << strategies[s]->name();
      }
    }
  }
}

// Incremental maintenance: after every engine delta, the cached verdicts
// must equal a fresh strategy fed the current NPVs from scratch, repeated
// reads must be stable (answered from the verdict cache), and the buffer
// overloads must agree with the by-value forms.
TEST(JoinIncrementalTest, CachedVerdictsMatchScratchRecompute) {
  SyntheticStreamParams params;
  params.num_pairs = 5;
  params.avg_graph_edges = 9;
  params.num_vertex_labels = 3;
  params.evolution.num_timestamps = 20;
  params.evolution.p_appear = 0.3;
  params.evolution.p_disappear = 0.25;
  params.seed = 1301;
  const StreamDataset dataset = MakeSyntheticStreams(params);

  Rng rng(17);
  std::vector<Graph> starts;
  for (const GraphStream& stream : dataset.streams) {
    starts.push_back(stream.StartGraph());
  }
  const std::vector<Graph> queries = ExtractQuerySet(starts, 3, 5, rng);
  ASSERT_FALSE(queries.empty());

  for (const JoinKind kind : AllKinds()) {
    EngineOptions options;
    options.nnt_depth = 2;
    options.join_kind = kind;
    ContinuousQueryEngine engine(options);
    for (const Graph& q : queries) engine.AddQuery(q);
    for (const GraphStream& s : dataset.streams) {
      engine.AddStream(s.StartGraph());
    }
    engine.Start();

    std::vector<int> buffer;
    for (int t = 0; t < params.evolution.num_timestamps; ++t) {
      if (t > 0) {
        for (size_t i = 0; i < dataset.streams.size(); ++i) {
          engine.ApplyChange(static_cast<int>(i),
                             dataset.streams[i].ChangeAt(t));
        }
      }
      for (int i = 0; i < engine.num_streams(); ++i) {
        const std::vector<int> cached = engine.CandidatesForStream(i);
        EXPECT_EQ(cached, engine.RecomputeCandidatesFromScratch(i))
            << JoinKindName(kind) << " t=" << t << " stream=" << i;
        // A second read with no intervening deltas comes from the verdict
        // cache and must be identical.
        EXPECT_EQ(engine.CandidatesForStream(i), cached)
            << JoinKindName(kind) << " t=" << t << " stream=" << i;
        // The caller-buffer overload is the same answer.
        engine.CandidatesForStream(i, &buffer);
        EXPECT_EQ(buffer, cached)
            << JoinKindName(kind) << " t=" << t << " stream=" << i;
      }
      std::vector<std::pair<int, int>> pairs_buffer;
      engine.AllCandidatePairs(&pairs_buffer);
      EXPECT_EQ(pairs_buffer, engine.AllCandidatePairs())
          << JoinKindName(kind) << " t=" << t;
    }
  }
}

// Strategy-level delta feed (no engine): random updates/removals with
// removals of never-inserted vertices, re-updates of tombstoned vertices,
// and empty vectors, mixed with query churn — AddQuery of new queries
// (some bringing dims no query used yet, which forces the caller's replay;
// some landing in new tail slots), RemoveQuery, and re-adds of removed
// queries into their freed slots. After every step the churn invariants
// hold and every strategy matches a from-scratch replay into a fresh
// strategy of the same kind, compared through a local-id table as
// StreamShard::RecomputeCandidatesFromScratch does.
TEST(JoinIncrementalTest, StrategyMatchesFreshReplayUnderChurn) {
  Rng rng(8086);
  constexpr int kNumQueries = 6;
  constexpr int kNumStreams = 2;
  constexpr int kNumDims = 5;        // Dims of the initial queries.
  constexpr int kNumStreamDims = 8;  // Stream and added-query dims.
  constexpr int kSteps = 250;

  auto random_npv = [](Rng& r, int max_nnz, int num_dims, int max_count) {
    std::unordered_map<DimId, int32_t> counts;
    const int nnz = static_cast<int>(r.UniformInt(0, max_nnz));
    for (int k = 0; k < nnz; ++k) {
      counts[static_cast<DimId>(r.UniformInt(0, num_dims - 1))] =
          static_cast<int32_t>(r.UniformInt(1, max_count));
    }
    return Npv::FromMap(counts);
  };
  auto random_query = [&](Rng& r, int num_dims) {
    QueryVectors query;
    const int vectors = static_cast<int>(r.UniformInt(0, 3));
    for (int v = 0; v < vectors; ++v) {
      query.vectors.push_back(random_npv(r, 3, num_dims, 4));
    }
    return query;
  };

  std::vector<QueryVectors> queries;
  for (int j = 0; j < kNumQueries; ++j) {
    queries.push_back(random_query(rng, kNumDims));
  }

  for (const JoinKind kind : AllKinds()) {
    auto incremental = MakeJoinStrategy(kind);
    incremental->SetQueries(queries);
    incremental->SetNumStreams(kNumStreams);

    // Live queries by the strategy's local id (nullopt = retired), the
    // removed queries kept for re-adds, and the live vertex maps, replayed
    // into a fresh strategy at every step.
    std::vector<std::optional<QueryVectors>> by_local(queries.begin(),
                                                      queries.end());
    std::vector<QueryVectors> removed;
    std::vector<std::unordered_map<VertexId, Npv>> live(kNumStreams);
    int grew_dims_adds = 0;
    int readds = 0;

    auto update = [&](int stream, VertexId vertex, const Npv& npv) {
      incremental->UpdateStreamVertex(stream, vertex, npv);
      live[stream][vertex] = npv;
    };
    auto add_query = [&](const QueryVectors& query) {
      bool grew_dims = false;
      const int32_t local = incremental->AddQuery(query, &grew_dims);
      if (static_cast<size_t>(local) == by_local.size()) {
        by_local.emplace_back(query);
      } else {
        ASSERT_FALSE(by_local[static_cast<size_t>(local)].has_value());
        by_local[static_cast<size_t>(local)] = query;
      }
      if (!grew_dims) return;
      ++grew_dims_adds;
      for (int i = 0; i < kNumStreams; ++i) {
        for (const auto& [v, npv] : live[i]) {
          incremental->UpdateStreamVertex(i, v, npv);
        }
      }
    };
    auto check = [&](const std::string& where) {
      incremental->CheckChurnInvariants();
      auto fresh = MakeJoinStrategy(kind);
      std::vector<QueryVectors> fresh_queries;
      std::vector<int> fresh_to_local;
      for (size_t j = 0; j < by_local.size(); ++j) {
        if (!by_local[j].has_value()) continue;
        fresh_queries.push_back(*by_local[j]);
        fresh_to_local.push_back(static_cast<int>(j));
      }
      fresh->SetQueries(std::move(fresh_queries));
      fresh->SetNumStreams(kNumStreams);
      for (int i = 0; i < kNumStreams; ++i) {
        for (const auto& [v, npv] : live[i]) {
          fresh->UpdateStreamVertex(i, v, npv);
        }
      }
      for (int i = 0; i < kNumStreams; ++i) {
        std::vector<int> expected;
        for (const int local : fresh->CandidatesForStream(i)) {
          expected.push_back(fresh_to_local[static_cast<size_t>(local)]);
        }
        EXPECT_EQ(incremental->CandidatesForStream(i), expected)
            << JoinKindName(kind) << " " << where << " stream " << i;
      }
    };

    // A vertex tombstoned before a new tail slot is appended, then revived:
    // no slot is free yet, so the added query's vectors append tail slots.
    update(0, 0, Npv::FromMap({{0, 2}, {1, 1}}));
    update(0, 1, Npv::FromMap({{1, 3}}));
    incremental->RemoveStreamVertex(0, 0);
    live[0].erase(0);
    check("tombstoned");
    add_query(MakeQuery({Npv::FromMap({{0, 1}, {1, 1}}), Npv::FromMap({})}));
    check("tail add");
    update(0, 0, Npv::FromMap({{0, 1}, {1, 2}}));
    check("revived");

    Rng workload(kind == JoinKind::kNestedLoop          ? 1
                 : kind == JoinKind::kDominatedSetCover ? 2
                                                        : 3);
    for (int step = 0; step < kSteps; ++step) {
      if (workload.Bernoulli(0.15)) {
        std::vector<int32_t> live_ids;
        for (size_t j = 0; j < by_local.size(); ++j) {
          if (by_local[j].has_value()) {
            live_ids.push_back(static_cast<int32_t>(j));
          }
        }
        if (live_ids.size() > 2 && workload.Bernoulli(0.4)) {
          const int32_t local = live_ids[static_cast<size_t>(workload.UniformInt(
              0, static_cast<int64_t>(live_ids.size()) - 1))];
          incremental->RemoveQuery(local);
          removed.push_back(*by_local[static_cast<size_t>(local)]);
          by_local[static_cast<size_t>(local)].reset();
        } else if (!removed.empty() && workload.Bernoulli(0.5)) {
          // An identical re-add lands in the freed slots.
          add_query(removed.back());
          removed.pop_back();
          ++readds;
        } else {
          add_query(random_query(workload, kNumStreamDims));
        }
      } else {
        const int stream =
            static_cast<int>(workload.UniformInt(0, kNumStreams - 1));
        const VertexId vertex =
            static_cast<VertexId>(workload.UniformInt(0, 7));
        if (workload.Bernoulli(0.25)) {
          incremental->RemoveStreamVertex(stream, vertex);
          live[stream].erase(vertex);
        } else {
          update(stream, vertex, random_npv(workload, 4, kNumStreamDims, 5));
        }
      }
      check("step " + std::to_string(step));
    }
    // The mix must actually exercise dim growth and slot reuse.
    EXPECT_GT(grew_dims_adds, 0) << JoinKindName(kind);
    EXPECT_GT(readds, 0) << JoinKindName(kind);
  }
}

// End-to-end: engine candidates on an evolving stream are a superset of the
// exact isomorphism answers (no false negatives), and all join strategies
// agree through the engine.
TEST(JoinNoFalseNegativeTest, EngineSupersetOfExactAnswers) {
  SyntheticStreamParams params;
  params.num_pairs = 6;
  params.avg_graph_edges = 10;
  params.num_vertex_labels = 3;
  params.evolution.num_timestamps = 25;
  params.evolution.p_appear = 0.25;
  params.evolution.p_disappear = 0.2;
  params.seed = 77;
  const StreamDataset dataset = MakeSyntheticStreams(params);

  // Queries: small fragments of the stream start graphs, so that matches
  // actually occur.
  Rng rng(5);
  std::vector<Graph> starts;
  for (const GraphStream& stream : dataset.streams) {
    starts.push_back(stream.StartGraph());
  }
  const std::vector<Graph> queries = ExtractQuerySet(starts, 3, 5, rng);
  ASSERT_FALSE(queries.empty());

  std::vector<std::unique_ptr<ContinuousQueryEngine>> engines;
  for (const JoinKind kind : AllKinds()) {
    EngineOptions options;
    options.nnt_depth = 2;
    options.join_kind = kind;
    auto engine = std::make_unique<ContinuousQueryEngine>(options);
    for (const Graph& q : queries) engine->AddQuery(q);
    for (const GraphStream& s : dataset.streams) {
      engine->AddStream(s.StartGraph());
    }
    engine->Start();
    engines.push_back(std::move(engine));
  }

  int64_t exact_pairs = 0;
  for (int t = 0; t < params.evolution.num_timestamps; ++t) {
    if (t > 0) {
      for (size_t i = 0; i < dataset.streams.size(); ++i) {
        const GraphChange& change = dataset.streams[i].ChangeAt(t);
        for (auto& engine : engines) {
          engine->ApplyChange(static_cast<int>(i), change);
        }
      }
    }
    for (size_t i = 0; i < dataset.streams.size(); ++i) {
      const std::vector<int> reference =
          engines[0]->CandidatesForStream(static_cast<int>(i));
      for (size_t e = 1; e < engines.size(); ++e) {
        EXPECT_EQ(engines[e]->CandidatesForStream(static_cast<int>(i)),
                  reference)
            << "t=" << t << " stream=" << i;
      }
      // No false negatives vs exact isomorphism.
      const Graph& data = engines[0]->StreamGraph(static_cast<int>(i));
      for (size_t j = 0; j < queries.size(); ++j) {
        if (IsSubgraphIsomorphic(queries[j], data)) {
          ++exact_pairs;
          EXPECT_TRUE(std::find(reference.begin(), reference.end(),
                                static_cast<int>(j)) != reference.end())
              << "missed true pair at t=" << t << " stream=" << i
              << " query=" << j;
        }
      }
    }
  }
  // The workload must actually exercise true matches.
  EXPECT_GT(exact_pairs, 0);
}

TEST(BuildQueryVectorsTest, OneVectorPerVertexInIdOrder) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(1);
  ASSERT_TRUE(g.AddEdge(0, 1, 0));
  DimensionTable dims;
  NntSet nnts(2, &dims);
  nnts.Build(g);
  const QueryVectors vectors = BuildQueryVectors(nnts);
  ASSERT_EQ(vectors.vectors.size(), 2u);
  EXPECT_EQ(vectors.vectors[0], nnts.NpvOf(0));
  EXPECT_EQ(vectors.vectors[1], nnts.NpvOf(1));
}

}  // namespace
}  // namespace gsps
