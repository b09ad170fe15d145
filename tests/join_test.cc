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
#include "gsps/join/dominance_kernel.h"
#include "gsps/join/dominated_set_cover_join.h"
#include "gsps/nnt/nnt_set.h"
#include "gsps/obs/obs.h"

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

// The caller owns the id space: AddQuery takes a retired id or the next
// unused one, and anything else is a programmer error.
TEST_P(JoinKindTest, AddQueryTakesOnlyARetiredOrTheNextId) {
  auto strategy = MakeJoinStrategy(GetParam());
  std::vector<QueryVectors> queries;
  queries.push_back(MakeQuery({Npv::FromMap({{0, 1}})}));
  queries.push_back(MakeQuery({Npv::FromMap({{1, 1}})}));
  strategy->SetQueries(queries);
  strategy->SetNumStreams(1);
  bool grew = false;
  const char* const message = "retired or the next unused";
  EXPECT_DEATH(strategy->AddQuery(1, queries[0], &grew), message);  // Live.
  EXPECT_DEATH(strategy->AddQuery(3, queries[0], &grew), message);  // Gap.
  EXPECT_DEATH(strategy->AddQuery(-1, queries[0], &grew), message);
  strategy->RemoveQuery(0);
  strategy->AddQuery(2, queries[0], &grew);
  strategy->AddQuery(0, queries[1], &grew);
  strategy->UpdateStreamVertex(0, 0, Npv::FromMap({{1, 1}}));
  EXPECT_EQ(strategy->CandidatesForStream(0), (std::vector<int>{0, 1}));
  strategy->CheckChurnInvariants();
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

  // Vertex ids come from two ranges far apart, so a stream's vertex table
  // has a long run of ids it never held. Removals also name ids no update
  // used: in the gap, and past the end of every table.
  for (int step = 0; step < kSteps; ++step) {
    const int stream = static_cast<int>(rng.UniformInt(0, kNumStreams - 1));
    const VertexId vertex = static_cast<VertexId>(
        rng.UniformInt(0, 9) + (rng.Bernoulli(0.5) ? 5000 : 0));
    if (rng.Bernoulli(0.05)) {
      const VertexId never = static_cast<VertexId>(
          rng.Bernoulli(0.5) ? rng.UniformInt(10, 4999)  // In the gap.
                             : rng.UniformInt(5010, 9999));  // Past the end.
      for (auto& strategy : strategies) {
        strategy->RemoveStreamVertex(stream, never);
      }
    } else if (rng.Bernoulli(0.15)) {
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
    for (auto& strategy : strategies) strategy->CheckChurnInvariants();
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
// strategy of the same kind, compared through an id table as
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

    // Live queries by id (nullopt = retired), the retired ids (the caller
    // owns the id space), the removed queries kept for re-adds, and the
    // live vertex maps, replayed into a fresh strategy at every step.
    std::vector<std::optional<QueryVectors>> by_id(queries.begin(),
                                                   queries.end());
    std::vector<int32_t> free_ids;
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
      int32_t id = static_cast<int32_t>(by_id.size());
      if (!free_ids.empty()) {
        id = free_ids.back();
        free_ids.pop_back();
      } else {
        by_id.emplace_back();
      }
      incremental->AddQuery(id, query, &grew_dims);
      by_id[static_cast<size_t>(id)] = query;
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
      std::vector<int> fresh_to_id;
      for (size_t j = 0; j < by_id.size(); ++j) {
        if (!by_id[j].has_value()) continue;
        fresh_queries.push_back(*by_id[j]);
        fresh_to_id.push_back(static_cast<int>(j));
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
        for (const int fresh_id : fresh->CandidatesForStream(i)) {
          expected.push_back(fresh_to_id[static_cast<size_t>(fresh_id)]);
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
        for (size_t j = 0; j < by_id.size(); ++j) {
          if (by_id[j].has_value()) {
            live_ids.push_back(static_cast<int32_t>(j));
          }
        }
        if (live_ids.size() > 2 && workload.Bernoulli(0.4)) {
          const int32_t id = live_ids[static_cast<size_t>(workload.UniformInt(
              0, static_cast<int64_t>(live_ids.size()) - 1))];
          incremental->RemoveQuery(id);
          removed.push_back(*by_id[static_cast<size_t>(id)]);
          by_id[static_cast<size_t>(id)].reset();
          free_ids.push_back(id);
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

// An update that moves a vertex's NPV but flips no slot changes no
// verdict, so the next refresh is a reuse; a flip is not.
TEST(JoinVerdictCacheTest, UpdateThatFlipsNoSlotReusesTheVerdict) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (GSPS_OBS_DISABLED)";
  }
  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover}) {
    auto strategy = MakeJoinStrategy(kind);
    std::vector<QueryVectors> queries;
    queries.push_back(MakeQuery({Npv::FromMap({{0, 1}})}));
    queries.push_back(MakeQuery({Npv::FromMap({{1, 2}})}));
    strategy->SetQueries(std::move(queries));
    strategy->SetNumStreams(1);
    strategy->UpdateStreamVertex(0, 0, Npv::FromMap({{0, 1}, {1, 1}}));
    ASSERT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0});

    obs::MetricSink sink;
    {
      obs::ScopedObsContext scope(&sink, nullptr);
      // Still dominates query 0's vector, still misses query 1's.
      strategy->UpdateStreamVertex(0, 0, Npv::FromMap({{0, 3}, {1, 1}}));
      EXPECT_EQ(strategy->CandidatesForStream(0), std::vector<int>{0});
      EXPECT_EQ(sink.Value(obs::Counter::kJoinVerdictsReused), 1)
          << JoinKindName(kind);
      // Now it dominates query 1's vector too.
      strategy->UpdateStreamVertex(0, 0, Npv::FromMap({{0, 3}, {1, 2}}));
      EXPECT_EQ(strategy->CandidatesForStream(0), (std::vector<int>{0, 1}));
      EXPECT_EQ(sink.Value(obs::Counter::kJoinVerdictsReused), 1)
          << JoinKindName(kind);
    }
    strategy->CheckChurnInvariants();
  }
}

// Skyline's plan build runs one kernel batch per distinct non-trivial
// query vector. A query added at runtime publishes those batches with the
// next refresh, under the dispatched ISA's counter.
TEST(SkylinePlanBuildTest, AddQueryBatchesAreCounted) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "instrumentation compiled out (GSPS_OBS_DISABLED)";
  }
  auto skyline = MakeJoinStrategy(JoinKind::kSkylineEarlyStop);
  std::vector<QueryVectors> queries;
  queries.push_back(
      MakeQuery({Npv::FromMap({{0, 1}}), Npv::FromMap({{1, 1}})}));
  skyline->SetQueries(std::move(queries));
  skyline->SetNumStreams(1);
  skyline->UpdateStreamVertex(0, 0, Npv::FromMap({{0, 2}, {1, 1}}));
  skyline->CandidatesForStream(0);

  // Three distinct non-trivial vectors, a repeat and a trivial one, all
  // over known dims.
  const Npv a = Npv::FromMap({{0, 1}});
  const QueryVectors added = MakeQuery(
      {a, Npv::FromMap({{1, 1}}), Npv::FromMap({{0, 2}, {1, 1}}), a, Npv{}});
  const obs::Counter batches = DominanceBatchCounter(ActiveDominanceIsa());
  obs::MetricSink sink;
  {
    obs::ScopedObsContext scope(&sink, nullptr);
    bool grew_dims = true;
    skyline->AddQuery(1, added, &grew_dims);
    EXPECT_FALSE(grew_dims);
    EXPECT_EQ(skyline->CandidatesForStream(0), (std::vector<int>{0, 1}));
  }
  EXPECT_EQ(sink.Value(batches), 3);
  skyline->CheckChurnInvariants();
}

// An NPV over dims [first, first + n), every count 1.
Npv OnesOver(int32_t first, int32_t n) {
  std::vector<NpvEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int32_t d = first; d < first + n; ++d) {
    entries.push_back(NpvEntry{d, 1});
  }
  return Npv::FromSortedEntries(std::move(entries));
}

// DSC counters are uint16_t: a query vector of nnz 65,535 is the widest
// accepted, and its counter must reach 65,535 on both seeding paths (the
// count kernel for a fresh vertex, the walk for an incremental update) and
// on AddQuery's seeding. CheckChurnInvariants recounts every counter.
TEST(DscCounterRowTest, VectorAtTheNnzLimitIsAcceptedAndFlips) {
  constexpr int32_t kLimit = DominatedSetCoverJoin::kMaxVectorNnz;
  static_assert(kLimit == 65535);
  DominatedSetCoverJoin dsc;
  std::vector<QueryVectors> queries;
  queries.push_back(MakeQuery({OnesOver(0, kLimit)}));
  dsc.SetQueries(std::move(queries));
  dsc.SetNumStreams(1);

  // One dimension short: the counter stops at 65,534.
  dsc.UpdateStreamVertex(0, 0, OnesOver(0, kLimit - 1));
  dsc.CheckChurnInvariants();
  EXPECT_TRUE(dsc.CandidatesForStream(0).empty());
  // The last dimension appears: the walk takes it to 65,535, a flip.
  dsc.UpdateStreamVertex(0, 0, OnesOver(0, kLimit));
  dsc.CheckChurnInvariants();
  EXPECT_EQ(dsc.CandidatesForStream(0), std::vector<int>{0});
  // The first one vanishes: back to 65,534, a flip back.
  dsc.UpdateStreamVertex(0, 0, OnesOver(1, kLimit - 1));
  dsc.CheckChurnInvariants();
  EXPECT_TRUE(dsc.CandidatesForStream(0).empty());
  // A fresh vertex over every dimension is seeded at 65,535.
  dsc.UpdateStreamVertex(0, 1, OnesOver(0, kLimit));
  dsc.CheckChurnInvariants();
  EXPECT_EQ(dsc.CandidatesForStream(0), std::vector<int>{0});
  // A query added at the limit is seeded against the live vertices.
  bool grew_dims = true;
  dsc.AddQuery(1, MakeQuery({OnesOver(0, kLimit)}), &grew_dims);
  EXPECT_FALSE(grew_dims);
  dsc.CheckChurnInvariants();
  EXPECT_EQ(dsc.CandidatesForStream(0), (std::vector<int>{0, 1}));
}

TEST(DscCounterRowTest, VectorPastTheNnzLimitDies) {
  const Npv too_wide = OnesOver(0, DominatedSetCoverJoin::kMaxVectorNnz + 1);
  EXPECT_DEATH(
      {
        DominatedSetCoverJoin dsc;
        std::vector<QueryVectors> queries;
        queries.push_back(MakeQuery({too_wide}));
        dsc.SetQueries(std::move(queries));
      },
      "more than 65535 non-zero dimensions");
  EXPECT_DEATH(
      {
        DominatedSetCoverJoin dsc;
        dsc.SetQueries({});
        dsc.SetNumStreams(1);
        bool grew_dims = false;
        dsc.AddQuery(0, MakeQuery({too_wide}), &grew_dims);
      },
      "more than 65535 non-zero dimensions");
}

// A fresh vertex is walked from zero unless the walk would visit more than
// (total query nnz) / kDominanceLanes list entries; then the count kernel
// seeds its row. Two fresh vertices on either side of that rule, then
// incremental moves of both: the rows recount exactly and the candidates
// equal NL's. The counters show which path ran: a walk counts rounds, a
// seed one kernel batch, and both count the dimensions that appeared.
TEST(DscCounterRowTest, FreshVerticesWalkedOrKernelSeededMatchNestedLoop) {
  Rng rng(4242);
  std::vector<QueryVectors> queries;
  int64_t total_nnz = 0;
  for (int j = 0; j < 12; ++j) {
    QueryVectors query;
    for (int v = 0; v < 3; ++v) {
      std::unordered_map<DimId, int32_t> counts;
      for (int k = 0; k < 3; ++k) {
        counts[static_cast<DimId>(rng.UniformInt(0, 7))] =
            static_cast<int32_t>(rng.UniformInt(1, 3));
      }
      query.vectors.push_back(Npv::FromMap(counts));
      total_nnz += query.vectors.back().nnz();
    }
    queries.push_back(std::move(query));
  }
  // A fresh vertex's walk visits, per dimension of its NPV, the query
  // entries there whose value it reaches.
  auto walk_visits = [&](const Npv& npv) {
    int64_t visits = 0;
    for (const QueryVectors& query : queries) {
      for (const Npv& vector : query.vectors) {
        for (const NpvEntry& e : vector.entries()) {
          if (npv.ValueAt(e.dim) >= e.count) ++visits;
        }
      }
    }
    return visits;
  };
  const Npv small = Npv::FromMap({{0, 1}});
  std::unordered_map<DimId, int32_t> all_dims;
  for (DimId d = 0; d < 8; ++d) all_dims[d] = 3;
  const Npv large = Npv::FromMap(all_dims);
  ASSERT_GT(walk_visits(small), 0);
  ASSERT_LE(walk_visits(small), total_nnz / kDominanceLanes);
  ASSERT_GT(walk_visits(large), total_nnz / kDominanceLanes);

  auto dsc = MakeJoinStrategy(JoinKind::kDominatedSetCover);
  auto nl = MakeJoinStrategy(JoinKind::kNestedLoop);
  dsc->SetQueries(queries);
  dsc->SetNumStreams(1);
  nl->SetQueries(queries);
  nl->SetNumStreams(1);
  const obs::Counter batches = DominanceBatchCounter(ActiveDominanceIsa());
  // Feeds both strategies; returns DSC's counters for this update alone.
  auto update = [&](VertexId v, const Npv& npv) {
    obs::MetricSink sink;
    {
      obs::ScopedObsContext scope(&sink, nullptr);
      dsc->UpdateStreamVertex(0, v, npv);
      dsc->CandidatesForStream(0);  // Flushes the pending counters.
    }
    nl->UpdateStreamVertex(0, v, npv);
    dsc->CheckChurnInvariants();
    EXPECT_EQ(dsc->CandidatesForStream(0), nl->CandidatesForStream(0))
        << "vertex " << v;
    return sink;
  };

  const obs::MetricSink walked = update(0, small);
  const obs::MetricSink seeded = update(1, large);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(walked.Value(obs::Counter::kJoinSetCoverRounds), 1);
    EXPECT_EQ(walked.Value(batches), 0);
    EXPECT_EQ(walked.Value(obs::Counter::kJoinSetCoverToggles), 1);
    EXPECT_EQ(seeded.Value(obs::Counter::kJoinSetCoverRounds), 0);
    EXPECT_EQ(seeded.Value(batches), 1);
    EXPECT_EQ(seeded.Value(obs::Counter::kJoinSetCoverToggles), 8);
  }
  // Incremental moves from either kind of row, then the swap back.
  update(0, large);
  update(1, small);
  update(0, Npv::FromMap({{1, 2}, {3, 1}}));
  update(1, Npv::FromMap({{0, 3}, {1, 1}, {6, 2}}));
  update(1, Npv{});
  update(1, large);
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
