// Churn soak (slow label): ≥10k interleaved add/remove/stream-change ops
// across all three strategies, with the full invariant battery asserted
// periodically — strategy churn invariants (including the slab's
// kernel-layout contract), NNT Validate against the live graph, and the
// cached candidates against the from-scratch referee. The second test pins
// the zero-steady-state-allocation guarantee: once capacities are warm,
// remove + bit-identical re-add of a query must not touch the heap (this
// binary links gsps_alloc_hook; the strict zero holds in Release builds
// without sanitizers, as in nnt_alloc_test).

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "gsps/common/alloc_hook.h"
#include "gsps/common/random.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/gen/query_extractor.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/gen/synthetic_generator.h"
#include "gsps/graph/graph.h"
#include "gsps/join/dominance.h"
#include "gsps/join/join_strategy.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {
namespace {

#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__) && !defined(GSPS_SANITIZE_ENABLED)
constexpr bool kStrict = true;
#else
constexpr bool kStrict = false;
#endif

constexpr JoinKind kAllKinds[] = {
    JoinKind::kNestedLoop,
    JoinKind::kDominatedSetCover,
    JoinKind::kSkylineEarlyStop,
};

// A query over labels the synthetic generator never emits; `salt` varies
// the dim set so repeated adds keep bringing new dims.
Graph FreshLabelQuery(int salt) {
  Graph g;
  g.EnsureVertex(0, 90 + 2 * salt);
  g.EnsureVertex(1, 91 + 2 * salt);
  g.AddEdge(0, 1, 80 + salt);
  return g;
}

TEST(ChurnSoakTest, TenThousandOpsKeepEveryInvariant) {
  SyntheticStreamParams params;
  params.num_pairs = 2;
  params.avg_graph_edges = 12;
  params.evolution.num_timestamps = 30;
  params.seed = 404;
  const StreamDataset dataset = MakeSyntheticStreams(params);
  std::vector<Graph> starts;
  for (const GraphStream& s : dataset.streams) starts.push_back(s.StartGraph());
  Rng qrng(405);
  std::vector<Graph> pool = ExtractQuerySet(starts, 5, 4, qrng);
  ASSERT_GE(pool.size(), 3u);
  for (int salt = 0; salt < 3; ++salt) pool.push_back(FreshLabelQuery(salt));

  int64_t total_ops = 0;
  for (const JoinKind kind : kAllKinds) {
    EngineOptions options;
    options.join_kind = kind;
    ContinuousQueryEngine engine(options);
    std::vector<int> live;
    for (int j = 0; j < 3; ++j) {
      live.push_back(engine.AddQuery(pool[static_cast<size_t>(j)]));
    }
    for (const GraphStream& s : dataset.streams) {
      engine.AddStream(s.StartGraph());
    }
    engine.Start();

    Rng rng(1000 + static_cast<uint64_t>(kind));
    int step = 0;
    for (int op = 0; op < 3500; ++op, ++total_ops) {
      if (op % 8 == 0) {
        const int t = 1 + step++ % (params.evolution.num_timestamps - 1);
        for (size_t i = 0; i < dataset.streams.size(); ++i) {
          engine.ApplyChange(static_cast<int>(i),
                             dataset.streams[i].ChangeAt(t));
        }
      }
      const bool add = live.size() < 4 ||
                       (live.size() < 10 && rng.UniformInt(0, 1) == 0);
      if (add) {
        const Graph& g =
            pool[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(pool.size()) - 1))];
        live.push_back(engine.AddQueryDynamic(g));
      } else {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        engine.RemoveQueryDynamic(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
      if ((op + 1) % 500 == 0) {
        engine.CheckChurnInvariants();
        ASSERT_EQ(engine.num_active_queries(), static_cast<int>(live.size()));
        for (int i = 0; i < engine.num_streams(); ++i) {
          ASSERT_TRUE(
              engine.StreamNnts(i).Validate(engine.StreamGraph(i)))
              << JoinKindName(kind) << " op=" << op << " stream=" << i;
          ASSERT_EQ(engine.CandidatesForStream(i),
                    engine.RecomputeCandidatesFromScratch(i))
              << JoinKindName(kind) << " op=" << op << " stream=" << i;
        }
      }
    }
    engine.CheckChurnInvariants();
  }
  EXPECT_GE(total_ops, 10000);
}

TEST(ChurnSoakTest, SteadyStateRemoveReaddAllocatesNothing) {
  for (const JoinKind kind : kAllKinds) {
    DimensionTable dims;
    Rng rng(77);
    std::vector<QueryVectors> qvecs;
    for (int j = 0; j < 16; ++j) {
      const Graph g = RandomConnectedGraph(5, 4, 2, rng);
      NntSet nnts(3, &dims);
      nnts.Build(g);
      qvecs.push_back(BuildQueryVectors(nnts));
    }
    std::unique_ptr<JoinStrategy> strategy = MakeJoinStrategy(kind);
    strategy->SetQueries(qvecs);
    strategy->SetNumStreams(1);
    Graph stream_graph = RandomConnectedGraph(60, 4, 2, rng);
    NntSet stream_nnts(3, &dims);
    stream_nnts.Build(stream_graph);
    for (const VertexId root : stream_nnts.Roots()) {
      strategy->UpdateStreamVertex(0, root, stream_nnts.NpvOf(root));
    }

    // Warm every slot and scratch buffer to its high-water mark: one full
    // remove + re-add cycle over each query.
    std::vector<int> cands;
    bool grew = false;
    const int nq = static_cast<int>(qvecs.size());
    for (int j = 0; j < nq; ++j) {
      strategy->RemoveQuery(j);
      strategy->AddQuery(j, qvecs[static_cast<size_t>(j)], &grew);
      ASSERT_FALSE(grew);  // Every dim is already flagged.
      strategy->CandidatesForStream(0, &cands);
    }

    const AllocMeter meter;
    for (int op = 0; op < 10000; ++op) {
      const int j = op % nq;
      strategy->RemoveQuery(j);
      strategy->AddQuery(j, qvecs[static_cast<size_t>(j)], &grew);
      ASSERT_FALSE(grew);
      strategy->CandidatesForStream(0, &cands);
    }
    if (kStrict) {
      EXPECT_EQ(meter.allocs(), 0)
          << JoinKindName(kind) << " steady-state churn allocated";
      EXPECT_EQ(meter.frees(), 0) << JoinKindName(kind);
    } else {
      std::fprintf(stderr,
                   "[ INFO     ] %s non-strict build: %lld allocs / %lld "
                   "frees over 10k churn ops\n",
                   std::string(JoinKindName(kind)).c_str(),
                   static_cast<long long>(meter.allocs()),
                   static_cast<long long>(meter.frees()));
    }
    strategy->CheckChurnInvariants();
  }
}

}  // namespace
}  // namespace gsps
