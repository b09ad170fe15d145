// Differential query-churn battery: the slotted AddQueryDynamic /
// RemoveQueryDynamic lifecycle must be observationally equivalent to a
// freshly built engine over the surviving query set — per strategy, per
// engine (sequential and threaded), at every timestamp, including
// bit-identical re-adds into reused slots and a query that introduces new
// dimensions mid-run. The churn-oracle in the fuzzer (oracle 6)
// extends this with randomized schedules; this file pins the deterministic
// corners.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "gsps/common/random.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/gen/query_extractor.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/graph/graph.h"
#include "gsps/graph/graph_change.h"
#include "gsps/join/join_strategy.h"

namespace gsps {
namespace {

constexpr JoinKind kAllKinds[] = {
    JoinKind::kNestedLoop,
    JoinKind::kDominatedSetCover,
    JoinKind::kSkylineEarlyStop,
};

struct ChurnData {
  StreamDataset dataset;
  std::vector<Graph> queries;
  int horizon = 0;
};

ChurnData MakeChurnData(uint64_t seed) {
  ChurnData data;
  SyntheticStreamParams params;
  params.num_pairs = 3;
  params.avg_graph_edges = 10;
  params.evolution.num_timestamps = 12;
  params.seed = seed;
  data.dataset = MakeSyntheticStreams(params);
  data.horizon = params.evolution.num_timestamps;
  std::vector<Graph> starts;
  for (const GraphStream& s : data.dataset.streams) {
    starts.push_back(s.StartGraph());
  }
  Rng rng(seed + 1);
  data.queries = ExtractQuerySet(starts, 4, 4, rng);
  return data;
}

// A query over labels the synthetic generator never emits: registering it
// dynamically is guaranteed to bring dims no earlier query used.
Graph FreshLabelQuery() {
  Graph g;
  g.EnsureVertex(0, 91);
  g.EnsureVertex(1, 92);
  g.EnsureVertex(2, 93);
  g.AddEdge(0, 1, 94);
  g.AddEdge(1, 2, 95);
  return g;
}

// Referee: a brand-new sequential engine that knew exactly the surviving
// queries from the start, replayed to timestamp `t`. Returns per-stream
// candidate lists in engine-id space (`active` indexed by engine id;
// nullopt marks a retired slot).
std::vector<std::vector<int>> FreshEngineCandidates(
    const EngineOptions& options, const ChurnData& data,
    const std::vector<std::optional<Graph>>& active, int t) {
  ContinuousQueryEngine fresh(options);
  std::vector<int> fresh_to_engine;
  for (size_t id = 0; id < active.size(); ++id) {
    if (!active[id].has_value()) continue;
    fresh.AddQuery(*active[id]);
    fresh_to_engine.push_back(static_cast<int>(id));
  }
  for (const GraphStream& s : data.dataset.streams) {
    fresh.AddStream(s.StartGraph());
  }
  fresh.Start();
  for (int step = 1; step <= t; ++step) {
    for (size_t i = 0; i < data.dataset.streams.size(); ++i) {
      fresh.ApplyChange(static_cast<int>(i),
                        data.dataset.streams[i].ChangeAt(step));
    }
  }
  std::vector<std::vector<int>> per_stream(data.dataset.streams.size());
  for (int i = 0; i < fresh.num_streams(); ++i) {
    for (const int local : fresh.CandidatesForStream(i)) {
      per_stream[static_cast<size_t>(i)].push_back(
          fresh_to_engine[static_cast<size_t>(local)]);
    }
  }
  return per_stream;
}

class ChurnDifferentialTest : public ::testing::TestWithParam<JoinKind> {};

TEST_P(ChurnDifferentialTest, ChurnedEnginesMatchFreshBuildsAtEveryTimestamp) {
  const ChurnData data = MakeChurnData(2026);
  ASSERT_GE(data.queries.size(), 3u);

  EngineOptions options;
  options.join_kind = GetParam();
  ContinuousQueryEngine seq(options);
  PipelinedEngineOptions popt;
  popt.engine = options;
  popt.num_threads = 2;
  PipelinedQueryEngine par(popt);

  // active[engine_id] — the graph occupying that slot, nullopt if retired.
  std::vector<std::optional<Graph>> active;
  for (int j = 0; j < 2; ++j) {
    seq.AddQuery(data.queries[static_cast<size_t>(j)]);
    par.AddQuery(data.queries[static_cast<size_t>(j)]);
    active.emplace_back(data.queries[static_cast<size_t>(j)]);
  }
  for (const GraphStream& s : data.dataset.streams) {
    seq.AddStream(s.StartGraph());
    par.AddStream(s.StartGraph());
  }
  seq.Start();
  par.Start();

  // Both engines churn in lock-step and must agree on slot assignment.
  auto add = [&](const Graph& g) {
    const int id = seq.AddQueryDynamic(g);
    EXPECT_EQ(par.AddQueryDynamic(g), id);
    if (static_cast<size_t>(id) == active.size()) {
      active.emplace_back(g);
    } else {
      active[static_cast<size_t>(id)] = g;
    }
    return id;
  };
  auto remove = [&](int id) {
    seq.RemoveQueryDynamic(id);
    par.RemoveQueryDynamic(id);
    active[static_cast<size_t>(id)].reset();
  };

  for (int t = 1; t < data.horizon; ++t) {
    for (size_t i = 0; i < data.dataset.streams.size(); ++i) {
      const GraphChange& change = data.dataset.streams[i].ChangeAt(t);
      seq.ApplyChange(static_cast<int>(i), change);
      IngestEvent event;
      event.stream = static_cast<int32_t>(i);
      event.timestamp = t;
      event.change = change;
      ASSERT_TRUE(par.Ingest(std::move(event)));
    }

    // The churn schedule (the threaded engine applies each op after this
    // timestamp's data, like the sequential one): grow, retire,
    // bit-identical re-add into the reused slot, a new-dimension query
    // mid-run, then churn on slot 0.
    switch (t) {
      case 3:
        add(data.queries[2]);
        break;
      case 5:
        remove(1);
        break;
      case 7:
        EXPECT_EQ(add(data.queries[1]), 1);  // Reuses the retired slot.
        break;
      case 8:
        add(FreshLabelQuery());  // Brings new dims: a replay.
        break;
      case 10:
        remove(0);
        break;
      case 11:
        EXPECT_EQ(add(data.queries[0]), 0);
        break;
      default:
        break;
    }
    par.AdvanceEpoch(t);  // Snapshot reads below are as of t.

    seq.CheckChurnInvariants();
    par.CheckChurnInvariants();
    const std::vector<std::vector<int>> expected =
        FreshEngineCandidates(options, data, active, t);
    for (int i = 0; i < seq.num_streams(); ++i) {
      EXPECT_EQ(seq.CandidatesForStream(i), expected[static_cast<size_t>(i)])
          << "sequential, t=" << t << " stream=" << i;
      EXPECT_EQ(par.CandidatesForStream(i), expected[static_cast<size_t>(i)])
          << "threaded, t=" << t << " stream=" << i;
      EXPECT_EQ(seq.RecomputeCandidatesFromScratch(i),
                expected[static_cast<size_t>(i)])
          << "scratch referee, t=" << t << " stream=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ChurnDifferentialTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const ::testing::TestParamInfo<JoinKind>& info) {
                           return std::string(JoinKindName(info.param));
                         });

TEST(ChurnSlotReuseTest, IdenticalReaddRestoresTheExactCandidates) {
  const ChurnData data = MakeChurnData(7);
  ASSERT_GE(data.queries.size(), 3u);
  for (const JoinKind kind : kAllKinds) {
    EngineOptions options;
    options.join_kind = kind;
    ContinuousQueryEngine engine(options);
    for (const Graph& q : data.queries) engine.AddQuery(q);
    for (const GraphStream& s : data.dataset.streams) {
      engine.AddStream(s.StartGraph());
    }
    engine.Start();
    for (int t = 1; t < 6; ++t) {
      for (size_t i = 0; i < data.dataset.streams.size(); ++i) {
        engine.ApplyChange(static_cast<int>(i),
                           data.dataset.streams[i].ChangeAt(t));
      }
    }
    std::vector<std::vector<int>> before(
        static_cast<size_t>(engine.num_streams()));
    for (int i = 0; i < engine.num_streams(); ++i) {
      before[static_cast<size_t>(i)] = engine.CandidatesForStream(i);
    }

    engine.RemoveQueryDynamic(1);
    ASSERT_TRUE(engine.IsQueryRetired(1));
    ASSERT_EQ(engine.num_active_queries(),
              static_cast<int>(data.queries.size()) - 1);
    ASSERT_EQ(engine.AddQueryDynamic(data.queries[1]), 1);
    ASSERT_FALSE(engine.IsQueryRetired(1));
    engine.CheckChurnInvariants();

    for (int i = 0; i < engine.num_streams(); ++i) {
      EXPECT_EQ(engine.CandidatesForStream(i), before[static_cast<size_t>(i)])
          << JoinKindName(kind) << " stream=" << i;
    }
  }
}

TEST(ChurnGuardTest, SequentialRemoveRejectsBadIds) {
  const ChurnData data = MakeChurnData(11);
  ContinuousQueryEngine engine(EngineOptions{});
  engine.AddQuery(data.queries[0]);
  engine.AddStream(data.dataset.streams[0].StartGraph());
  engine.Start();
  EXPECT_DEATH(engine.RemoveQueryDynamic(-1), "out of range");
  EXPECT_DEATH(engine.RemoveQueryDynamic(5), "out of range");
  engine.RemoveQueryDynamic(0);
  EXPECT_DEATH(engine.RemoveQueryDynamic(0), "already removed");
}

TEST(ChurnGuardTest, ParallelRemoveRejectsBadIds) {
  // The engine's worker threads are live, so fork-based death tests must
  // re-exec.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ChurnData data = MakeChurnData(13);
  PipelinedEngineOptions popt;
  popt.num_threads = 2;
  PipelinedQueryEngine engine(popt);
  engine.AddQuery(data.queries[0]);
  for (const GraphStream& s : data.dataset.streams) {
    engine.AddStream(s.StartGraph());
  }
  engine.Start();
  EXPECT_DEATH(engine.RemoveQueryDynamic(3), "out of range");
  engine.RemoveQueryDynamic(0);
  EXPECT_DEATH(engine.RemoveQueryDynamic(0), "already removed");
}

}  // namespace
}  // namespace gsps
