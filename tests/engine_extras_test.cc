// Tests for the engine's companion utilities: candidate-transition tracking
// and the static-database (§V.A) filter, plus the dynamic-query equivalence
// property.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gsps/common/random.h"
#include "gsps/engine/candidate_tracker.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/gen/aids_like.h"
#include "gsps/gen/query_extractor.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/iso/subgraph_isomorphism.h"

namespace gsps {
namespace {

TEST(CandidateTrackerTest, FirstObservationIsAllAppeared) {
  CandidateTracker tracker(2);
  const CandidateTransitions t = tracker.Observe(0, {1, 3, 5});
  EXPECT_EQ(t.appeared, (std::vector<int>{1, 3, 5}));
  EXPECT_TRUE(t.disappeared.empty());
  EXPECT_EQ(tracker.LastObserved(0), (std::vector<int>{1, 3, 5}));
  EXPECT_TRUE(tracker.LastObserved(1).empty());
}

TEST(CandidateTrackerTest, DiffsAreExact) {
  CandidateTracker tracker(1);
  tracker.Observe(0, {1, 2, 4, 7});
  const CandidateTransitions t = tracker.Observe(0, {2, 3, 7, 9});
  EXPECT_EQ(t.appeared, (std::vector<int>{3, 9}));
  EXPECT_EQ(t.disappeared, (std::vector<int>{1, 4}));
}

TEST(CandidateTrackerTest, NoChangeIsEmpty) {
  CandidateTracker tracker(1);
  tracker.Observe(0, {2, 5});
  const CandidateTransitions t = tracker.Observe(0, {2, 5});
  EXPECT_TRUE(t.empty());
}

TEST(CandidateTrackerTest, StreamsAreIndependent) {
  CandidateTracker tracker(2);
  tracker.Observe(0, {1});
  const CandidateTransitions t = tracker.Observe(1, {1});
  EXPECT_EQ(t.appeared, std::vector<int>{1});
}

TEST(CandidateTrackerTest, TracksEngineTransitions) {
  // Drive an engine and assert transitions reconstruct the candidate sets.
  SyntheticStreamParams params;
  params.num_pairs = 3;
  params.avg_graph_edges = 10;
  params.evolution.num_timestamps = 15;
  params.seed = 42;
  const StreamDataset dataset = MakeSyntheticStreams(params);
  Rng rng(6);
  std::vector<Graph> starts;
  for (const GraphStream& s : dataset.streams) starts.push_back(s.StartGraph());
  const std::vector<Graph> queries = ExtractQuerySet(starts, 3, 4, rng);
  ASSERT_FALSE(queries.empty());

  ContinuousQueryEngine engine(EngineOptions{});
  for (const Graph& q : queries) engine.AddQuery(q);
  for (const GraphStream& s : dataset.streams) engine.AddStream(s.StartGraph());
  engine.Start();

  CandidateTracker tracker(engine.num_streams());
  int64_t total_events = 0;
  for (int t = 0; t < params.evolution.num_timestamps; ++t) {
    if (t > 0) {
      for (size_t i = 0; i < dataset.streams.size(); ++i) {
        engine.ApplyChange(static_cast<int>(i), dataset.streams[i].ChangeAt(t));
      }
    }
    for (int i = 0; i < engine.num_streams(); ++i) {
      const std::vector<int> current = engine.CandidatesForStream(i);
      const CandidateTransitions events = tracker.Observe(i, current);
      total_events += static_cast<int64_t>(events.appeared.size() +
                                           events.disappeared.size());
      EXPECT_EQ(tracker.LastObserved(i), current);
    }
  }
  // The workload must actually produce transitions to be meaningful.
  EXPECT_GT(total_events, 0);
}

TEST(StaticNpvIndexTest, NoFalseNegativesAndVerifiedSubset) {
  // The static setting through the streaming engine: every database graph
  // is a stream with no changes, so the candidates after Start() are the
  // Lemma 4.2 filter over the database.
  AidsLikeParams params;
  params.num_graphs = 60;
  params.seed = 17;
  const std::vector<Graph> database = MakeAidsLikeDataset(params);
  Rng rng(18);
  const std::vector<Graph> queries = ExtractQuerySet(database, 5, 10, rng);
  ASSERT_FALSE(queries.empty());

  ContinuousQueryEngine engine(EngineOptions{});
  for (const Graph& query : queries) engine.AddQuery(query);
  for (const Graph& graph : database) engine.AddStream(graph);
  engine.Start();
  ASSERT_EQ(engine.num_streams(), 60);
  for (int i = 0; i < engine.num_streams(); ++i) {
    const std::vector<int> candidates = engine.CandidatesForStream(i);
    for (int q = 0; q < static_cast<int>(queries.size()); ++q) {
      const bool exact = IsSubgraphIsomorphic(queries[static_cast<size_t>(q)],
                                              database[static_cast<size_t>(i)]);
      EXPECT_EQ(engine.VerifyCandidate(i, q), exact);
      if (exact) {
        EXPECT_TRUE(
            std::binary_search(candidates.begin(), candidates.end(), q));
      }
    }
  }
}

TEST(DynamicQueryEquivalenceTest, MatchesEngineBuiltWithAllQueriesUpfront) {
  // Adding queries dynamically must yield the same candidates as an engine
  // that knew them from the start, at every subsequent timestamp.
  SyntheticStreamParams params;
  params.num_pairs = 2;
  params.avg_graph_edges = 10;
  params.evolution.num_timestamps = 12;
  params.seed = 91;
  const StreamDataset dataset = MakeSyntheticStreams(params);
  Rng rng(9);
  std::vector<Graph> starts;
  for (const GraphStream& s : dataset.streams) starts.push_back(s.StartGraph());
  const std::vector<Graph> queries = ExtractQuerySet(starts, 3, 4, rng);
  ASSERT_GE(queries.size(), 3u);

  EngineOptions options;
  ContinuousQueryEngine dynamic(options);
  ContinuousQueryEngine upfront(options);
  // `dynamic` starts with the first query only; the rest arrive at t=4.
  dynamic.AddQuery(queries[0]);
  for (const Graph& q : queries) upfront.AddQuery(q);
  for (const GraphStream& s : dataset.streams) {
    dynamic.AddStream(s.StartGraph());
    upfront.AddStream(s.StartGraph());
  }
  dynamic.Start();
  upfront.Start();

  for (int t = 1; t < params.evolution.num_timestamps; ++t) {
    for (size_t i = 0; i < dataset.streams.size(); ++i) {
      dynamic.ApplyChange(static_cast<int>(i), dataset.streams[i].ChangeAt(t));
      upfront.ApplyChange(static_cast<int>(i), dataset.streams[i].ChangeAt(t));
    }
    if (t == 4) {
      for (size_t j = 1; j < queries.size(); ++j) {
        const int id = dynamic.AddQueryDynamic(queries[j]);
        EXPECT_EQ(id, static_cast<int>(j));
      }
    }
    if (t >= 4) {
      for (int i = 0; i < dynamic.num_streams(); ++i) {
        EXPECT_EQ(dynamic.CandidatesForStream(i),
                  upfront.CandidatesForStream(i))
            << "t=" << t << " stream=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace gsps
