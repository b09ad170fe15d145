// Heap-allocation regression test for the NNT hot path: once capacities
// reach their high-water marks, a steady-state ApplyChange cycle (delete +
// reinsert + dirty flush through the default DominatedSetCover engine) must
// perform zero heap allocations.
//
// This binary links gsps_alloc_hook, which replaces the global operator
// new/delete with counting versions (see common/alloc_hook.h). The strict
// zero assertion only holds in Release builds without sanitizers: Debug
// assertions and sanitizer runtimes allocate on their own, so there the
// test still runs the loop (exercising the code path) but only reports.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "gsps/common/alloc_hook.h"
#include "gsps/common/random.h"
#include "gsps/engine/candidate_tracker.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/gen/synthetic_generator.h"
#include "gsps/graph/graph.h"
#include "gsps/graph/graph_change.h"
#include "gsps/join/join_strategy.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {
namespace {

// Strict zero only where the build leaves the allocator traffic to us.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__) && !defined(GSPS_SANITIZE_ENABLED)
constexpr bool kStrict = true;
#else
constexpr bool kStrict = false;
#endif

struct EdgeRec {
  VertexId u, v;
  EdgeLabel label;
};

std::vector<EdgeRec> EdgeList(const Graph& graph) {
  std::vector<EdgeRec> edges;
  for (const VertexId u : graph.VertexIds()) {
    for (const HalfEdge& half : graph.Neighbors(u)) {
      if (u < half.to) edges.push_back({u, half.to, half.label});
    }
  }
  return edges;
}

TEST(NntAllocTest, SteadyStateNntChurnAllocatesNothing) {
  Rng rng(11);
  Graph graph = RandomConnectedGraph(120, 4, 1, rng);
  const std::vector<EdgeRec> edges = EdgeList(graph);
  DimensionTable dims;
  NntSet nnts(3, &dims);
  nnts.Build(graph);

  std::vector<VertexId> dirty;
  auto toggle = [&](const EdgeRec& e) {
    nnts.DeleteEdge(e.u, e.v);
    graph.RemoveEdge(e.u, e.v);
    graph.AddEdge(e.u, e.v, e.label);
    nnts.InsertEdge(graph, e.u, e.v);
    nnts.TakeDirtyRoots(&dirty);
    for (const VertexId root : dirty) nnts.NpvOf(root);
  };

  // Warm up to the capacity high-water mark, then measure one full cycle
  // over every edge.
  for (int round = 0; round < 2; ++round) {
    for (const EdgeRec& e : edges) toggle(e);
  }
  const AllocMeter meter;
  for (const EdgeRec& e : edges) toggle(e);
  if (kStrict) {
    EXPECT_EQ(meter.allocs(), 0) << "NNT steady-state churn allocated";
    EXPECT_EQ(meter.frees(), 0);
  } else {
    std::fprintf(stderr,
                 "[ INFO     ] non-strict build: %lld allocs / %lld frees\n",
                 static_cast<long long>(meter.allocs()),
                 static_cast<long long>(meter.frees()));
  }
}

TEST(NntAllocTest, SteadyStateEngineApplyChangeAllocatesNothing) {
  Rng rng(23);
  Graph start = RandomConnectedGraph(80, 4, 1, rng);
  const std::vector<EdgeRec> edges = EdgeList(start);

  EngineOptions options;  // Default join: DominatedSetCover.
  ContinuousQueryEngine engine(options);
  Rng qrng(31);
  engine.AddQuery(RandomConnectedGraph(5, 4, 1, qrng));
  engine.AddQuery(RandomConnectedGraph(7, 4, 1, qrng));
  const int stream = engine.AddStream(std::move(start));
  engine.Start();

  // One ApplyChange toggles an edge off and back on (deletion sequenced
  // before insertion, exactly the engine protocol). Batches are prebuilt so
  // the meter sees only the engine's own work.
  std::vector<GraphChange> changes;
  for (const EdgeRec& e : edges) {
    GraphChange change;
    change.ops.push_back(EdgeOp::Delete(e.u, e.v));
    change.ops.push_back(
        EdgeOp::Insert(e.u, e.v, e.label,
                       engine.StreamGraph(stream).GetVertexLabel(e.u),
                       engine.StreamGraph(stream).GetVertexLabel(e.v)));
    changes.push_back(std::move(change));
  }

  for (int round = 0; round < 2; ++round) {
    for (const GraphChange& change : changes) engine.ApplyChange(stream, change);
  }
  const AllocMeter meter;
  for (const GraphChange& change : changes) engine.ApplyChange(stream, change);
  if (kStrict) {
    EXPECT_EQ(meter.allocs(), 0) << "engine steady-state churn allocated";
    EXPECT_EQ(meter.frees(), 0);
  } else {
    std::fprintf(stderr,
                 "[ INFO     ] non-strict build: %lld allocs / %lld frees\n",
                 static_cast<long long>(meter.allocs()),
                 static_cast<long long>(meter.frees()));
  }
}

// Steady-state delta + candidate refresh through every join strategy: once
// the per-stream join state reaches its high-water marks, ApplyChange plus a
// caller-buffer CandidatesForStream must not touch the heap.
TEST(JoinAllocTest, SteadyStateJoinRefreshAllocatesNothing) {
  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
        JoinKind::kSkylineEarlyStop}) {
    SCOPED_TRACE(JoinKindName(kind));
    Rng rng(41);
    Graph start = RandomConnectedGraph(60, 4, 1, rng);
    const std::vector<EdgeRec> edges = EdgeList(start);

    EngineOptions options;
    options.join_kind = kind;
    ContinuousQueryEngine engine(options);
    Rng qrng(43);
    engine.AddQuery(RandomConnectedGraph(5, 4, 1, qrng));
    engine.AddQuery(RandomConnectedGraph(7, 4, 1, qrng));
    engine.AddQuery(RandomConnectedGraph(4, 4, 1, qrng));
    const int stream = engine.AddStream(std::move(start));
    engine.Start();

    std::vector<GraphChange> changes;
    for (const EdgeRec& e : edges) {
      GraphChange change;
      change.ops.push_back(EdgeOp::Delete(e.u, e.v));
      change.ops.push_back(
          EdgeOp::Insert(e.u, e.v, e.label,
                         engine.StreamGraph(stream).GetVertexLabel(e.u),
                         engine.StreamGraph(stream).GetVertexLabel(e.v)));
      changes.push_back(std::move(change));
    }

    std::vector<int> candidates;
    auto cycle = [&](const GraphChange& change) {
      engine.ApplyChange(stream, change);
      engine.CandidatesForStream(stream, &candidates);
    };
    for (int round = 0; round < 2; ++round) {
      for (const GraphChange& change : changes) cycle(change);
    }
    const AllocMeter meter;
    for (const GraphChange& change : changes) cycle(change);
    if (kStrict) {
      EXPECT_EQ(meter.allocs(), 0)
          << JoinKindName(kind) << " steady-state join refresh allocated";
      EXPECT_EQ(meter.frees(), 0);
    } else {
      std::fprintf(stderr,
                   "[ INFO     ] non-strict build (%.*s): %lld allocs / %lld "
                   "frees\n",
                   static_cast<int>(JoinKindName(kind).size()),
                   JoinKindName(kind).data(),
                   static_cast<long long>(meter.allocs()),
                   static_cast<long long>(meter.frees()));
    }
  }
}

// The swap-based CandidateTracker::Observe overload: the monitoring loop
// (refill buffer, observe, alert on transitions) must be allocation-free
// once both buffers are at capacity.
TEST(JoinAllocTest, SwapObserveAllocatesNothing) {
  CandidateTracker tracker(1);
  CandidateTransitions transitions;
  std::vector<int> current;

  auto observe = [&](int phase) {
    current.clear();
    // Alternate between two overlapping candidate sets so both appeared and
    // disappeared stay exercised.
    if (phase == 0) {
      current.assign({0, 2, 4, 6});
    } else {
      current.assign({0, 3, 4, 7});
    }
    tracker.Observe(0, &current, &transitions);
  };
  for (int round = 0; round < 4; ++round) observe(round % 2);
  const AllocMeter meter;
  for (int round = 0; round < 64; ++round) observe(round % 2);
  if (kStrict) {
    EXPECT_EQ(meter.allocs(), 0) << "swap-based Observe allocated";
    EXPECT_EQ(meter.frees(), 0);
  } else {
    std::fprintf(stderr,
                 "[ INFO     ] non-strict build: %lld allocs / %lld frees\n",
                 static_cast<long long>(meter.allocs()),
                 static_cast<long long>(meter.frees()));
  }
}

}  // namespace
}  // namespace gsps
