// Tests for the threaded (pipelined) engine and its building blocks.
//
// The load-bearing property is output equivalence: at every epoch
// boundary, PipelinedQueryEngine must produce byte-identical candidate
// pairs (and transitions) to ContinuousQueryEngine on the same inputs, for
// every join strategy and worker count (1-12, spanning fewer and more
// workers than streams) — including when timestamp batches arrive split
// into fragments that the worker-side coalescer must merge, when lanes are
// sized down to capacity 1 (full backpressure), and across dynamic query
// churn with data in flight. SpscLane, PlanShardAssignment and the
// per-shard stats merge get their own unit coverage, and the threaded
// tests are part of the TSan CI job's payload. The lockstep schedule
// (whole batches, an epoch per timestamp) and the no-false-negative check
// live in parallel_engine_test.cc.

#include "gsps/engine/pipelined_query_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gsps/engine/continuous_query_engine.h"
#include "gsps/engine/ingest_audit.h"
#include "gsps/engine/ingest_queue.h"
#include "gsps/engine/shard_assignment.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/graph/graph_change.h"

namespace gsps {
namespace {

// --- SpscLane --------------------------------------------------------------

IngestEvent DataEvent(int32_t stream, int32_t timestamp) {
  IngestEvent event;
  event.stream = stream;
  event.timestamp = timestamp;
  return event;
}

TEST(SpscLaneTest, FifoOrderAndStats) {
  SpscLane lane(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(lane.Push(DataEvent(0, i + 1)));
  EXPECT_EQ(lane.size(), 5u);
  IngestEvent event;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(lane.Pop(&event));
    EXPECT_EQ(event.timestamp, i + 1);
  }
  lane.Close();
  EXPECT_FALSE(lane.Pop(&event));
  const IngestQueueStats stats = lane.Stats();
  EXPECT_EQ(stats.accepted, 5);
  EXPECT_EQ(stats.delivered, 5);
  EXPECT_EQ(stats.depth_high_water, 5);
}

TEST(SpscLaneTest, PopBatchDrainsInOrder) {
  SpscLane lane(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(lane.Push(DataEvent(0, i)));
  std::vector<IngestEvent> batch;
  EXPECT_EQ(lane.PopBatch(&batch, 4), 4u);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.front().timestamp, 0);
  EXPECT_EQ(batch.back().timestamp, 3);
  EXPECT_EQ(lane.PopBatch(&batch, 100), 6u);
  EXPECT_EQ(batch.front().timestamp, 4);
  EXPECT_EQ(batch.back().timestamp, 9);
}

TEST(SpscLaneTest, CloseDrainsRemainingEvents) {
  SpscLane lane(4);
  ASSERT_TRUE(lane.Push(DataEvent(0, 1)));
  ASSERT_TRUE(lane.Push(DataEvent(0, 2)));
  lane.Close();
  EXPECT_FALSE(lane.Push(DataEvent(0, 3)));
  IngestEvent event;
  EXPECT_TRUE(lane.Pop(&event));
  EXPECT_TRUE(lane.Pop(&event));
  EXPECT_FALSE(lane.Pop(&event));
  EXPECT_EQ(lane.Stats().accepted, 2);
  EXPECT_EQ(lane.Stats().delivered, 2);
}

TEST(SpscLaneTest, KeepStampSurvivesForwarding) {
  SpscLane lane(2);
  IngestEvent stamped = DataEvent(0, 1);
  stamped.enqueue_micros = 12345;
  stamped.keep_stamp = true;
  ASSERT_TRUE(lane.Push(std::move(stamped)));
  IngestEvent fresh = DataEvent(0, 2);  // keep_stamp false: Push restamps.
  fresh.enqueue_micros = -777;  // A restamp (>= 0) must replace this.
  ASSERT_TRUE(lane.Push(std::move(fresh)));
  IngestEvent event;
  ASSERT_TRUE(lane.Pop(&event));
  EXPECT_EQ(event.enqueue_micros, 12345);
  ASSERT_TRUE(lane.Pop(&event));
  EXPECT_GE(event.enqueue_micros, 0);
}

TEST(SpscLaneTest, BackpressureBlocksProducerUntilPop) {
  SpscLane lane(1);
  ASSERT_TRUE(lane.Push(DataEvent(0, 1)));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(lane.Push(DataEvent(0, 2)));
    second_pushed.store(true);
  });
  // producer_waits is bumped before the blocking wait, so spinning on it
  // guarantees the producer actually observed a full lane.
  while (lane.Stats().producer_waits < 1) std::this_thread::yield();
  EXPECT_FALSE(second_pushed.load());
  IngestEvent event;
  ASSERT_TRUE(lane.Pop(&event));
  EXPECT_EQ(event.timestamp, 1);
  ASSERT_TRUE(lane.Pop(&event));
  EXPECT_EQ(event.timestamp, 2);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

// TSan payload: a small lane hammered from both ends. Order and
// losslessness are asserted; the interesting part is the data-race-free
// handoff of the slot contents under wraparound and sleep/wake cycles.
TEST(SpscLaneStressTest, ThreadedProducerConsumerIsLosslessAndOrdered) {
  constexpr int kEvents = 20000;
  SpscLane lane(7);  // Non-power-of-two to exercise the modulo wrap.
  std::thread producer([&] {
    for (int i = 0; i < kEvents; ++i) {
      ASSERT_TRUE(lane.Push(DataEvent(i % 3, i)));
    }
    lane.Close();
  });
  std::vector<IngestEvent> batch;
  int expected = 0;
  while (lane.PopBatch(&batch, 64) > 0) {
    for (const IngestEvent& event : batch) {
      ASSERT_EQ(event.timestamp, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(expected, kEvents);
  EXPECT_EQ(lane.Stats().accepted, kEvents);
  EXPECT_EQ(lane.Stats().delivered, kEvents);
}

// --- IngestOrderAudit ------------------------------------------------------

TEST(IngestOrderAuditTest, CountsGapsAndResyncs) {
  IngestOrderAudit audit;
  audit.Reset(2);
  EXPECT_TRUE(audit.ObserveInOrder(0, 1));
  EXPECT_TRUE(audit.ObserveInOrder(0, 2));
  EXPECT_TRUE(audit.ObserveInOrder(1, 1));
  EXPECT_FALSE(audit.ObserveInOrder(0, 5));  // Gap: expected 3.
  EXPECT_TRUE(audit.ObserveInOrder(0, 6));   // Resynced.
  EXPECT_FALSE(audit.ObserveInOrder(1, 1));  // Replay: expected 2.
  EXPECT_EQ(audit.violations(), 2);
}

// --- PlanShardAssignment ---------------------------------------------------

TEST(ShardAssignmentTest, LptBalancesSkewedWeights) {
  // One giant stream plus small ones: an interleave would put the giant
  // and half the rest on shard 0 (120 vs 30); LPT gives the giant its own
  // shard (100 vs 50).
  const std::vector<int64_t> weights = {100, 10, 10, 10, 10, 10};
  const ShardPlan lpt = PlanShardAssignment(weights, 2);
  EXPECT_DOUBLE_EQ(lpt.imbalance_ratio, 100.0 * 2 / 150.0);
  // Giant alone on its shard; every lighter stream lands on the other.
  const int giant_shard = lpt.stream_to_shard[0];
  for (int i = 1; i < 6; ++i) {
    EXPECT_NE(lpt.stream_to_shard[static_cast<size_t>(i)], giant_shard);
  }
  // Local indices stay ascending by global id within each shard.
  for (const auto& streams : lpt.shard_streams) {
    EXPECT_TRUE(std::is_sorted(streams.begin(), streams.end()));
  }
}

TEST(ShardAssignmentTest, LptIsDeterministicUnderTies) {
  const std::vector<int64_t> weights = {3, 3, 3, 3};
  const ShardPlan a = PlanShardAssignment(weights, 2);
  const ShardPlan b = PlanShardAssignment(weights, 2);
  EXPECT_EQ(a.stream_to_shard, b.stream_to_shard);
  EXPECT_EQ(a.stream_to_local, b.stream_to_local);
  EXPECT_DOUBLE_EQ(a.imbalance_ratio, 1.0);
}

// --- Equivalence with the sequential engine --------------------------------

struct Workload {
  std::vector<Graph> queries;
  std::vector<GraphStream> streams;
};

Workload RandomWorkload(int num_streams, int num_timestamps, uint64_t seed) {
  SyntheticStreamParams params;
  params.num_pairs = num_streams;
  params.evolution.num_timestamps = num_timestamps;
  params.evolution.p_appear = 0.25;
  params.evolution.p_disappear = 0.2;
  params.evolution.extra_pair_fraction = 3.0;
  params.seed = seed;
  StreamDataset dataset = MakeSyntheticStreams(params);
  return Workload{std::move(dataset.queries), std::move(dataset.streams)};
}

int Horizon(const Workload& workload) {
  int horizon = 0;
  for (const GraphStream& s : workload.streams) {
    horizon = std::max(horizon, s.NumTimestamps());
  }
  return horizon;
}

// Pushes one stream's timestamp batch as `fragments` events so the worker
// must coalesce them back into one batch before NNT maintenance.
void IngestSplit(PipelinedQueryEngine& engine, int stream, int timestamp,
                 const GraphChange& change, int fragments) {
  const size_t n = change.ops.size();
  const size_t per = n / static_cast<size_t>(fragments) + 1;
  size_t begin = 0;
  for (int f = 0; f < fragments; ++f) {
    const size_t end = std::min(n, begin + per);
    IngestEvent event;
    event.stream = stream;
    event.timestamp = timestamp;
    event.change.ops.assign(change.ops.begin() + begin,
                            change.ops.begin() + end);
    ASSERT_TRUE(engine.Ingest(std::move(event)));
    begin = end;
  }
}

// Runs both engines over the workload and asserts identical candidate
// pairs AND transitions at every epoch.
void ExpectEquivalent(const Workload& workload, JoinKind kind,
                      int num_threads, size_t lane_capacity, int fragments) {
  EngineOptions engine_options;
  engine_options.join_kind = kind;
  ContinuousQueryEngine sequential(engine_options);

  PipelinedEngineOptions options;
  options.engine = engine_options;
  options.num_threads = num_threads;
  options.lane_capacity = lane_capacity;
  PipelinedQueryEngine pipelined(options);

  for (const Graph& q : workload.queries) {
    sequential.AddQuery(q);
    pipelined.AddQuery(q);
  }
  for (const GraphStream& s : workload.streams) {
    sequential.AddStream(s.StartGraph());
    pipelined.AddStream(s.StartGraph());
  }
  sequential.Start();
  pipelined.Start();  // Completes epoch 0.

  const int num_streams = static_cast<int>(workload.streams.size());
  EXPECT_EQ(pipelined.num_shards(),
            std::min(std::max(1, num_threads), num_streams));
  ASSERT_EQ(pipelined.AllCandidatePairs(), sequential.AllCandidatePairs());
  for (int t = 1; t < Horizon(workload); ++t) {
    for (int i = 0; i < num_streams; ++i) {
      const GraphStream& s = workload.streams[static_cast<size_t>(i)];
      const GraphChange change =
          t < s.NumTimestamps() ? s.ChangeAt(t) : GraphChange{};
      sequential.ApplyChange(i, change);
      IngestSplit(pipelined, i, t, change, fragments);
    }
    pipelined.AdvanceEpoch(t);
    ASSERT_EQ(pipelined.AllCandidatePairs(), sequential.AllCandidatePairs())
        << "join=" << JoinKindName(kind) << " threads=" << num_threads
        << " lane=" << lane_capacity << " frags=" << fragments << " t=" << t;
    for (int i = 0; i < num_streams; ++i) {
      std::vector<int> seq_current = sequential.CandidatesForStream(i);
      std::vector<int> pipe_current = pipelined.CandidatesForStream(i);
      CandidateTransitions seq_tr, pipe_tr;
      sequential.ObserveTransitions(i, &seq_current, &seq_tr);
      pipelined.ObserveTransitions(i, &pipe_current, &pipe_tr);
      ASSERT_EQ(pipe_tr.appeared, seq_tr.appeared) << "stream " << i;
      ASSERT_EQ(pipe_tr.disappeared, seq_tr.disappeared) << "stream " << i;
    }
  }
  pipelined.Shutdown();
  // Per-lane audits: every routed event applied, in per-stream timestamp
  // order, across every lane.
  int64_t applied_events = 0;
  for (int s = 0; s < pipelined.num_shards(); ++s) {
    const PipelinedQueryEngine::LaneReport report = pipelined.ReportLane(s);
    EXPECT_EQ(report.order_violations, 0) << "shard " << s;
    EXPECT_EQ(report.lane.accepted, report.lane.delivered) << "shard " << s;
    applied_events += report.applied_events;
  }
  EXPECT_EQ(applied_events,
            static_cast<int64_t>(num_streams) * (Horizon(workload) - 1) *
                fragments);
}

TEST(PipelinedEngineTest, MatchesSequentialAcrossThreadCounts) {
  const Workload workload = RandomWorkload(/*num_streams=*/9,
                                           /*num_timestamps=*/12,
                                           /*seed=*/77);
  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
        JoinKind::kSkylineEarlyStop}) {
    // 1 = degenerate single worker; 4 < streams; 12 > streams.
    for (const int threads : {1, 4, 12}) {
      ExpectEquivalent(workload, kind, threads, /*lane_capacity=*/64,
                       /*fragments=*/1);
    }
  }
}

TEST(PipelinedEngineTest, MatchesSequentialWithFragmentedBatches) {
  const Workload workload = RandomWorkload(6, 10, 31);
  ExpectEquivalent(workload, JoinKind::kDominatedSetCover, 3,
                   /*lane_capacity=*/64, /*fragments=*/3);
}

TEST(PipelinedEngineTest, MatchesSequentialUnderFullBackpressure) {
  // Capacity-1 lanes: the router blocks on every forward, so the protocol
  // is exercised with maximal handoff contention.
  const Workload workload = RandomWorkload(5, 8, 13);
  ExpectEquivalent(workload, JoinKind::kDominatedSetCover, 2,
                   /*lane_capacity=*/1, /*fragments=*/2);
}

TEST(PipelinedEngineTest, MatchesSequentialOnManyRandomSeeds) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Workload workload = RandomWorkload(6, 8, seed);
    ExpectEquivalent(workload, JoinKind::kDominatedSetCover, 3, 32, 2);
  }
}

// --- Dynamic churn through the in-band control channel ---------------------

TEST(PipelinedEngineTest, DynamicChurnMatchesSequential) {
  const Workload workload = RandomWorkload(6, 10, 42);
  ContinuousQueryEngine sequential(EngineOptions{});
  PipelinedEngineOptions options;
  options.num_threads = 3;
  PipelinedQueryEngine pipelined(options);
  for (const Graph& q : workload.queries) {
    sequential.AddQuery(q);
    pipelined.AddQuery(q);
  }
  for (const GraphStream& s : workload.streams) {
    sequential.AddStream(s.StartGraph());
    pipelined.AddStream(s.StartGraph());
  }
  sequential.Start();
  pipelined.Start();

  const int num_streams = static_cast<int>(workload.streams.size());
  int added_id = -1;
  for (int t = 1; t < Horizon(workload); ++t) {
    for (int i = 0; i < num_streams; ++i) {
      const GraphStream& s = workload.streams[static_cast<size_t>(i)];
      const GraphChange change =
          t < s.NumTimestamps() ? s.ChangeAt(t) : GraphChange{};
      sequential.ApplyChange(i, change);
      IngestSplit(pipelined, i, t, change, 2);
    }
    // Interleave churn with in-flight data: ops land between this epoch's
    // data and its marker, at the same history point on both engines only
    // after the epoch completes — so churn here, then advance.
    if (t == 3) {
      const int seq_id = sequential.AddQueryDynamic(workload.queries[0]);
      added_id = pipelined.AddQueryDynamic(workload.queries[0]);
      EXPECT_EQ(added_id, seq_id);
    }
    if (t == 6) {
      sequential.RemoveQueryDynamic(added_id);
      pipelined.RemoveQueryDynamic(added_id);
      sequential.RemoveQueryDynamic(1);
      pipelined.RemoveQueryDynamic(1);
    }
    if (t == 8) {
      // Slot reuse: the most recently retired slot comes back.
      const int seq_id = sequential.AddQueryDynamic(workload.queries[2]);
      const int pipe_id = pipelined.AddQueryDynamic(workload.queries[2]);
      EXPECT_EQ(pipe_id, seq_id);
    }
    pipelined.AdvanceEpoch(t);
    ASSERT_EQ(pipelined.AllCandidatePairs(), sequential.AllCandidatePairs())
        << "t=" << t;
    EXPECT_EQ(pipelined.num_queries(), sequential.num_queries());
  }
  pipelined.CheckChurnInvariants();
  sequential.CheckChurnInvariants();
  pipelined.Shutdown();
}

// --- Watermarks and epoch snapshots ----------------------------------------

TEST(PipelinedEngineTest, WatermarksAdvanceMonotonically) {
  const Workload workload = RandomWorkload(4, 8, 9);
  PipelinedEngineOptions options;
  options.num_threads = 2;
  PipelinedQueryEngine engine(options);
  for (const Graph& q : workload.queries) engine.AddQuery(q);
  for (const GraphStream& s : workload.streams) {
    engine.AddStream(s.StartGraph());
  }
  engine.Start();
  EXPECT_EQ(engine.epoch(), 0);
  for (int t = 1; t < Horizon(workload); ++t) {
    for (size_t i = 0; i < workload.streams.size(); ++i) {
      const GraphStream& s = workload.streams[i];
      IngestEvent event;
      event.stream = static_cast<int32_t>(i);
      event.timestamp = t;
      if (t < s.NumTimestamps()) event.change = s.ChangeAt(t);
      ASSERT_TRUE(engine.Ingest(std::move(event)));
    }
    engine.AdvanceEpoch(t);
    EXPECT_EQ(engine.epoch(), t);
    for (int s = 0; s < engine.num_shards(); ++s) {
      EXPECT_GE(engine.ReportLane(s).watermark, t) << "shard " << s;
    }
  }
  engine.Shutdown();
  // Events pushed after the last marker are applied on shutdown drain, so
  // nothing accepted is ever lost.
  for (int s = 0; s < engine.num_shards(); ++s) {
    const PipelinedQueryEngine::LaneReport report = engine.ReportLane(s);
    EXPECT_EQ(report.lane.accepted, report.lane.delivered);
    EXPECT_EQ(report.order_violations, 0);
  }
}

TEST(PipelinedEngineTest, CandidatesForStreamMatchesMergedPairs) {
  const Workload workload = RandomWorkload(5, 6, 21);
  PipelinedEngineOptions options;
  options.num_threads = 3;
  PipelinedQueryEngine engine(options);
  for (const Graph& q : workload.queries) engine.AddQuery(q);
  for (const GraphStream& s : workload.streams) {
    engine.AddStream(s.StartGraph());
  }
  engine.Start();
  std::vector<std::pair<int, int>> rebuilt;
  for (int i = 0; i < engine.num_streams(); ++i) {
    for (const int q : engine.CandidatesForStream(i)) {
      rebuilt.emplace_back(i, q);
    }
  }
  EXPECT_EQ(rebuilt, engine.AllCandidatePairs());
  engine.Shutdown();
}

TEST(MergeParallelSamplesTest, SumsCountsAndTakesCriticalPath) {
  TimestampStats a;
  a.timestamp = 7;
  a.candidate_pairs = 3;
  a.total_pairs = 10;
  a.true_pairs = 2;
  a.update_millis = 1.5;
  a.join_millis = 0.25;
  TimestampStats b;
  b.timestamp = 7;
  b.candidate_pairs = 5;
  b.total_pairs = 10;
  b.true_pairs = 4;
  b.update_millis = 0.5;
  b.join_millis = 2.0;
  const TimestampStats merged = MergeParallelSamples({a, b});
  EXPECT_EQ(merged.timestamp, 7);
  EXPECT_EQ(merged.candidate_pairs, 8);
  EXPECT_EQ(merged.total_pairs, 20);
  EXPECT_EQ(merged.true_pairs, 6);
  EXPECT_DOUBLE_EQ(merged.update_millis, 1.5);
  EXPECT_DOUBLE_EQ(merged.join_millis, 2.0);

  b.true_pairs = -1;  // One shard without ground truth poisons the sum.
  EXPECT_EQ(MergeParallelSamples({a, b}).true_pairs, -1);
}

}  // namespace
}  // namespace gsps
