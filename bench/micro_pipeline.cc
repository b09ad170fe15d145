// Pipelined-vs-lockstep microbenchmark: sustained ingest throughput of the
// PipelinedQueryEngine closing one epoch per cycle against the same engine
// closing an epoch after every tick (lockstep) at equal thread count on a
// Zipf-skewed workload — the distribution the pipeline exists for. Stream
// i's graph and per-tick delta budget scale as 1/(i+1)^zipf, so one heavy
// stream dominates while the tail idles; the lockstep run waits for the
// slowest shard at every tick while the pipelined run lets light shards
// run ahead between epochs.
//
// The delta schedule is cyclic and bursty: each cycle inserts stream i's
// whole extra edge set at its burst tick (i mod phases) and deletes it at
// the mirror tick, so the graph returns to its start state every cycle and
// at any tick only ~streams/phases streams are active — the arrival shape
// where the lockstep run's per-tick max-shard wait hurts most. Cycles 1-2
// are warmup for both runs (cycle 1 fills every buffer, cycle 2 completes
// the slab and free-list reuse pass; the pipelined run's
// alloc_warmup_epochs is set to match — one epoch closes per cycle);
// cycles 3..N are timed. The cyclic shape makes the
// zero-steady-state-allocation gate meaningful: after the warm cycles
// every slab slot, lane buffer, and scratch vector has reached its
// high-water mark, so the worker loops (pop, coalesce, ApplyChange, flush,
// epoch snapshot) must not touch the heap. The binary links
// gsps_alloc_hook and injects the thread-local counter as the engine's
// alloc probe (strict zero in Release builds without sanitizers).
//
// Gates regressed by CI's bench-trajectory job: steady_allocs == 0 plus
// losslessness (the two runs must agree on the final candidate pairs and
// every lane audit must be clean — violations exit non-zero here) always,
// and speedup_pipelined >= 1.3 on runners with >= 4 hardware threads (the
// concurrency win needs real cores; the JSON carries hardware_threads so
// the gate can tell).
//
// Flags:
//   --streams=N    number of streams (default 24)
//   --queries=N    registered queries (default 8, capped at streams)
//   --threads=N    worker threads for BOTH runs (default 4)
//   --cycles=N     total cycles incl. the two warmup cycles (default 6)
//   --phases=N     burst slots per half-cycle (cycle = 2*phases ticks; default 6)
//   --heavy=N      edge budget of the heaviest stream's delta set (default 96)
//   --zipf=X       skew exponent (default 1.0)
//   --depth=N      NNT depth (default 3)
//   --seed=N       workload seed
//
// Output: human-readable rows plus one EmitBenchJson line (bench
// "micro_pipeline"), archived by the CI bench-JSON job.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gsps/common/alloc_hook.h"
#include "gsps/common/random.h"
#include "gsps/common/stopwatch.h"
#include "gsps/engine/ingest_queue.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/graph/graph.h"
#include "gsps/graph/graph_change.h"
#include "gsps/obs/obs.h"
#include "gsps/obs/window.h"

namespace gsps::bench {
namespace {

struct PipelineWorkload {
  std::vector<Graph> queries;
  std::vector<Graph> starts;
  // delta[i][p]: the edge ops stream i receives at phase p of a cycle.
  // Phases [0, phases) insert, [phases, 2 * phases) delete the same edges,
  // so a full cycle is the identity on the stream graph.
  std::vector<std::vector<std::vector<EdgeOp>>> delta;
  int phases = 0;
  int64_t ops_per_cycle = 0;
};

// Zipf-skewed start graphs (one synthetic basic-query derivation per
// stream, edge budget scaled by rank) plus the cyclic delta schedule.
PipelineWorkload MakeWorkload(int num_streams, int num_queries, int phases,
                              int heavy, double zipf, uint64_t seed) {
  PipelineWorkload w;
  w.phases = phases;
  Rng rng(seed);
  for (int i = 0; i < num_streams; ++i) {
    const double scale = 1.0 / std::pow(static_cast<double>(i + 1), zipf);
    SyntheticStreamParams params;
    params.num_pairs = 1;
    params.num_seeds = 4;
    params.avg_seed_edges = 4.0;
    params.avg_graph_edges = std::max(8.0, 1.5 * heavy * scale);
    params.evolution.num_timestamps = 1;  // Only the start graph is used.
    params.seed = seed * 1000 + static_cast<uint64_t>(i);
    StreamDataset dataset = MakeSyntheticStreams(params);
    if (static_cast<int>(w.queries.size()) < num_queries) {
      w.queries.push_back(dataset.queries[0]);
    }
    w.starts.push_back(dataset.streams[0].StartGraph());
  }

  // Per stream: a Zipf-sized set of fresh edges among existing vertices,
  // all landing in the stream's burst phase (i mod phases) and deleted at
  // the mirror phase. Bursty arrival is what makes the lockstep cost
  // visible: at every tick only ~streams/phases streams are active, so the
  // lockstep run pays the busiest shard's burst while the other shards
  // idle, whereas the pipeline overlaps bursts across ticks (each shard's
  // total per-cycle work is what bounds it, not the per-tick maximum).
  for (int i = 0; i < num_streams; ++i) {
    const Graph& start = w.starts[static_cast<size_t>(i)];
    const double scale = 1.0 / std::pow(static_cast<double>(i + 1), zipf);
    const int budget = std::max(2, static_cast<int>(heavy * scale));
    Graph shadow = start;  // Tracks already-chosen edges.
    std::vector<std::pair<VertexId, VertexId>> extra;
    int attempts = 0;
    while (static_cast<int>(extra.size()) < budget &&
           attempts < budget * 50) {
      ++attempts;
      const auto u = static_cast<VertexId>(
          rng.UniformInt(0, shadow.NumVertices() - 1));
      const auto v = static_cast<VertexId>(
          rng.UniformInt(0, shadow.NumVertices() - 1));
      if (u == v || shadow.HasEdge(u, v)) continue;
      shadow.AddEdge(u, v, 0);
      extra.emplace_back(u, v);
    }
    std::vector<std::vector<EdgeOp>> slices(
        static_cast<size_t>(2 * phases));
    const int p = i % phases;
    for (size_t e = 0; e < extra.size(); ++e) {
      const auto [u, v] = extra[e];
      slices[static_cast<size_t>(p)].push_back(EdgeOp::Insert(
          u, v, 0, start.GetVertexLabel(u), start.GetVertexLabel(v)));
      // Mirror phase: the deletes of insert-phase p land at 2*phases-1-p,
      // so the last inserted slice is the first deleted.
      slices[static_cast<size_t>(2 * phases - 1 - p)].push_back(
          EdgeOp::Delete(u, v));
    }
    w.ops_per_cycle += 2 * static_cast<int64_t>(extra.size());
    w.delta.push_back(std::move(slices));
  }
  return w;
}

GraphChange SliceChange(const PipelineWorkload& w, int stream, int tick) {
  GraphChange change;
  change.ops = w.delta[static_cast<size_t>(stream)]
                      [static_cast<size_t>(tick % (2 * w.phases))];
  return change;
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "micro_pipeline: %s\n", what);
  std::exit(1);
}

// Feeds `cycles` cycles of the workload into a started engine, closing an
// epoch after every tick (lockstep) or once per cycle, then reads the final
// candidate pairs into *pairs. Returns the wall time of the timed cycles
// (every cycle after the warmup ones) in seconds.
double RunCycles(PipelinedQueryEngine& engine, const PipelineWorkload& w,
                 int cycles, int warmup_cycles, bool lockstep,
                 std::vector<std::pair<int, int>>* pairs) {
  const int num_streams = static_cast<int>(w.starts.size());
  double seconds = 0;
  Stopwatch watch;
  int32_t tick = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (cycle == warmup_cycles) watch.Restart();  // Warmup cycles untimed.
    for (int p = 0; p < 2 * w.phases; ++p) {
      ++tick;
      for (int i = 0; i < num_streams; ++i) {
        IngestEvent event;
        event.stream = i;
        event.timestamp = tick;
        event.change = SliceChange(w, i, p);
        if (!engine.Ingest(std::move(event))) {
          Fail("ingest rejected before shutdown");
        }
      }
      if (lockstep) engine.AdvanceEpoch(tick);
    }
    if (!lockstep) engine.AdvanceEpoch(tick);
    if (cycle == cycles - 1) seconds = watch.ElapsedMicros() / 1e6;
  }
  engine.AllCandidatePairs(pairs);
  return seconds;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int num_streams = flags.GetInt("streams", 24);
  const int num_queries = std::min(flags.GetInt("queries", 8), num_streams);
  const int threads = flags.GetInt("threads", 4);
  const int cycles = flags.GetInt("cycles", 6);
  const int phases = flags.GetInt("phases", 6);
  const int heavy = flags.GetInt("heavy", 96);
  const double zipf = flags.GetDouble("zipf", 1.0);
  const int depth = flags.GetInt("depth", 3);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 11));
  if (!AllFlagsKnown(flags)) return 2;
  constexpr int kWarmupCycles = 2;
  if (cycles <= kWarmupCycles) {
    Fail("--cycles must be >= 3 (cycles 1-2 are warmup)");
  }

  const PipelineWorkload w =
      MakeWorkload(num_streams, num_queries, phases, heavy, zipf, seed);
  const int cycle_ticks = 2 * phases;
  const int timed_cycles = cycles - kWarmupCycles;
  const int64_t timed_ops = w.ops_per_cycle * timed_cycles;
  const int hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());

  obs::MetricSink root_sink;
  std::optional<obs::ScopedObsContext> obs_scope;
  if constexpr (obs::kEnabled) obs_scope.emplace(&root_sink, nullptr);

  std::printf("micro_pipeline: %d streams x %d queries, zipf=%.2f "
              "(heavy=%d ops/cycle total=%lld), %d cycles x %d ticks, "
              "%d threads (%d hardware)\n",
              num_streams, num_queries, zipf, heavy,
              static_cast<long long>(w.ops_per_cycle), cycles, cycle_ticks,
              threads, hardware_threads);

  PipelinedEngineOptions options;
  options.engine.nnt_depth = depth;
  options.num_threads = threads;

  // --- Lockstep baseline: an epoch after every tick. ---
  std::vector<std::pair<int, int>> lockstep_pairs;
  double lockstep_seconds = 0;
  {
    PipelinedQueryEngine lockstep(options);
    for (const Graph& q : w.queries) lockstep.AddQuery(q);
    for (const Graph& g : w.starts) lockstep.AddStream(g);
    lockstep.Start();
    lockstep_seconds = RunCycles(lockstep, w, cycles, kWarmupCycles,
                                 /*lockstep=*/true, &lockstep_pairs);
  }
  const double lockstep_rate =
      lockstep_seconds > 0 ? static_cast<double>(timed_ops) / lockstep_seconds
                           : 0.0;

  // --- Pipelined: async ingest, one epoch close per cycle. ---
  // This binary links gsps_alloc_hook, so the worker threads' counters are
  // live; the engine itself never references the hook symbols.
  options.alloc_probe = +[]() -> int64_t {
    return ThreadAllocCounts().allocs;
  };
  // Epoch 0 plus one epoch per warmup cycle; the steady-state clock starts
  // with the first timed cycle.
  options.alloc_warmup_epochs = kWarmupCycles + 1;
  PipelinedQueryEngine pipeline(options);
  for (const Graph& q : w.queries) pipeline.AddQuery(q);
  for (const Graph& g : w.starts) pipeline.AddStream(g);
  pipeline.Start();
  std::vector<std::pair<int, int>> pipeline_pairs;
  const double pipeline_seconds = RunCycles(
      pipeline, w, cycles, kWarmupCycles, /*lockstep=*/false, &pipeline_pairs);
  const double pipeline_rate =
      pipeline_seconds > 0 ? static_cast<double>(timed_ops) / pipeline_seconds
                           : 0.0;
  const double speedup =
      lockstep_rate > 0 ? pipeline_rate / lockstep_rate : 0.0;

  // The final epoch snapshots of both runs must be byte-identical (both
  // graphs are back at their start state, but the candidate sets went
  // through the same history).
  if (pipeline_pairs != lockstep_pairs) Fail("runs disagree on candidates");

  pipeline.Shutdown();
  obs::HistogramData lag;
  obs::HistogramData e2e;
  int64_t steady_allocs = 0;
  int64_t coalesced = 0;
  int64_t applied_events = 0;
  int64_t order_violations = 0;
  int64_t lost = 0;
  for (int s = 0; s < pipeline.num_shards(); ++s) {
    const PipelinedQueryEngine::LaneReport report = pipeline.ReportLane(s);
    lag.MergeFrom(report.watermark_lag_micros);
    e2e.MergeFrom(report.e2e_micros);
    steady_allocs += report.steady_allocs;
    coalesced += report.coalesced_events;
    applied_events += report.applied_events;
    order_violations += report.order_violations;
    lost += report.lane.accepted - report.lane.delivered;
  }
  const int64_t expected_events =
      static_cast<int64_t>(num_streams) * cycles * cycle_ticks;
  if (lost != 0 || applied_events != expected_events) Fail("lost events");
  if (order_violations != 0) Fail("reordered events");

  const double lag_p99 = obs::HistogramQuantile(lag, 0.99);
  const double e2e_p99 = obs::HistogramQuantile(e2e, 0.99);

  PrintHeader("micro_pipeline (threads=" + std::to_string(threads) +
              " shards=" + std::to_string(pipeline.num_shards()) + ")");
  const std::vector<std::string> columns = {"value"};
  PrintRow("lockstep_events_per_sec", {lockstep_rate}, columns);
  PrintRow("pipelined_events_per_sec", {pipeline_rate}, columns);
  PrintRow("speedup_pipelined", {speedup}, columns);
  PrintRow("watermark_lag_p99_micros", {lag_p99}, columns);
  PrintRow("ingest_e2e_p99_micros", {e2e_p99}, columns);
  PrintRow("coalesced_events", {static_cast<double>(coalesced)}, columns);
  PrintRow("steady_allocs", {static_cast<double>(steady_allocs)}, columns);

  EmitBenchJson(
      "micro_pipeline", "pipelined_vs_lockstep",
      {{"streams", static_cast<double>(num_streams)},
       {"queries", static_cast<double>(num_queries)},
       {"num_threads", static_cast<double>(threads)},
       {"hardware_threads", static_cast<double>(hardware_threads)},
       {"num_shards", static_cast<double>(pipeline.num_shards())},
       {"zipf", zipf},
       {"timed_ops", static_cast<double>(timed_ops)},
       {"lockstep_events_per_sec", lockstep_rate},
       {"pipelined_events_per_sec", pipeline_rate},
       {"speedup_pipelined", speedup},
       {"watermark_lag_p99_micros", lag_p99},
       {"ingest_e2e_p99_micros", e2e_p99},
       {"coalesced_events", static_cast<double>(coalesced)},
       {"applied_events", static_cast<double>(applied_events)},
       {"steady_allocs", static_cast<double>(steady_allocs)}});

  std::printf("\nShape check: speedup_pipelined exceeds 1.3x under skew "
              "(the lockstep run\npays max-shard latency at every tick; "
              "the pipeline pays it once per cycle)\nand steady_allocs is 0 "
              "— the worker loops never touch the heap after the\nwarmup "
              "cycle.\n");
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) { return gsps::bench::Main(argc, argv); }
