// Shared pieces of the gate benchmark (perfbench/README.md has the design):
// the workload table, the seeded inputs, the result record, and the passes
// each workload composes.

#ifndef GSPS_PERFBENCH_PERFBENCH_H_
#define GSPS_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gsps/engine/continuous_query_engine.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/graph/graph.h"
#include "gsps/graph/graph_stream.h"

namespace gsps::perfbench {

// Fixed design of one workload. Every field is a constant of the benchmark;
// only the seed varies between runs.
struct WorkloadParams {
  const char* name;
  // The workload's dataset from its fixed generator seed, cut to the
  // `horizon` ticks that start at dataset tick `start`.
  StreamDataset (*make)(int start, int horizon);
  int horizon;        // Replayed timestamps, t = 0 included.
  int warmup_ticks;   // Replayed untimed before closed-loop and traced ticks.
  int min_ticks;      // Timed replays reach at least this tick; the
                      // candidate ratio is taken up to it.
  double tail_q;      // The reported tail quantile of per-tick times.
  int setup_reps;     // Fresh set-ups per run; setup_s is their median.
  // Traced runs' open-loop rate in edge ops/s: a fixed absolute rate, or 0
  // for a share (kOpenLoopShare) of the capacity the same run's saturating
  // pass measured.
  double open_loop_ops_per_s;
};

// Closed loop: sampled correctness checks per run.
inline constexpr int kCheckTicks = 4;
// Pipelined passes: shard workers (with the generator and the router, the
// busy threads stay within 4 vCPUs), and the most edge ops one event
// carries; larger batches go as several fragments that the workers coalesce.
inline constexpr int kWorkers = 2;
inline constexpr size_t kFragmentOps = 16;
inline constexpr double kOpenLoopShare = 0.25;

const WorkloadParams* FindWorkload(std::string_view name);

// Seeded inputs: queries plus one stream per start graph, all with the same
// number of timestamps — the replay window starting at tick window_start of
// the workload's dataset.
struct Inputs {
  std::vector<Graph> queries;
  std::vector<GraphStream> streams;
  std::vector<int64_t> ops_at;  // Edge ops of tick t summed over streams.
  int window_start = 0;

  int num_streams() const { return static_cast<int>(streams.size()); }
  int horizon() const { return static_cast<int>(ops_at.size()); }
  const GraphChange& Change(int stream, int tick) const {
    return streams[static_cast<size_t>(stream)].ChangeAt(tick);
  }
};

Inputs MakeInputs(const WorkloadParams& params, uint64_t seed);

// --- Results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  int failures_reported = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  // Records `count` failed operations and prints why to stderr (the first
  // ten times).
  void Fail(int64_t count, const std::string& why);
};

// --- Timing and statistics ---------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linearly interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Order-sensitive hash of one tick's candidate sets, stream-major.
uint64_t HashCandidates(uint64_t hash, int stream, const std::vector<int>& set);
inline constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

// ru_maxrss of this process, in MiB.
double PeakRssMb();

// --- Passes ------------------------------------------------------------------

// Registers the inputs on an engine of either kind and times the set-up from
// the first AddQuery until Start() returns.
template <typename Engine>
double SetUp(const Inputs& inputs, Engine& engine) {
  const Clock::time_point start = Clock::now();
  for (const Graph& query : inputs.queries) engine.AddQuery(query);
  for (const GraphStream& stream : inputs.streams) {
    engine.AddStream(stream.StartGraph());
  }
  engine.Start();
  return SecondsSince(start);
}

EngineOptions BenchEngineOptions();

// A closed-loop sequential replay through ContinuousQueryEngine: per tick,
// apply every stream's batch, read every stream's candidates and observe the
// transitions.
struct SequentialPass {
  explicit SequentialPass(const Inputs& inputs, int last = 0)
      : tick_hash(static_cast<size_t>(inputs.horizon()), 0), last_tick(last) {}
  std::vector<double> tick_ms;        // Per timed tick.
  std::vector<uint64_t> tick_hash;    // Indexed by tick; [0] unused.
  int last_tick;                      // Last tick replayed.
  int64_t timed_ops = 0;
  double timed_seconds = 0;
  int64_t candidate_pairs = 0;        // Over timed ticks up to min_ticks,
  int ratio_ticks = 0;                // of which this many were replayed.
};

// kCheckTicks evenly spaced ticks in (first_tick, min_ticks]; fixed by the
// design, so every run checks the same timestamps.
std::vector<int> CheckTicks(int first_tick, int min_ticks);

// Continues a timed replay on `engine`, which must be set up and have
// replayed ticks through pass->last_tick, until `seconds` of timed replay
// have passed in total and ticks up to min_ticks are covered (or the
// horizon ends, or 6 × `seconds` have passed, which keeps a pathologically
// slow build within its time). The candidate sets at the ticks in check_at
// are compared, outside the timed region, with
// RecomputeCandidatesFromScratch and with exact subgraph isomorphism (no
// false negatives); failures land in *result.
void ContinueSequential(const Inputs& inputs, ContinuousQueryEngine& engine,
                        double seconds, int min_ticks,
                        const std::vector<int>& check_at, bool plant_fault,
                        SequentialPass* pass, RunResult* result);

// A timed replay from tick 1 on a freshly set-up engine, without checks.
SequentialPass RunSequential(const Inputs& inputs,
                             ContinuousQueryEngine& engine, int min_ticks,
                             double seconds, RunResult* result);

// Applies tick t to every stream, then reads and observes every stream's
// candidates: one closed-loop timestamp. Returns the candidate pair count.
int64_t ReplayTick(const Inputs& inputs, ContinuousQueryEngine& engine, int t,
                   std::vector<int>* buffer, CandidateTransitions* transitions);

// Replays ticks first..last untimed.
void WarmUp(const Inputs& inputs, ContinuousQueryEngine& engine, int first,
            int last);

// One pass through PipelinedQueryEngine. The calling thread is the
// generator: per tick it pushes every stream's batch, split into events of
// at most kFragmentOps ops, when the tick is due at `ops_per_s` (0 = as
// soon as the previous tick was read), then closes epoch t and reads its
// snapshot.
// Snapshots are checked against the sequential reference hashes.
struct IngestPass {
  int ticks = 0;
  int64_t ops = 0;
  int64_t events = 0;
  double seconds = 0;                 // Pass start until the last read.
  std::vector<double> latency_ms;     // Per tick: due -> snapshot read.
  std::vector<double> epoch_close_ms; // Per tick: AdvanceEpoch duration.
  std::vector<double> lateness_ms;    // Per tick: first push - due time.
  double ingest_block_ms = 0;         // Generator time inside Ingest.
  // Merged lane reports, read after Shutdown.
  double apply_e2e_p50_ms = 0;
  double watermark_lag_p99_ms = 0;
  int64_t lane_depth_max = 0;
  int64_t coalesced_events = 0;
  int64_t applied_events = 0;
};

IngestPass RunIngest(const Inputs& inputs, PipelinedQueryEngine& engine,
                     int ticks, double ops_per_s,
                     const std::vector<uint64_t>& reference, bool plant_fault,
                     RunResult* result);

PipelinedEngineOptions BenchPipelinedOptions();

// --- Traced run --------------------------------------------------------------

// Replays the inputs through the benchmark's own composition of the layer
// calls (as StreamShard composes them) with spans around every call,
// alternating tick by tick with an untraced ContinuousQueryEngine, and adds
// the per-layer metrics to *result. Spans are written to `span_path` when
// it is not empty.
void RunTraced(const Inputs& inputs, const WorkloadParams& params,
               double seconds, const std::string& span_path, bool plant_fault,
               RunResult* result);

// --- Host --------------------------------------------------------------------

// Cumulative /proc/stat CPU jiffies (all, steal); zeros when unreadable.
struct CpuTimes {
  int64_t total = 0;
  int64_t steal = 0;
};
CpuTimes ReadCpuTimes();

// Nanoseconds per dependent load over a fixed 64 MiB random cycle.
double MemoryProbeNs();

}  // namespace gsps::perfbench

#endif  // GSPS_PERFBENCH_PERFBENCH_H_
