// gsps_perfbench: one run of one gate workload.
//
//   gsps_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  [--span_file=PATH] [--plant_fault]
//
// --trace=0 measures the end-to-end metrics of BENCHMARK.json in a
// closed-loop replay; --trace=1 runs the traced composition plus the
// scheduler passes and reports the per-layer metrics. Either way the
// outputs are checked, and the last stdout line is {"correct", "attempted",
// "failed", "metrics"}. Any failed operation exits 1. --plant_fault
// corrupts one candidate set on purpose (the benchmark's self-test).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "gsps/common/flags.h"
#include "gsps/join/dominance_kernel.h"
#include "perfbench.h"

namespace gsps::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_file;
  bool plant_fault = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "gsps_perfbench: %s\nusage: gsps_perfbench --workload=NAME "
               "--seed=N --seconds=S --trace=0|1 [--span_file=PATH] "
               "[--plant_fault]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  FlagParser flags(argc, argv);
  Args args;
  args.workload = flags.GetString("workload", "");
  const long long seed = flags.GetInt64("seed", -1);
  args.seconds = flags.GetDouble("seconds", 0);
  const int trace = flags.GetInt("trace", -1);
  args.span_file = flags.GetString("span_file", "");
  args.plant_fault = flags.GetBool("plant_fault");
  if (!flags.UnrecognizedArgs().empty()) Usage(flags.ErrorMessage());
  if (args.workload.empty()) Usage("--workload is required");
  if (seed < 0) Usage("--seed must be a non-negative integer");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (trace != 0 && trace != 1) Usage("--trace must be 0 or 1");
  args.seed = static_cast<uint64_t>(seed);
  args.trace = trace == 1;
  return args;
}

// Largest tick count T <= cap whose ops 1..T fit in `seconds` at `rate`.
int TicksWithin(const Inputs& inputs, double rate, double seconds, int cap) {
  double ops = 0;
  int ticks = 0;
  while (ticks < cap) {
    ops += static_cast<double>(inputs.ops_at[static_cast<size_t>(ticks + 1)]);
    if (ops / rate > seconds && ticks > 0) break;
    ++ticks;
  }
  return ticks;
}

double Rate(int64_t ops, double seconds) {
  return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
}

double CandidateRatio(const Inputs& inputs, int64_t pairs, int ticks) {
  return static_cast<double>(pairs) /
         (static_cast<double>(inputs.num_streams()) *
          static_cast<double>(inputs.queries.size()) * ticks);
}

void PrintSetups(const std::vector<double>& setups) {
  std::printf("set-ups: %zu, ms min %.2f median %.2f max %.2f\n",
              setups.size(), Quantile(setups, 0) * 1e3,
              Median(setups) * 1e3, Quantile(setups, 1) * 1e3);
}

// The end-to-end run of every workload: a closed-loop replay through
// ContinuousQueryEngine. Half the fresh set-ups run before the replay and
// half after it, so their median samples the host at both ends of the run
// rather than in one burst; one engine is alive at a time, for peak_rss_mb.
void RunClosedLoop(const Inputs& inputs, const WorkloadParams& params,
                   const Args& args, RunResult* result) {
  std::vector<double> setups;
  std::unique_ptr<ContinuousQueryEngine> engine;
  auto set_up = [&] {
    engine.reset();
    engine = std::make_unique<ContinuousQueryEngine>(BenchEngineOptions());
    setups.push_back(SetUp(inputs, *engine));
  };
  const int before = (params.setup_reps + 1) / 2;
  for (int r = 0; r < before; ++r) set_up();
  const int w = params.warmup_ticks;
  WarmUp(inputs, *engine, 1, w);
  SequentialPass pass(inputs, w);
  ContinueSequential(inputs, *engine, args.seconds, params.min_ticks,
                     CheckTicks(w + 1, params.min_ticks), args.plant_fault,
                     &pass, result);
  // A window that ends before --seconds of replay (skewed_ingest on a fast
  // host) is replayed again from its start on a fresh engine.
  while (pass.timed_seconds < args.seconds) {
    set_up();
    WarmUp(inputs, *engine, 1, w);
    pass.last_tick = w;
    ContinueSequential(inputs, *engine, args.seconds, 0, {}, false, &pass,
                       result);
  }
  engine.reset();
  for (int r = before; r < params.setup_reps; ++r) set_up();
  engine.reset();
  std::printf("closed loop: ticks %d..%d timed (%zu samples, tail p%g), "
              "%d sampled checks\n",
              w + 1, pass.last_tick, pass.tick_ms.size(), params.tail_q * 100,
              kCheckTicks);
  PrintSetups(setups);
  result->Add("setup_s", Median(setups), "s");
  result->Add("edge_ops_per_s", Rate(pass.timed_ops, pass.timed_seconds),
              "1/s");
  result->Add("result_latency_p50_ms", Median(pass.tick_ms), "ms");
  result->Add("result_latency_tail_ms", Quantile(pass.tick_ms, params.tail_q),
              "ms");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("candidate_ratio",
              CandidateRatio(inputs, pass.candidate_pairs, pass.ratio_ticks),
              "ratio");
}

// The traced run's scheduler passes through PipelinedQueryEngine: a
// saturating pass over the ticks the sequential reference replayed, then an
// open-loop pass over the ticks due within `open_seconds`, each on a fresh
// engine that is gone before the next one is set up.
struct SchedulerPasses {
  IngestPass saturating;
  IngestPass open_loop;
  double open_loop_ops_per_s = 0;
  std::vector<double> setups;  // Of the two pipelined engines.
};

SchedulerPasses RunSchedulerPasses(const Inputs& inputs,
                                   const WorkloadParams& params,
                                   const SequentialPass& base,
                                   double open_seconds, bool plant_fault,
                                   RunResult* result) {
  const PipelinedEngineOptions options = BenchPipelinedOptions();
  SchedulerPasses passes;
  {
    PipelinedQueryEngine engine(options);
    passes.setups.push_back(SetUp(inputs, engine));
    passes.saturating = RunIngest(inputs, engine, base.last_tick, 0,
                                  base.tick_hash, plant_fault, result);
  }
  const IngestPass& sat = passes.saturating;
  passes.open_loop_ops_per_s =
      params.open_loop_ops_per_s > 0
          ? params.open_loop_ops_per_s
          : kOpenLoopShare * Rate(sat.ops, sat.seconds);
  {
    PipelinedQueryEngine engine(options);
    passes.setups.push_back(SetUp(inputs, engine));
    const int ticks = TicksWithin(inputs, passes.open_loop_ops_per_s,
                                  open_seconds, base.last_tick);
    passes.open_loop = RunIngest(inputs, engine, ticks,
                                 passes.open_loop_ops_per_s, base.tick_hash,
                                 false, result);
  }
  const IngestPass& open = passes.open_loop;
  std::printf("ingest: sequential %d ticks %.0f ops/s; saturating %d ticks "
              "%.0f ops/s; open loop %d ticks at %.0f ops/s, latency ms "
              "p50 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f (tail p%g)\n",
              base.last_tick, Rate(base.timed_ops, base.timed_seconds),
              sat.ticks, Rate(sat.ops, sat.seconds), open.ticks,
              passes.open_loop_ops_per_s, Median(open.latency_ms),
              Quantile(open.latency_ms, 0.9), Quantile(open.latency_ms, 0.95),
              Quantile(open.latency_ms, 0.99), Quantile(open.latency_ms, 1.0),
              params.tail_q * 100);
  return passes;
}

// Every workload's traced run: a sequential reference pass, the traced
// composition, and a saturating plus an open-loop scheduler pass. A planted
// fault reaches both the traced comparison and the saturating pass's
// snapshot comparison.
void RunTraceMode(const Inputs& inputs, const WorkloadParams& params,
                  const Args& args, RunResult* result) {
  const SequentialPass base = [&] {
    ContinuousQueryEngine engine(BenchEngineOptions());
    SetUp(inputs, engine);
    return RunSequential(inputs, engine, 1, 0.2 * args.seconds, result);
  }();
  RunTraced(inputs, params, 0.4 * args.seconds, args.span_file,
            args.plant_fault, result);
  const SchedulerPasses passes = RunSchedulerPasses(
      inputs, params, base, 0.25 * args.seconds, args.plant_fault, result);
  const IngestPass& sat = passes.saturating;
  const IngestPass& open = passes.open_loop;

  const size_t half = open.latency_ms.size() / 2;
  const double first_half = Median(std::vector<double>(
      open.latency_ms.begin(), open.latency_ms.begin() + half));
  const double second_half = Median(std::vector<double>(
      open.latency_ms.begin() + half, open.latency_ms.end()));
  result->Add("engine.setup_s", Median(passes.setups), "s");
  result->Add("engine.saturating_ops_per_s", Rate(sat.ops, sat.seconds),
              "1/s");
  result->Add("engine.open_loop_latency_p50_ms", Median(open.latency_ms),
              "ms");
  result->Add("engine.open_loop_latency_tail_ms",
              Quantile(open.latency_ms, params.tail_q), "ms");
  result->Add("engine.ingest_block_ms", sat.ingest_block_ms / sat.ticks, "ms");
  result->Add("engine.epoch_close_p50_ms", Median(open.epoch_close_ms), "ms");
  result->Add("engine.apply_e2e_p50_ms", open.apply_e2e_p50_ms, "ms");
  result->Add("engine.watermark_lag_p99_ms", open.watermark_lag_p99_ms, "ms");
  result->Add("engine.lane_depth_max", static_cast<double>(sat.lane_depth_max),
              "count");
  result->Add("engine.coalesced_ratio",
              sat.applied_events > 0
                  ? static_cast<double>(sat.coalesced_events) /
                        static_cast<double>(sat.applied_events)
                  : 0.0,
              "ratio");
  result->Add("engine.parallel_efficiency",
              Rate(sat.ops, sat.seconds) /
                  (kWorkers * Rate(base.timed_ops, base.timed_seconds)),
              "ratio");
  result->Add("loadgen.lateness_tail_ms",
              Quantile(open.lateness_ms, params.tail_q), "ms");
  result->Add("loadgen.backlog_growth_ratio",
              first_half > 0 ? second_half / first_half : 0.0, "ratio");
}

void PrintResult(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadParams* params = FindWorkload(args.workload);
  if (params == nullptr) Usage("unknown workload " + args.workload);

  const CpuTimes cpu_start = ReadCpuTimes();
  const Clock::time_point start = Clock::now();
  const Inputs inputs = MakeInputs(*params, args.seed);
  int64_t total_ops = 0;
  for (const int64_t ops : inputs.ops_at) total_ops += ops;
  std::printf("inputs: %s seed %llu: %d streams, %zu queries, %d ticks from "
              "dataset tick %d, %.1f edge ops/tick, generated in %.2f s, "
              "peak RSS so far %.1f MB\n",
              params->name, static_cast<unsigned long long>(args.seed),
              inputs.num_streams(), inputs.queries.size(), inputs.horizon(),
              inputs.window_start,
              static_cast<double>(total_ops) / (inputs.horizon() - 1),
              SecondsSince(start), PeakRssMb());

  RunResult result;
  if (args.trace) {
    RunTraceMode(inputs, *params, args, &result);
  } else {
    RunClosedLoop(inputs, *params, args, &result);
  }

  const CpuTimes cpu_end = ReadCpuTimes();
  const int64_t jiffies = cpu_end.total - cpu_start.total;
  const double steal =
      jiffies > 0 ? static_cast<double>(cpu_end.steal - cpu_start.steal) /
                        static_cast<double>(jiffies)
                  : 0.0;
  const double probe_ns = MemoryProbeNs();
  std::printf("host {\"nproc\": %u, \"isa\": \"%s\", \"build\": \"%s\", "
              "\"steal_ratio\": %.4f, \"mem_probe_ns\": %.1f, "
              "\"run_s\": %.1f}\n",
              std::thread::hardware_concurrency(),
              DominanceIsaName(ActiveDominanceIsa()), GSPS_BUILD_TYPE,
              steal, probe_ns, SecondsSince(start));
  if (args.trace) {
    result.Add("host.steal_ratio", steal, "ratio");
    result.Add("host.mem_probe_ns", probe_ns, "ns");
  }
  PrintResult(result);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gsps::perfbench

int main(int argc, char** argv) { return gsps::perfbench::Main(argc, argv); }
