// One pass through the scheduler: the calling thread is the load
// generator and epoch driver; events go IngestQueue -> router -> SPSC lanes
// -> shard workers.
//
// The generator pushes tick t's events, closes epoch t and reads its
// snapshot before it pushes tick t+1: an epoch snapshot equals the
// sequential engine's state only when no later tick's event precedes its
// marker in the queue. Open-loop hygiene: at a fixed rate, tick t's batch
// is due when the schedule alone says so (edge ops of ticks 1..t / rate),
// never when the engine finished the previous tick. Latency is measured
// from that due time, so a slow epoch is charged to every tick queued
// behind it, and the generator's lateness is reported beside it.

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "gsps/obs/trace.h"
#include "gsps/obs/window.h"
#include "perfbench.h"

namespace gsps::perfbench {

PipelinedEngineOptions BenchPipelinedOptions() {
  PipelinedEngineOptions options;
  options.engine = BenchEngineOptions();
  options.num_threads = kWorkers;
  return options;
}

IngestPass RunIngest(const Inputs& inputs, PipelinedQueryEngine& engine,
                     int ticks, double ops_per_s,
                     const std::vector<uint64_t>& reference, bool plant_fault,
                     RunResult* result) {
  IngestPass pass;
  pass.ticks = ticks;
  const bool open_loop = ops_per_s > 0;
  const int n = inputs.num_streams();
  // Sleep with fine timer slack so due times are met to a few µs.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  bool rejected = false;
  int64_t ops_before = 0;
  std::vector<int> buffer;
  const Clock::time_point start = Clock::now();
  const int64_t start_micros = obs::MonotonicMicros();
  for (int t = 1; t <= ticks; ++t) {
    // Saturating: the tick counts as due when its last event was pushed.
    Clock::time_point due = start;
    int64_t due_micros = 0;
    if (open_loop) {
      const int64_t ops_through_t =
          ops_before + inputs.ops_at[static_cast<size_t>(t)];
      const double due_s = static_cast<double>(ops_through_t) / ops_per_s;
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s));
      due_micros = start_micros + std::llround(due_s * 1e6);
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      pass.lateness_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
    }
    for (int i = 0; i < n; ++i) {
      // Every stream sends at least one (possibly empty) event per tick:
      // the lanes' order audit expects each stream's timestamps without
      // gaps.
      const std::vector<EdgeOp>& ops = inputs.Change(i, t).ops;
      size_t b = 0;
      do {
        const size_t e = std::min(ops.size(), b + kFragmentOps);
        IngestEvent event;
        event.stream = i;
        event.timestamp = t;
        event.change.ops.assign(ops.begin() + static_cast<ptrdiff_t>(b),
                                ops.begin() + static_cast<ptrdiff_t>(e));
        if (open_loop) {
          event.keep_stamp = true;
          event.enqueue_micros = due_micros;
        }
        const Clock::time_point before = Clock::now();
        if (!engine.Ingest(std::move(event))) rejected = true;
        const Clock::time_point after = Clock::now();
        pass.ingest_block_ms +=
            std::chrono::duration<double, std::milli>(after - before).count();
        if (!open_loop) due = after;
        ops_before += static_cast<int64_t>(e - b);
        ++pass.events;
        b = e;
      } while (b < ops.size());
    }
    const Clock::time_point close = Clock::now();
    engine.AdvanceEpoch(t);
    const Clock::time_point closed = Clock::now();
    uint64_t hash = kHashSeed;
    for (int i = 0; i < n; ++i) {
      engine.CandidatesForStream(i, &buffer);
      hash = HashCandidates(hash, i, buffer);
    }
    const Clock::time_point read = Clock::now();
    pass.epoch_close_ms.push_back(
        std::chrono::duration<double, std::milli>(closed - close).count());
    pass.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(read - due).count());
    if (plant_fault && t == 1) hash ^= 1;
    if (hash != reference[static_cast<size_t>(t)]) {
      result->Fail(n, "epoch snapshot of tick " + std::to_string(t) +
                          " differs from the sequential engine");
    }
  }
  pass.seconds = SecondsSince(start);
  pass.ops = ops_before;
  result->attempted += pass.events;
  if (rejected) result->Fail(1, "Ingest rejected an event before Shutdown");

  engine.Shutdown();
  obs::HistogramData e2e;
  obs::HistogramData lag;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const PipelinedQueryEngine::LaneReport report = engine.ReportLane(s);
    e2e.MergeFrom(report.e2e_micros);
    lag.MergeFrom(report.watermark_lag_micros);
    pass.lane_depth_max =
        std::max(pass.lane_depth_max, report.lane.depth_high_water);
    pass.coalesced_events += report.coalesced_events;
    pass.applied_events += report.applied_events;
    if (report.order_violations != 0) {
      result->Fail(report.order_violations,
                   "lane " + std::to_string(s) + " reordered events");
    }
    if (report.lane.accepted != report.lane.delivered) {
      result->Fail(report.lane.accepted - report.lane.delivered,
                   "lane " + std::to_string(s) + " lost events");
    }
  }
  const IngestQueueStats queue = engine.ingest_queue().Stats();
  if (queue.accepted != queue.delivered) {
    result->Fail(queue.accepted - queue.delivered, "ingest queue lost events");
  }
  if (pass.applied_events != pass.events) {
    result->Fail(std::abs(pass.events - pass.applied_events),
                 "workers applied " + std::to_string(pass.applied_events) +
                     " of " + std::to_string(pass.events) + " events");
  }
  pass.apply_e2e_p50_ms = obs::HistogramQuantile(e2e, 0.5) / 1e3;
  pass.watermark_lag_p99_ms = obs::HistogramQuantile(lag, 0.99) / 1e3;
  return pass;
}

}  // namespace gsps::perfbench
