#include "gsps/engine/pipelined_query_engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "gsps/common/check.h"
#include "gsps/common/stopwatch.h"
#include "gsps/engine/shard_assignment.h"

namespace gsps {

namespace {

// Batch sizes for the router's MPSC pops and the workers' lane pops: one
// mutex/atomic handshake amortized over up to this many events.
constexpr size_t kRouterBatch = 64;
constexpr size_t kWorkerBatch = 64;

}  // namespace

PipelinedQueryEngine::PipelinedQueryEngine(
    const PipelinedEngineOptions& options)
    : options_(options) {
  GSPS_CHECK(options.num_threads >= 0);
  GSPS_CHECK(options.ingest_capacity >= 1);
  GSPS_CHECK(options.lane_capacity >= 1);
  if (options_.num_threads == 0) {
    options_.num_threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
}

PipelinedQueryEngine::~PipelinedQueryEngine() { Shutdown(); }

int PipelinedQueryEngine::AddQuery(const Graph& query) {
  GSPS_CHECK_MSG(!started_, "use AddQueryDynamic after Start()");
  pending_queries_.push_back(query);
  return num_queries_++;
}

int PipelinedQueryEngine::AddStream(Graph start) {
  GSPS_CHECK_MSG(!started_, "streams are fixed at Start()");
  pending_streams_.push_back(std::move(start));
  return static_cast<int>(pending_streams_.size()) - 1;
}

void PipelinedQueryEngine::Start() {
  GSPS_CHECK(!started_);
  started_ = true;
  const int num_streams = static_cast<int>(pending_streams_.size());
  const int num_shards =
      std::max(1, std::min(options_.num_threads, num_streams));

  std::vector<int64_t> weights(pending_streams_.size());
  for (size_t i = 0; i < pending_streams_.size(); ++i) {
    weights[i] = pending_streams_[i].NumEdges();
  }
  const ShardPlan plan = PlanShardAssignment(weights, num_shards);
  stream_to_shard_ = plan.stream_to_shard;
  stream_to_local_ = plan.stream_to_local;

  // Workers are constructed on the driver thread (trace buffers in
  // ascending shard order); the heavy setup — query vectors and initial
  // NNT builds — runs on the worker threads.
  workers_.resize(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    auto& worker = workers_[static_cast<size_t>(s)];
    worker = std::make_unique<Worker>(options_.lane_capacity, options_.engine);
    if constexpr (obs::kEnabled) {
      worker->trace = obs::Tracer::Global().NewBuffer(s + 1);
    }
    worker->global_streams = plan.shard_streams[static_cast<size_t>(s)];
    const size_t locals = worker->global_streams.size();
    worker->epoch_candidates.resize(locals);
    worker->pending.resize(locals);
    worker->pending_ts.assign(locals, -1);
    worker->pending_stamp.assign(locals, 0);
    worker->audit.Reset(num_streams);
  }
  ingest_ = std::make_unique<IngestQueue>(options_.ingest_capacity);
  tracker_ = CandidateTracker(num_streams);
  query_retired_.assign(static_cast<size_t>(num_queries_), false);
  num_active_queries_ = num_queries_;

  for (int s = 0; s < num_shards; ++s) {
    workers_[static_cast<size_t>(s)]->thread =
        std::thread(&PipelinedQueryEngine::WorkerLoop, this, s);
  }
  // The pending_* buffers feed the workers' shard setup; wait until every
  // worker is past setup before clearing them and opening the router.
  {
    std::unique_lock<std::mutex> lock(epoch_mutex_);
    epoch_cv_.wait(lock, [&] {
      return ready_workers_.load(std::memory_order_acquire) == num_shards;
    });
  }
  pending_queries_.clear();
  pending_streams_.clear();
  router_ = std::thread(&PipelinedQueryEngine::RouterLoop, this);

  if constexpr (obs::kEnabled) {
    obs::MetricSink sink;
    sink.Set(obs::Gauge::kEngineShards, num_shards);
    sink.Set(obs::Gauge::kEngineStreams, num_streams);
    sink.Set(obs::Gauge::kEngineQueries, num_queries_);
    sink.Set(obs::Gauge::kQueriesActive, num_queries_);
    sink.Set(obs::Gauge::kShardImbalanceRatio,
             std::llround(plan.imbalance_ratio * 1000.0));
    obs::MetricsRegistry::Global().MergeAndReset(sink);
  }

  // Epoch 0: snapshot the timestamp-0 state so reads are valid before any
  // data arrives.
  AdvanceEpoch(0);
}

bool PipelinedQueryEngine::Ingest(IngestEvent event) {
  GSPS_CHECK(started_);
  GSPS_CHECK_MSG(event.stream >= 0 && event.stream < num_streams(),
                 "Ingest: stream id out of range");
  return ingest_->Push(std::move(event));
}

void PipelinedQueryEngine::PushMarker(int32_t stream, int32_t timestamp) {
  IngestEvent marker;
  marker.stream = stream;
  marker.timestamp = timestamp;
  // Push stamps enqueue_micros with the publish time; the router forwards
  // with keep_stamp so watermark lag is measured from this instant.
  GSPS_CHECK(ingest_->Push(std::move(marker)));
}

int32_t PipelinedQueryEngine::MinWatermark() const {
  int32_t low = INT32_MAX;
  for (const auto& worker : workers_) {
    low = std::min(low, worker->watermark.load(std::memory_order_acquire));
  }
  return low;
}

const PipelinedQueryEngine::Worker& PipelinedQueryEngine::WorkerOf(
    int stream) const {
  GSPS_CHECK(started_);
  GSPS_CHECK(stream >= 0 && stream < num_streams());
  return *workers_[static_cast<size_t>(
      stream_to_shard_[static_cast<size_t>(stream)])];
}

void PipelinedQueryEngine::AdvanceEpoch(int32_t timestamp) {
  GSPS_CHECK(started_ && !shutdown_);
  GSPS_CHECK_MSG(timestamp > epoch_, "epoch targets must be increasing");
  PushMarker(kEpochMarkerStream, timestamp);
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  epoch_cv_.wait(lock, [&] { return MinWatermark() >= timestamp; });
  epoch_ = timestamp;
}

std::vector<int> PipelinedQueryEngine::CandidatesForStream(int stream) const {
  std::vector<int> out;
  CandidatesForStream(stream, &out);
  return out;
}

void PipelinedQueryEngine::CandidatesForStream(int stream,
                                               std::vector<int>* out) const {
  const std::vector<int>& snapshot =
      WorkerOf(stream).epoch_candidates[static_cast<size_t>(
          stream_to_local_[static_cast<size_t>(stream)])];
  out->assign(snapshot.begin(), snapshot.end());
}

std::vector<std::pair<int, int>> PipelinedQueryEngine::AllCandidatePairs()
    const {
  std::vector<std::pair<int, int>> pairs;
  AllCandidatePairs(&pairs);
  return pairs;
}

void PipelinedQueryEngine::AllCandidatePairs(
    std::vector<std::pair<int, int>>* out) const {
  GSPS_CHECK(started_);
  out->clear();
  // Deterministic merge: ascending global stream, queries ascending within
  // (each snapshot is already ascending) — the sequential engine's order.
  for (int i = 0; i < num_streams(); ++i) {
    for (const int q : WorkerOf(i).epoch_candidates[static_cast<size_t>(
             stream_to_local_[static_cast<size_t>(i)])]) {
      out->emplace_back(i, q);
    }
  }
}

void PipelinedQueryEngine::ObserveTransitions(int stream,
                                              std::vector<int>* current,
                                              CandidateTransitions* out) {
  GSPS_CHECK(started_);
  tracker_.Observe(stream, current, out);
}

const std::vector<int>& PipelinedQueryEngine::LastObservedCandidates(
    int stream) const {
  GSPS_CHECK(started_);
  return tracker_.LastObserved(stream);
}

bool PipelinedQueryEngine::VerifyCandidate(int stream, int query) const {
  return WorkerOf(stream).shard.VerifyCandidate(
      stream_to_local_[static_cast<size_t>(stream)], query);
}

TimestampStats PipelinedQueryEngine::TakeBarrierStats() {
  GSPS_CHECK(started_);
  std::vector<TimestampStats> samples;
  samples.reserve(workers_.size());
  for (auto& worker : workers_) {
    samples.push_back(worker->epoch_stats);
    worker->epoch_stats = TimestampStats{};
  }
  return MergeParallelSamples(samples);
}

int PipelinedQueryEngine::AddQueryDynamic(const Graph& query) {
  GSPS_CHECK(started_ && !shutdown_);
  ControlOp op;
  op.add = true;
  op.query = query;
  control_ops_.push_back(std::move(op));
  const int64_t needed = static_cast<int64_t>(control_ops_.size());
  PushMarker(kControlOpStream, static_cast<int32_t>(needed - 1));
  {
    std::unique_lock<std::mutex> lock(epoch_mutex_);
    epoch_cv_.wait(lock, [&] {
      for (const auto& worker : workers_) {
        if (worker->acked_ops.load(std::memory_order_acquire) < needed) {
          return false;
        }
      }
      return true;
    });
  }
  const int engine_id = workers_.front()->last_control_slot;
  for (const auto& worker : workers_) {
    GSPS_CHECK_MSG(worker->last_control_slot == engine_id,
                   "shards disagree on the reused query slot");
  }
  num_queries_ = std::max(num_queries_, engine_id + 1);
  if (static_cast<int>(query_retired_.size()) < num_queries_) {
    query_retired_.resize(static_cast<size_t>(num_queries_), false);
  }
  query_retired_[static_cast<size_t>(engine_id)] = false;
  ++num_active_queries_;
  return engine_id;
}

void PipelinedQueryEngine::RemoveQueryDynamic(int query) {
  GSPS_CHECK(started_ && !shutdown_);
  GSPS_CHECK_MSG(query >= 0 && query < num_queries_,
                 "RemoveQueryDynamic: query id out of range");
  GSPS_CHECK_MSG(!query_retired_[static_cast<size_t>(query)],
                 "RemoveQueryDynamic: query was already removed");
  ControlOp op;
  op.query_id = query;
  control_ops_.push_back(std::move(op));
  const int64_t needed = static_cast<int64_t>(control_ops_.size());
  PushMarker(kControlOpStream, static_cast<int32_t>(needed - 1));
  {
    std::unique_lock<std::mutex> lock(epoch_mutex_);
    epoch_cv_.wait(lock, [&] {
      for (const auto& worker : workers_) {
        if (worker->acked_ops.load(std::memory_order_acquire) < needed) {
          return false;
        }
      }
      return true;
    });
  }
  query_retired_[static_cast<size_t>(query)] = true;
  --num_active_queries_;
}

void PipelinedQueryEngine::CheckChurnInvariants() const {
  GSPS_CHECK(started_);
  for (const auto& worker : workers_) {
    worker->shard.CheckChurnInvariants();
    GSPS_CHECK(worker->shard.num_queries() == num_queries_);
    GSPS_CHECK(worker->shard.num_active_queries() == num_active_queries_);
  }
}

void PipelinedQueryEngine::Shutdown() {
  if (!started_ || shutdown_) return;
  shutdown_ = true;
  ingest_->Close();
  if (router_.joinable()) router_.join();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  if constexpr (obs::kEnabled) {
    obs::MetricSink sink;
    sink.Add(obs::Counter::kPipelineEventsRouted,
             events_routed_.load(std::memory_order_relaxed));
    sink.Add(obs::Counter::kPipelineMarkersBroadcast,
             markers_broadcast_.load(std::memory_order_relaxed));
    const IngestQueueStats stats = ingest_->Stats();
    sink.Add(obs::Counter::kIngestAccepted, stats.accepted);
    sink.Add(obs::Counter::kIngestDelivered, stats.delivered);
    sink.Add(obs::Counter::kIngestProducerWaits, stats.producer_waits);
    sink.Set(obs::Gauge::kIngestQueueDepth, stats.depth_high_water);
    obs::MetricsRegistry::Global().MergeAndReset(sink);
  }
}

const Graph& PipelinedQueryEngine::StreamGraph(int stream) const {
  return WorkerOf(stream).shard.StreamGraph(
      stream_to_local_[static_cast<size_t>(stream)]);
}

const Graph& PipelinedQueryEngine::QueryGraph(int query) const {
  GSPS_CHECK(started_);
  return workers_.front()->shard.QueryGraph(query);
}

PipelinedQueryEngine::LaneReport PipelinedQueryEngine::ReportLane(
    int shard) const {
  GSPS_CHECK(shard >= 0 && shard < num_shards());
  const Worker& worker = *workers_[static_cast<size_t>(shard)];
  LaneReport report;
  report.lane = worker.lane.Stats();
  report.applied_batches = worker.applied_batches;
  report.applied_events = worker.applied_events;
  report.coalesced_events = worker.coalesced_events;
  report.order_violations = worker.audit.violations();
  report.steady_allocs = worker.steady_allocs;
  report.watermark = worker.watermark.load(std::memory_order_acquire);
  report.e2e_micros = worker.e2e;
  report.watermark_lag_micros = worker.lag;
  return report;
}

// --- Router ----------------------------------------------------------------

void PipelinedQueryEngine::RouterLoop() {
  std::vector<IngestEvent> batch;
  batch.reserve(kRouterBatch);
  while (ingest_->PopBatch(&batch, kRouterBatch) > 0) {
    for (IngestEvent& event : batch) {
      if (event.stream < 0) {
        // Epoch/control markers fan out to every lane. Lane FIFO then
        // guarantees each worker sees the marker after everything routed
        // before it.
        markers_broadcast_.fetch_add(1, std::memory_order_relaxed);
        for (auto& worker : workers_) {
          IngestEvent copy = event;
          copy.keep_stamp = true;
          GSPS_CHECK(worker->lane.Push(std::move(copy)));
        }
      } else {
        events_routed_.fetch_add(1, std::memory_order_relaxed);
        const int shard = stream_to_shard_[static_cast<size_t>(event.stream)];
        // keep_stamp: the producer's enqueue stamp is the e2e latency
        // baseline; the second hop must not re-stamp it.
        event.keep_stamp = true;
        GSPS_CHECK(
            workers_[static_cast<size_t>(shard)]->lane.Push(std::move(event)));
      }
    }
  }
  // Producer side closed and drained: close the lanes so workers exit
  // after draining what they already received.
  for (auto& worker : workers_) worker->lane.Close();
}

// --- Worker ----------------------------------------------------------------

void PipelinedQueryEngine::FlushPending(Worker& worker, int local) {
  const size_t l = static_cast<size_t>(local);
  worker.audit.ObserveInOrder(worker.global_streams[l], worker.pending_ts[l]);
  Stopwatch watch;
  {
    GSPS_OBS_SPAN("shard_update", "engine");
    worker.shard.ApplyChange(local, worker.pending[l]);
  }
  const double elapsed = watch.ElapsedMillis();
  worker.open_stats.update_millis += elapsed;
  worker.open_stats.busy_millis += elapsed;
  const int64_t e2e = obs::MonotonicMicros() - worker.pending_stamp[l];
  worker.e2e.Observe(e2e);
  GSPS_OBS_OBSERVE(Hist::kIngestE2eMicros, e2e);
  ++worker.applied_batches;
  worker.pending[l].ops.clear();
  worker.pending_ts[l] = -1;
}

void PipelinedQueryEngine::FlushAllPending(Worker& worker) {
  for (size_t local = 0; local < worker.pending_ts.size(); ++local) {
    if (worker.pending_ts[local] >= 0) {
      FlushPending(worker, static_cast<int>(local));
    }
  }
}

void PipelinedQueryEngine::HandleDataEvent(Worker& worker,
                                           IngestEvent& event) {
  const size_t local =
      static_cast<size_t>(stream_to_local_[static_cast<size_t>(event.stream)]);
  ++worker.applied_events;
  if (worker.pending_ts[local] == event.timestamp) {
    // A later fragment of the same (stream, timestamp) batch: merge before
    // NNT maintenance so the deletions-first protocol sees one batch.
    std::vector<EdgeOp>& ops = worker.pending[local].ops;
    ops.insert(ops.end(), event.change.ops.begin(), event.change.ops.end());
    worker.pending_stamp[local] =
        std::min(worker.pending_stamp[local], event.enqueue_micros);
    ++worker.coalesced_events;
    GSPS_OBS_COUNT(Counter::kPipelineCoalescedDeltas, 1);
    return;
  }
  if (worker.pending_ts[local] >= 0) {
    FlushPending(worker, static_cast<int>(local));
  }
  // Copy into the retained buffer (ops are PODs) instead of stealing the
  // event's vector: the buffer's warmed capacity is what keeps the steady
  // worker loop allocation-free.
  std::vector<EdgeOp>& ops = worker.pending[local].ops;
  ops.assign(event.change.ops.begin(), event.change.ops.end());
  worker.pending_ts[local] = event.timestamp;
  worker.pending_stamp[local] = event.enqueue_micros;
}

void PipelinedQueryEngine::HandleMarker(Worker& worker,
                                        const IngestEvent& marker) {
  FlushAllPending(worker);
  // Snapshot each local stream's candidates for the epoch readers.
  Stopwatch watch;
  int64_t candidates = 0;
  {
    GSPS_OBS_SPAN("shard_join", "engine");
    for (size_t local = 0; local < worker.global_streams.size(); ++local) {
      worker.shard.CandidatesForStream(static_cast<int>(local),
                                       &worker.epoch_candidates[local]);
      candidates +=
          static_cast<int64_t>(worker.epoch_candidates[local].size());
    }
  }
  const double elapsed = watch.ElapsedMillis();
  TimestampStats& open = worker.open_stats;
  open.join_millis += elapsed;
  open.busy_millis += elapsed;
  // Fold this epoch's sample into the snapshot TakeBarrierStats drains;
  // open_stats restarts for the next epoch.
  TimestampStats& epoch = worker.epoch_stats;
  epoch.timestamp = marker.timestamp;
  epoch.candidate_pairs += candidates;
  epoch.total_pairs = static_cast<int64_t>(worker.global_streams.size()) *
                      worker.shard.num_queries();
  epoch.update_millis += open.update_millis;
  epoch.join_millis += open.join_millis;
  epoch.busy_millis += open.busy_millis;
  open = TimestampStats{};

  const int64_t lag = obs::MonotonicMicros() - marker.enqueue_micros;
  worker.lag.Observe(lag);
  // The steady-allocation interval covers everything since the previous
  // marker's bookkeeping — pop, coalesce, ApplyChange, flush, and this
  // epoch's snapshot — but excludes the metrics merge below (obs
  // infrastructure, not the worker loop).
  if (options_.alloc_probe != nullptr) {
    const int64_t probe = options_.alloc_probe();
    if (worker.epochs_seen >= options_.alloc_warmup_epochs) {
      worker.steady_allocs += probe - worker.last_probe;
    }
  }
  ++worker.epochs_seen;
  if constexpr (obs::kEnabled) {
    GSPS_OBS_OBSERVE(Hist::kPipelineWatermarkLagMicros, lag);
    GSPS_OBS_GAUGE_SET(Gauge::kPipelineLaneDepth,
                       worker.lane.Stats().depth_high_water);
    worker.shard.FlushAttribution();
    obs::MetricsRegistry::Global().MergeAndReset(worker.sink);
  }

  // Publish only after every snapshot write above: the driver's acquire
  // load of the watermark is what makes them visible.
  worker.watermark.store(marker.timestamp, std::memory_order_release);
  { std::lock_guard<std::mutex> lock(epoch_mutex_); }
  epoch_cv_.notify_all();
  if (options_.alloc_probe != nullptr) {
    worker.last_probe = options_.alloc_probe();
  }
}

void PipelinedQueryEngine::HandleControlOp(Worker& worker,
                                           const IngestEvent& event) {
  // Pending data precedes the op in this shard's history; flush so the op
  // lands at the same point on every shard.
  FlushAllPending(worker);
  const size_t index = static_cast<size_t>(event.timestamp);
  const ControlOp& op = control_ops_[index];
  int slot = -1;
  if (op.add) {
    slot = worker.shard.AddQueryDynamic(op.query);
  } else {
    worker.shard.RemoveQueryDynamic(op.query_id);
  }
  worker.last_control_slot = slot;
  worker.acked_ops.store(static_cast<int64_t>(index) + 1,
                         std::memory_order_release);
  { std::lock_guard<std::mutex> lock(epoch_mutex_); }
  epoch_cv_.notify_all();
}

void PipelinedQueryEngine::WorkerLoop(int s) {
  Worker& worker = *workers_[static_cast<size_t>(s)];
  StreamShard& shard = worker.shard;
  // Shard setup runs here so it is parallel across workers.
  for (const Graph& query : pending_queries_) shard.AddQuery(query);
  for (const int i : worker.global_streams) {
    shard.AddStream(pending_streams_[static_cast<size_t>(i)]);
  }
  shard.Start();
  ready_workers_.fetch_add(1, std::memory_order_release);
  { std::lock_guard<std::mutex> lock(epoch_mutex_); }
  epoch_cv_.notify_all();

  std::optional<obs::ScopedObsContext> obs_scope;
  if constexpr (obs::kEnabled) obs_scope.emplace(&worker.sink, worker.trace);
  if (options_.alloc_probe != nullptr) {
    worker.last_probe = options_.alloc_probe();
  }
  std::vector<IngestEvent> batch;
  batch.reserve(kWorkerBatch);
  while (worker.lane.PopBatch(&batch, kWorkerBatch) > 0) {
    for (IngestEvent& event : batch) {
      if (event.stream == kEpochMarkerStream) {
        HandleMarker(worker, event);
      } else if (event.stream == kControlOpStream) {
        HandleControlOp(worker, event);
      } else {
        HandleDataEvent(worker, event);
      }
    }
  }
  // Lane closed and drained. Apply any tail batches never covered by a
  // marker so every accepted event reaches the shard (lossless shutdown).
  FlushAllPending(worker);
  if constexpr (obs::kEnabled) {
    shard.FlushAttribution();
    obs::MetricsRegistry::Global().MergeAndReset(worker.sink);
  }
}

}  // namespace gsps
