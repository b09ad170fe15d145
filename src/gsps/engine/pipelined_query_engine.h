// Threaded execution over StreamShards.
//
// By Lemma 4.2 a stream's candidate set depends only on that stream's own
// NPVs, so the streams are partitioned across shards — each a complete,
// independent engine core with its own DimensionTable, NntSets and join
// strategy over the full query workload (see stream_shard.h) — and every
// shard gets a dedicated worker thread fed by its own bounded SPSC lane.
// Duplicating the query-side state per shard costs a one-time setup pass
// plus a few kilobytes per query, and buys a hot path with zero shared
// mutable state (dimension ids then differ between shards, but ids are a
// private encoding; candidate sets do not). A router thread classifies
// incoming IngestEvents by the stream -> shard plan (LPT, see
// shard_assignment.h) and forwards them (IngestQueue's lossless/
// backpressure contract end to end), so shards tick asynchronously at
// their own pace, with no barrier between timestamps:
//
//   producers -> IngestQueue (MPSC) -> router -> SpscLane x S -> workers
//
// Inside a worker, consecutive delta fragments addressed to the same
// (stream, timestamp) coalesce into one GraphChange batch before NNT
// maintenance. This amortizes dirty-root drains and join refreshes — and
// it is also what keeps split deltas correct: the paper's deletions-first
// protocol (§III.B) is defined per whole timestamp batch, so fragments
// must be merged before ApplyChange or the result could diverge from the
// sequential engine. A batch is flushed when a later timestamp arrives for
// its stream, or at an epoch/control marker.
//
// Consistency is reconciled at epochs. The driver publishes a target
// timestamp as an in-band marker that the router broadcasts to every lane;
// because lanes are FIFO, a marker reaches each worker only after every
// event published before it. On the marker, a worker flushes its pending
// batches, snapshots each local stream's candidate set and its accumulated
// stats into its epoch_* fields, merges its metric sink, and only then
// release-publishes its watermark. AdvanceEpoch returns once
// min(watermarks) >= target, after which AllCandidatePairs /
// CandidatesForStream / ObserveTransitions / TakeBarrierStats read the
// snapshots — byte-identical to the sequential engine at that timestamp
// (fuzz oracle 8 enforces this). A driver that closes an epoch after every
// timestamp runs the shards in lockstep (gsps_monitor, the figure
// harnesses' --threads mode); one that closes epochs less often lets light
// shards run ahead of heavy ones in between.
//
// Driver discipline the snapshot protocol relies on (checked where cheap,
// documented where not): AdvanceEpoch(t) may only be called once every
// data event with timestamp <= t has been pushed, epoch targets are
// strictly increasing, and a single driver thread issues epochs and churn
// ops. Producers may keep pushing data for later epochs while the driver
// reads — workers write only next-epoch state until the next marker, never
// the published snapshots.
//
// Dynamic queries ride the same in-band channel: AddQueryDynamic /
// RemoveQueryDynamic append a control op, broadcast a control marker, and
// block until every worker has applied it (flushing pending data first, so
// the op lands at the same point of every shard's history); every shard
// must then report the same reused query slot (checked).

#ifndef GSPS_ENGINE_PIPELINED_QUERY_ENGINE_H_
#define GSPS_ENGINE_PIPELINED_QUERY_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "gsps/engine/candidate_tracker.h"
#include "gsps/engine/filter_stats.h"
#include "gsps/engine/ingest_audit.h"
#include "gsps/engine/ingest_queue.h"
#include "gsps/engine/stream_shard.h"
#include "gsps/graph/graph.h"
#include "gsps/graph/graph_change.h"
#include "gsps/obs/obs.h"

namespace gsps {

// In-band marker streams. Events with a negative stream are broadcast by
// the router to every lane instead of being routed.
inline constexpr int32_t kEpochMarkerStream = -1;  // timestamp = target.
inline constexpr int32_t kControlOpStream = -2;    // timestamp = op index.

struct PipelinedEngineOptions {
  EngineOptions engine;
  // Worker count; 0 means one per hardware thread. The effective shard
  // count is min(num_threads, num_streams). The router adds one
  // mostly-idle thread on top.
  int num_threads = 0;
  // Capacity of the shared producer-facing MPSC queue and of each
  // per-shard SPSC lane.
  size_t ingest_capacity = 4096;
  size_t lane_capacity = 1024;
  // Optional allocation probe sampled by each worker around its marker
  // processing (a per-thread allocation count, e.g. from
  // gsps/common/alloc_hook.h). The engine never references the alloc-hook
  // symbols itself — binaries that link the hook inject it here, and
  // LaneReport::steady_allocs then proves the steady-state worker loop
  // (pop, coalesce, ApplyChange, flush, snapshot) stays off the heap.
  int64_t (*alloc_probe)() = nullptr;
  // Epochs (counting the epoch-0 close at Start) whose allocations are
  // warmup rather than steady state. The default covers buffer fills on
  // first use; callers whose workload finishes warming slabs and free
  // lists later (micro_pipeline's identity cycles need one full reuse
  // pass) raise it to start the steady-state clock at a later epoch.
  int64_t alloc_warmup_epochs = 2;
};

class PipelinedQueryEngine {
 public:
  explicit PipelinedQueryEngine(const PipelinedEngineOptions& options);
  ~PipelinedQueryEngine();  // Implies Shutdown().

  PipelinedQueryEngine(const PipelinedQueryEngine&) = delete;
  PipelinedQueryEngine& operator=(const PipelinedQueryEngine&) = delete;

  // --- Setup (before Start) -------------------------------------------------

  int AddQuery(const Graph& query);
  int AddStream(Graph start);

  // Places the streams on min(num_threads, num_streams) shards, builds the
  // shards (shard-parallel, on the worker threads), starts the router, and
  // completes epoch 0 — the timestamp-0 snapshot — so reads are valid
  // immediately.
  void Start();

  // --- Ingest ---------------------------------------------------------------

  // Enqueues one data event (stream >= 0, timestamp >= 1, timestamps
  // non-decreasing per stream with one producer per stream). Blocks on
  // backpressure; returns false only after Shutdown closed the queue.
  // Multi-producer safe.
  bool Ingest(IngestEvent event);

  // The shared ingest queue, whose counters (accepted vs delivered) let
  // open-loop drivers prove that no event was lost.
  IngestQueue& ingest_queue() { return *ingest_; }

  // --- Epoch protocol (single driver thread) --------------------------------

  // Publishes the epoch marker for `timestamp` (strictly greater than the
  // previous epoch) and blocks until every shard's watermark reaches it.
  // Caller guarantees all data events with timestamp <= `timestamp` were
  // pushed before this call.
  void AdvanceEpoch(int32_t timestamp);

  // Last completed epoch (-0 after Start; -1 before).
  int32_t epoch() const { return epoch_; }

  // --- Epoch-consistent reads (driver thread, between epochs) ---------------

  // The candidate set of `stream` as of the last completed epoch.
  std::vector<int> CandidatesForStream(int stream) const;
  void CandidatesForStream(int stream, std::vector<int>* out) const;

  // All candidate (stream, query) pairs as of the last completed epoch,
  // ascending stream-major — byte-identical to the sequential engine at
  // the epoch timestamp.
  std::vector<std::pair<int, int>> AllCandidatePairs() const;
  void AllCandidatePairs(std::vector<std::pair<int, int>>* out) const;

  // Diffs `*current` against the driver-side tracker (same semantics as
  // the other engines; the caller picks what to observe).
  void ObserveTransitions(int stream, std::vector<int>* current,
                          CandidateTransitions* out);
  const std::vector<int>& LastObservedCandidates(int stream) const;

  // Exact subgraph-isomorphism check against the shard's live graph. Only
  // valid when the engine is quiescent past the last epoch (no data events
  // pushed since AdvanceEpoch returned).
  bool VerifyCandidate(int stream, int query) const;

  // Merges and clears the per-shard stats accumulated at epoch closes
  // since the previous call: candidate counts sum across shards, update
  // (batch apply) and join (epoch snapshot) costs take the slowest shard,
  // busy time sums. See MergeParallelSamples.
  TimestampStats TakeBarrierStats();

  // --- Dynamic queries (driver thread) --------------------------------------

  int AddQueryDynamic(const Graph& query);
  void RemoveQueryDynamic(int query);
  // Quiescent-only, like VerifyCandidate.
  void CheckChurnInvariants() const;

  // --- Shutdown -------------------------------------------------------------

  // Closes the ingest queue, drains router and lanes (workers flush any
  // pending batches on exit, so every accepted event is applied), joins
  // all threads, and folds the router/queue counters into the metrics
  // registry. Idempotent; reads stay valid afterwards.
  void Shutdown();

  // --- Introspection --------------------------------------------------------

  int num_streams() const { return static_cast<int>(stream_to_shard_.size()); }
  int num_queries() const { return num_queries_; }
  int num_active_queries() const { return num_active_queries_; }
  int num_shards() const { return static_cast<int>(workers_.size()); }
  int num_threads() const { return options_.num_threads; }
  const Graph& StreamGraph(int stream) const;  // Quiescent-only.
  const Graph& QueryGraph(int query) const;    // Quiescent-only.

  // Per-lane accounting for audits and latency reporting. Valid after
  // Shutdown(), or between epochs while no data events are in flight past
  // the last marker.
  struct LaneReport {
    IngestQueueStats lane;          // SPSC lane counters.
    int64_t applied_batches = 0;    // Coalesced batches applied to the shard.
    int64_t applied_events = 0;     // Data events consumed from the lane.
    int64_t coalesced_events = 0;   // Fragments merged into a pending batch.
    int64_t order_violations = 0;   // Per-lane IngestOrderAudit total.
    int64_t steady_allocs = 0;      // Probe delta after the warmup epochs.
    int32_t watermark = -1;
    // Enqueue stamp -> applied. Includes the coalescing hold: a batch
    // waits for its stream's next event or the next marker, so under
    // open-loop load the hold is bounded by the driver's marker period.
    obs::HistogramData e2e_micros;
    obs::HistogramData watermark_lag_micros; // Marker publish -> advance.
  };
  LaneReport ReportLane(int shard) const;

 private:
  struct ControlOp {
    bool add = false;
    Graph query;    // Add payload.
    int query_id = -1;  // Remove target.
  };

  // One shard and everything its worker thread needs to drive it.
  struct Worker {
    Worker(size_t lane_capacity, const EngineOptions& engine)
        : lane(lane_capacity), shard(engine) {}

    SpscLane lane;
    StreamShard shard;
    std::vector<int> global_streams;  // Global id of each local stream.

    // Observability: the worker records into sink/trace (installed via
    // ScopedObsContext on its thread) and folds the sink into
    // MetricsRegistry::Global() at every epoch close — never a lock on the
    // hot path.
    obs::MetricSink sink;
    obs::TraceBuffer* trace = nullptr;

    // Worker-local coalescing state, indexed by local stream: the pending
    // batch, its timestamp (-1 = none), and the earliest fragment stamp.
    std::vector<GraphChange> pending;
    std::vector<int32_t> pending_ts;
    std::vector<int64_t> pending_stamp;
    // Costs and candidates since the previous marker (worker-private).
    TimestampStats open_stats;

    // Epoch snapshot: filled for the just-completed epoch before
    // `watermark` is release-published; the driver reads it only after
    // observing watermark >= target and publishes no new epoch until its
    // reads are done, so the pair needs no lock.
    std::vector<std::vector<int>> epoch_candidates;  // Per local stream.
    TimestampStats epoch_stats;  // Accumulated across epochs, drained by
                                 // TakeBarrierStats.
    std::atomic<int32_t> watermark{-1};

    IngestOrderAudit audit;
    int64_t applied_batches = 0;
    int64_t applied_events = 0;
    int64_t coalesced_events = 0;
    int64_t steady_allocs = 0;
    int64_t last_probe = 0;
    int64_t epochs_seen = 0;
    obs::HistogramData e2e;
    obs::HistogramData lag;

    // Control-op acknowledgement: the worker stores the resulting slot,
    // then release-publishes the count; the driver reads after acquire.
    int last_control_slot = -1;
    std::atomic<int64_t> acked_ops{0};

    // Declared last: the thread uses every member above and is joined
    // (Shutdown) before any of them is destroyed.
    std::thread thread;
  };

  const Worker& WorkerOf(int stream) const;
  void WorkerLoop(int s);
  void RouterLoop();
  // Applies the pending batch of `local` (audit, e2e stamp, shard apply).
  void FlushPending(Worker& worker, int local);
  void FlushAllPending(Worker& worker);
  void HandleDataEvent(Worker& worker, IngestEvent& event);
  void HandleMarker(Worker& worker, const IngestEvent& marker);
  void HandleControlOp(Worker& worker, const IngestEvent& event);
  // Pushes a broadcast marker (negative stream) and returns.
  void PushMarker(int32_t stream, int32_t timestamp);
  int32_t MinWatermark() const;

  PipelinedEngineOptions options_;
  std::vector<Graph> pending_queries_;
  std::vector<Graph> pending_streams_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int> stream_to_shard_;
  std::vector<int> stream_to_local_;
  std::unique_ptr<IngestQueue> ingest_;
  std::thread router_;

  // Driver-side candidate transition tracker over global streams.
  CandidateTracker tracker_{0};

  // Epoch / ack / setup rendezvous. Workers publish state with release
  // stores (watermarks, acked_ops, ready_workers_) and notify under
  // the mutex; the driver re-checks its predicate under the mutex.
  mutable std::mutex epoch_mutex_;
  std::condition_variable epoch_cv_;
  std::atomic<int> ready_workers_{0};

  // Control ops are append-only and only appended while every worker is
  // known to be past the previous op (the driver blocks on acks), so
  // workers can read entries by index without locking.
  std::vector<ControlOp> control_ops_;

  // Router-side counters (router-written, folded at Shutdown).
  std::atomic<int64_t> events_routed_{0};
  std::atomic<int64_t> markers_broadcast_{0};

  std::vector<bool> query_retired_;
  int num_queries_ = 0;
  int num_active_queries_ = 0;
  int32_t epoch_ = -1;
  bool started_ = false;
  bool shutdown_ = false;
};

}  // namespace gsps

#endif  // GSPS_ENGINE_PIPELINED_QUERY_ENGINE_H_
