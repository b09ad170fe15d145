// Bounded MPSC ingest queue with blocking backpressure.
//
// The wire between delta producers (network readers, loadgen replay
// threads) and the single consumer thread that drains it — the pipelined
// engine's router. The contract the ingest pipeline is built on:
//
//   - Bounded: at most `capacity` events are ever buffered; a full queue
//     BLOCKS producers (backpressure) instead of dropping or resizing.
//   - Lossless: an event accepted by Push (return true) is delivered by
//     exactly one Pop/PopBatch. Close() rejects later Pushes (return
//     false, event untouched) but drains everything already accepted —
//     Pop keeps succeeding until the queue is empty, then returns false.
//   - FIFO: events leave in global arrival order, so the deltas of one
//     stream are never reordered relative to each other — the engine's
//     deletions-first batch protocol stays intact per batch, and
//     timestamps per stream stay monotone as long as each stream has one
//     producer.
//
// Push stamps each event with the enqueue time (obs::MonotonicMicros, a
// plain clock read that works in GSPS_OBS_DISABLED builds), so the
// consumer can compute true end-to-end latency — queue wait included —
// the number that exposes coordinated omission under open-loop load.
//
// The queue keeps its own counters (accepted, delivered, producer waits,
// depth high-water) instead of recording obs metrics internally: producer
// threads have no obs context, and the engine owning the queue decides
// which sink the stats land in (PipelinedQueryEngine::Shutdown).

#ifndef GSPS_ENGINE_INGEST_QUEUE_H_
#define GSPS_ENGINE_INGEST_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "gsps/graph/graph_change.h"

namespace gsps {

// One change batch addressed to one stream.
struct IngestEvent {
  int32_t stream = 0;
  int32_t timestamp = 0;
  // Stamped by Push: when the event entered the queue. For open-loop
  // drivers that schedule sends, the producer may pre-set this to the
  // *intended* send time (earlier than the actual Push when the producer
  // fell behind) by setting `keep_stamp`; latency measured from it then
  // includes producer lag instead of hiding it.
  int64_t enqueue_micros = 0;
  bool keep_stamp = false;
  GraphChange change;
};

struct IngestQueueStats {
  int64_t accepted = 0;        // Events Push returned true for.
  int64_t delivered = 0;       // Events handed out by Pop/PopBatch.
  int64_t producer_waits = 0;  // Times a Push blocked on a full queue.
  int64_t depth_high_water = 0;
};

class IngestQueue {
 public:
  // `capacity` must be >= 1.
  explicit IngestQueue(size_t capacity);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  // Enqueues one event, blocking while the queue is full. Returns true
  // once the event is in; returns false (event not enqueued) when the
  // queue was closed before space became available.
  bool Push(IngestEvent event);

  // Dequeues the oldest event, blocking while the queue is empty. Returns
  // false only when the queue is closed AND fully drained.
  bool Pop(IngestEvent* out);

  // Dequeues up to `max_events` (>= 1) in arrival order, blocking until at
  // least one event is available. Clears *out first; returns the number
  // dequeued — 0 only when closed and drained. Batching amortizes the
  // lock: under load the consumer takes one mutex hit for a whole batch.
  size_t PopBatch(std::vector<IngestEvent>* out, size_t max_events);

  // Rejects all future Pushes and wakes every waiter. Already-accepted
  // events remain poppable (drain-on-shutdown). Idempotent.
  void Close();

  size_t capacity() const { return capacity_; }
  size_t size() const;
  bool closed() const;
  IngestQueueStats Stats() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<IngestEvent> events_;
  IngestQueueStats stats_;
  bool closed_ = false;
};

// Bounded single-producer/single-consumer lane over a preallocated ring.
//
// The per-shard wire of the pipelined engine: the router thread is the one
// producer, the shard worker the one consumer. Same contract as
// IngestQueue (bounded, blocking backpressure, lossless, FIFO,
// drain-on-Close, keep_stamp stamping), but the fast path is two atomic
// loads and one release store — no mutex, no allocation: the slot ring is
// sized once in the constructor, so a lane never touches the heap after
// construction (the events moved through it carry their own buffers).
//
// Blocking uses a mutex + condvars only on the slow path. The notify
// handshake is the classic store-buffering pattern: the fast path's
// seq_cst publish store and the sleeper-count check cannot both miss, so a
// waiter either sees the new state or is woken under the mutex it
// registered with.
//
// Threading contract: at most one thread calls Push and at most one calls
// Pop/PopBatch at any time. Close() may be called by either (in the
// pipelined engine the producer closes its own lane); a Push racing with
// Close may still be accepted, and is then drained like any other event.
class SpscLane {
 public:
  // `capacity` must be >= 1.
  explicit SpscLane(size_t capacity);

  SpscLane(const SpscLane&) = delete;
  SpscLane& operator=(const SpscLane&) = delete;

  // Same semantics as IngestQueue::Push: blocks while full, stamps
  // enqueue_micros unless keep_stamp, returns false once closed.
  bool Push(IngestEvent event);

  // Same semantics as IngestQueue::Pop / PopBatch.
  bool Pop(IngestEvent* out);
  size_t PopBatch(std::vector<IngestEvent>* out, size_t max_events);

  void Close();

  size_t capacity() const { return capacity_; }
  size_t size() const;
  bool closed() const { return closed_.load(std::memory_order_acquire); }
  // Exact once the lane is quiescent (producer and consumer done);
  // approximate while both sides are live.
  IngestQueueStats Stats() const;

 private:
  bool WaitForSpace(uint64_t tail);
  bool WaitForEvent(uint64_t head);

  const size_t capacity_;
  std::vector<IngestEvent> slots_;
  // head_ == next slot to pop (consumer-advanced), tail_ == next slot to
  // fill (producer-advanced); size = tail_ - head_ with free-running
  // 64-bit indices (no wrap handling needed at realistic event counts).
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> tail_{0};
  std::atomic<bool> closed_{false};
  std::atomic<int64_t> producer_waits_{0};
  std::atomic<int64_t> depth_high_water_{0};
  // Number of threads registered on either condvar; checked after every
  // publish so the fast path skips the mutex when nobody sleeps.
  std::atomic<int> sleepers_{0};
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
};

}  // namespace gsps

#endif  // GSPS_ENGINE_INGEST_QUEUE_H_
