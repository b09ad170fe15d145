// The traced run: the benchmark composes the public calls into each layer
// exactly as StreamShard::Start/ApplyChange/FlushDirty and the closed-loop
// read compose them (deletions first, then insertions; then the dirty-root
// flush; then every stream's candidates and transitions), with one span
// per call. Spans stay in memory and are written when the run ends. Tick
// by tick it alternates with an untraced ContinuousQueryEngine fed the
// same inputs: the traced candidate sets must equal the engine's at every
// tick, and the wall-time ratio of the two is the tracing overhead.
//
// Without churn the engine's strategy-to-engine query map is the identity,
// so the composition reads the strategy's candidate lists directly.

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <cstdio>
#include <initializer_list>
#include <memory>
#include <utility>

#include "gsps/engine/candidate_tracker.h"
#include "gsps/join/dominance.h"
#include "gsps/join/join_strategy.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"
#include "perfbench.h"

namespace gsps::perfbench {
namespace {

enum SpanName : int32_t {
  // Composition spans: parents, owned by no layer.
  kTick,
  kSetup,
  // Layer spans: leaves, one per public call (one per run of consecutive
  // graph calls of one edge insertion).
  kGraphHasEdge,
  kGraphRemoveEdge,
  kGraphAddEdge,
  kNntBuild,
  kNntDeleteEdge,
  kNntInsertEdge,
  kNntTakeDirty,
  kNntNpvOf,
  kJoinSetQueries,
  kJoinSetNumStreams,
  kJoinPrime,
  kJoinUpdate,
  kJoinRemove,
  kJoinCandidates,
  kEngineTrackerObserve,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "tick",
    "setup",
    "graph.has_edge",
    "graph.remove_edge",
    "graph.add_edge",
    "nnt.build",
    "nnt.delete_edge",
    "nnt.insert_edge",
    "nnt.take_dirty_roots",
    "nnt.npv_of",
    "join.set_queries",
    "join.set_num_streams",
    "join.prime",
    "join.update_stream_vertex",
    "join.remove_stream_vertex",
    "join.candidates_for_stream",
    "engine.tracker_observe",
};

bool IsLayerSpan(int32_t name) { return name >= kGraphHasEdge; }

// Spans are preallocated so recording never reallocates inside a timed
// call; the replay stops before the log fills.
constexpr size_t kMaxSpans = size_t{1} << 19;

// In-memory span log. Stamps are TSC reads where available (half the cost
// of a steady_clock read on x86-64 VMs, which matters around sub-µs
// calls), converted to nanoseconds against steady_clock when read out.
class SpanLog {
 public:
  struct Span {
    int32_t name;
    int32_t parent;
    int32_t stream;
    int32_t tick;
    uint64_t start;
    uint64_t end;
  };

  SpanLog() : clock_start_(Clock::now()), stamp_start_(Stamp()) {
    spans_.reserve(kMaxSpans);
  }

  static uint64_t Stamp() {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<uint64_t>(Clock::now().time_since_epoch().count());
#endif
  }

  // Disabled logs record nothing (untraced warm-up ticks).
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // A parent span, closed by Close(); returns its id (-1 when disabled).
  int32_t Open(SpanName name, int32_t parent, int32_t stream, int32_t tick) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, parent, stream, tick, Stamp(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = Stamp();
  }
  void Record(const Span& span) { spans_.push_back(span); }

  const std::vector<Span>& spans() const { return spans_; }
  size_t remaining() const { return kMaxSpans - spans_.size(); }

  // Fixes the stamp-to-nanosecond rate; call once recording is done.
  void Calibrate() {
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - clock_start_)
            .count();
    ns_per_stamp_ = ns / static_cast<double>(Stamp() - stamp_start_);
  }
  double Nanos(uint64_t stamps) const {
    return static_cast<double>(stamps) * ns_per_stamp_;
  }
  double Nanos(const Span& span) const { return Nanos(span.end - span.start); }

 private:
  Clock::time_point clock_start_;
  uint64_t stamp_start_;
  double ns_per_stamp_ = 1.0;
  bool enabled_ = true;
  std::vector<Span> spans_;
};

// Leaf spans for a run of back-to-back layer calls: one stamp per call
// boundary, so a call's span runs from the previous boundary to its own
// return. The loop control between two calls (and the previous span's
// bookkeeping) is charged to the next call; what falls between runs (in a
// tick, the per-stream dispatch of the composition) stays unaccounted.
class Chain {
 public:
  Chain(SpanLog& log, int32_t parent, int32_t stream, int32_t tick)
      : log_(log),
        parent_(parent),
        stream_(stream),
        tick_(tick),
        last_(log.enabled() ? SpanLog::Stamp() : 0) {}

  // Closes the span of the call that just returned.
  void Mark(SpanName name) {
    if (!log_.enabled()) return;
    const uint64_t now = SpanLog::Stamp();
    log_.Record(SpanLog::Span{name, parent_, stream_, tick_, last_, now});
    last_ = now;
  }

 private:
  SpanLog& log_;
  int32_t parent_;
  int32_t stream_;
  int32_t tick_;
  uint64_t last_;
};

// The shard state StreamShard keeps, held by the benchmark.
class TracedComposition {
 public:
  TracedComposition(const Inputs& inputs, SpanLog& log)
      : inputs_(inputs), log_(log), tracker_(inputs.num_streams()) {}

  // StreamShard::AddQuery for every query, then StreamShard::Start.
  void SetUp() {
    const int32_t setup = log_.Open(kSetup, -1, -1, 0);
    const int depth = BenchEngineOptions().nnt_depth;
    std::vector<QueryVectors> vectors;
    {
      Chain chain(log_, setup, -1, 0);
      for (const Graph& query : inputs_.queries) {
        NntSet query_nnts(depth, &dimensions_);
        query_nnts.Build(query);
        vectors.push_back(BuildQueryVectors(query_nnts));
        chain.Mark(kNntBuild);
      }
    }
    graphs_.reserve(static_cast<size_t>(inputs_.num_streams()));
    for (int i = 0; i < inputs_.num_streams(); ++i) {
      graphs_.push_back(inputs_.streams[static_cast<size_t>(i)].StartGraph());
      nnts_.push_back(std::make_unique<NntSet>(depth, &dimensions_));
      Chain chain(log_, setup, i, 0);
      nnts_.back()->Build(graphs_.back());
      chain.Mark(kNntBuild);
    }
    strategy_ = MakeJoinStrategy(BenchEngineOptions().join_kind);
    {
      Chain chain(log_, setup, -1, 0);
      strategy_->SetQueries(std::move(vectors));
      chain.Mark(kJoinSetQueries);
      strategy_->SetNumStreams(inputs_.num_streams());
      chain.Mark(kJoinSetNumStreams);
    }
    for (int i = 0; i < inputs_.num_streams(); ++i) {
      NntSet& nnts = *nnts_[static_cast<size_t>(i)];
      Chain chain(log_, setup, i, 0);
      nnts.TakeDirtyRoots(&dirty_);
      const std::vector<VertexId> roots = nnts.Roots();
      chain.Mark(kNntTakeDirty);
      for (const VertexId root : roots) {
        const Npv& npv = nnts.NpvOf(root);
        chain.Mark(kNntNpvOf);
        strategy_->UpdateStreamVertex(i, root, npv);
        chain.Mark(kJoinPrime);
      }
    }
    log_.Close(setup);
  }

  // One closed-loop tick. Returns the tick span's wall time in seconds.
  double Tick(int t) {
    const Clock::time_point start = Clock::now();
    const int32_t tick = log_.Open(kTick, -1, -1, t);
    for (int i = 0; i < inputs_.num_streams(); ++i) Apply(tick, i, t);
    for (int i = 0; i < inputs_.num_streams(); ++i) {
      Chain chain(log_, tick, i, t);
      strategy_->CandidatesForStream(i, &buffer_);
      chain.Mark(kJoinCandidates);
      tracker_.Observe(i, &buffer_, &transitions_);
      chain.Mark(kEngineTrackerObserve);
      transitions_total_ += static_cast<int64_t>(
          transitions_.appeared.size() + transitions_.disappeared.size());
    }
    log_.Close(tick);
    return SecondsSince(start);
  }

  const std::vector<int>& Candidates(int stream) const {
    return tracker_.LastObserved(stream);
  }
  int64_t dirty_roots() const { return dirty_roots_; }
  int64_t transitions() const { return transitions_total_; }
  void ResetCounts() {
    dirty_roots_ = 0;
    transitions_total_ = 0;
  }
  int64_t StorageBytes() const {
    int64_t bytes = 0;
    for (const auto& nnts : nnts_) bytes += nnts->StorageBytes();
    return bytes;
  }
  int64_t TreeNodes() const {
    int64_t nodes = 0;
    for (const auto& nnts : nnts_) nodes += nnts->TotalTreeNodes();
    return nodes;
  }

 private:
  // StreamShard::ApplyChange + FlushDirty for one stream.
  void Apply(int32_t tick, int i, int t) {
    Graph& graph = graphs_[static_cast<size_t>(i)];
    NntSet& nnts = *nnts_[static_cast<size_t>(i)];
    const GraphChange& change = inputs_.Change(i, t);
    Chain chain(log_, tick, i, t);
    for (const EdgeOp& op : change.ops) {
      if (op.kind != EdgeOp::Kind::kDelete) continue;
      const bool present = graph.HasEdge(op.u, op.v);
      chain.Mark(kGraphHasEdge);
      if (!present) continue;
      nnts.DeleteEdge(op.u, op.v);
      chain.Mark(kNntDeleteEdge);
      graph.RemoveEdge(op.u, op.v);
      chain.Mark(kGraphRemoveEdge);
    }
    for (const EdgeOp& op : change.ops) {
      if (op.kind != EdgeOp::Kind::kInsert) continue;
      const bool added = graph.EnsureVertex(op.u, op.u_label) &&
                         graph.EnsureVertex(op.v, op.v_label) &&
                         graph.AddEdge(op.u, op.v, op.edge_label);
      chain.Mark(kGraphAddEdge);  // EnsureVertex x2 + AddEdge.
      if (!added) continue;
      nnts.InsertEdge(graph, op.u, op.v);
      chain.Mark(kNntInsertEdge);
    }
    nnts.TakeDirtyRoots(&dirty_);
    chain.Mark(kNntTakeDirty);
    dirty_roots_ += static_cast<int64_t>(dirty_.size());
    for (const VertexId root : dirty_) {
      if (nnts.TreeOf(root) != nullptr) {
        const Npv& npv = nnts.NpvOf(root);
        chain.Mark(kNntNpvOf);
        strategy_->UpdateStreamVertex(i, root, npv);
        chain.Mark(kJoinUpdate);
      } else {
        chain.Mark(kNntNpvOf);
        strategy_->RemoveStreamVertex(i, root);
        chain.Mark(kJoinRemove);
      }
    }
  }

  const Inputs& inputs_;
  SpanLog& log_;
  DimensionTable dimensions_;
  std::vector<Graph> graphs_;
  std::vector<std::unique_ptr<NntSet>> nnts_;
  std::unique_ptr<JoinStrategy> strategy_;
  CandidateTracker tracker_;
  std::vector<VertexId> dirty_;
  std::vector<int> buffer_;
  CandidateTransitions transitions_;
  int64_t dirty_roots_ = 0;
  int64_t transitions_total_ = 0;
};

void WriteSpans(const SpanLog& log, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  // Times in ns from the first span's start. Leaves are recorded when they
  // end, so a parent's id can be larger than its children's.
  std::fprintf(f, "id\tname\tparent\tstream\ttick\tstart_ns\tend_ns\n");
  const std::vector<SpanLog::Span>& spans = log.spans();
  const uint64_t origin = spans.empty() ? 0 : spans.front().start;
  for (size_t id = 0; id < spans.size(); ++id) {
    const SpanLog::Span& s = spans[id];
    std::fprintf(f, "%zu\t%s\t%d\t%d\t%d\t%.0f\t%.0f\n", id,
                 kSpanNames[s.name], s.parent, s.stream, s.tick,
                 log.Nanos(s.start - origin), log.Nanos(s.end - origin));
  }
  std::fclose(f);
}

}  // namespace

void RunTraced(const Inputs& inputs, const WorkloadParams& params,
               double seconds, const std::string& span_path, bool plant_fault,
               RunResult* result) {
  SpanLog log;
  TracedComposition traced(inputs, log);
  traced.SetUp();
  ContinuousQueryEngine engine(BenchEngineOptions());
  SetUp(inputs, engine);

  std::vector<int> buffer;
  CandidateTransitions transitions;
  double traced_s = 0;
  double untraced_s = 0;
  size_t tick_spans = 0;
  int timed_ticks = 0;
  int t = 1;
  for (; t < inputs.horizon(); ++t) {
    const bool warm = t > params.warmup_ticks;
    if (warm && (traced_s + untraced_s >= seconds ||
                 log.remaining() < 2 * tick_spans + 1024)) {
      break;
    }
    if (t == params.warmup_ticks + 1) traced.ResetCounts();
    log.set_enabled(warm);
    const Clock::time_point start = Clock::now();
    ReplayTick(inputs, engine, t, &buffer, &transitions);
    const double untraced = SecondsSince(start);
    const size_t before = log.spans().size();
    const double traced_tick = traced.Tick(t);
    tick_spans = log.spans().size() - before;
    if (warm) {
      ++timed_ticks;
      traced_s += traced_tick;
      untraced_s += untraced;
    }
    for (int i = 0; i < inputs.num_streams(); ++i) {
      std::vector<int> current = traced.Candidates(i);
      if (plant_fault && i == 0 && t == 1) current.push_back(-1);
      if (current != engine.LastObservedCandidates(i)) {
        result->Fail(1, "traced candidates of stream " + std::to_string(i) +
                            " at tick " + std::to_string(t) +
                            " differ from the untraced engine");
      }
    }
    result->attempted += inputs.num_streams();
  }

  // Self time per span name; only layer spans count as accounted time.
  double total[kNumSpanNames] = {};
  double setup_total[kNumSpanNames] = {};
  double accounted = 0;
  log.Calibrate();
  for (const SpanLog::Span& s : log.spans()) {
    const double ms = log.Nanos(s) / 1e6;
    const bool in_setup = s.tick == 0;
    (in_setup ? setup_total : total)[s.name] += ms;
    if (!in_setup && IsLayerSpan(s.name)) accounted += ms;
  }
  const double ticks = timed_ticks > 0 ? timed_ticks : 1;
  const double traced_ms = traced_s * 1e3;
  auto per_tick = [&](std::initializer_list<SpanName> names) {
    double sum = 0;
    for (const SpanName name : names) sum += total[name];
    return sum / ticks;
  };
  const double maintain = per_tick({kNntDeleteEdge, kNntInsertEdge});
  const double join_update = per_tick({kJoinUpdate, kJoinRemove});
  const double wall_per_tick = traced_ms / ticks;
  result->Add("nnt.maintain_ms_per_ts", maintain, "ms");
  result->Add("nnt.share", maintain / wall_per_tick, "ratio");
  result->Add("nnt.flush_ms_per_ts", per_tick({kNntTakeDirty, kNntNpvOf}),
              "ms");
  result->Add("nnt.build_s", setup_total[kNntBuild] / 1e3, "s");
  result->Add("nnt.storage_mb",
              static_cast<double>(traced.StorageBytes()) / (1024.0 * 1024.0),
              "MB");
  result->Add("nnt.tree_nodes", static_cast<double>(traced.TreeNodes()),
              "count");
  result->Add("nnt.dirty_roots_per_ts",
              static_cast<double>(traced.dirty_roots()) / ticks, "count");
  result->Add("graph.apply_ms_per_ts",
              per_tick({kGraphHasEdge, kGraphRemoveEdge, kGraphAddEdge}),
              "ms");
  result->Add("join.update_ms_per_ts", join_update, "ms");
  result->Add("join.share", join_update / wall_per_tick, "ratio");
  result->Add("join.refresh_ms_per_ts", per_tick({kJoinCandidates}), "ms");
  result->Add("join.setup_s",
              (setup_total[kJoinSetQueries] + setup_total[kJoinSetNumStreams] +
               setup_total[kJoinPrime]) /
                  1e3,
              "s");
  result->Add("engine.tracker_ms_per_ts", per_tick({kEngineTrackerObserve}),
              "ms");
  result->Add("engine.transitions_per_ts",
              static_cast<double>(traced.transitions()) / ticks, "count");
  result->Add("trace.unaccounted_ratio",
              traced_ms > 0 ? 1.0 - accounted / traced_ms : 0.0, "ratio");
  result->Add("trace.overhead_ratio",
              untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0, "ratio");
  std::printf("traced: %d ticks, %zu spans -> %s\n", timed_ticks,
              log.spans().size(), span_path.c_str());
  if (!span_path.empty()) WriteSpans(log, span_path);
}

}  // namespace gsps::perfbench
