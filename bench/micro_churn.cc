// Query-churn microbenchmark: the cost of the slotted query lifecycle in
// the join strategies (DESIGN.md "Query lifecycle"). One churn op is
// RemoveQuery + re-AddQuery of the identical query followed by a candidate
// refresh — the monitoring-deployment pattern where analysts retire and
// re-register patterns against a live stream without restarting the engine.
//
// Per strategy the bench reports churn ops/s against the pre-incremental
// baseline (rebuild the whole strategy from scratch per lifecycle change)
// and the steady-state allocation count over the timed loop. The churn
// contract this regresses: after a warm cycle, remove + bit-identical
// re-add reuses the freed slab slot in place, so the timed loop must not
// touch the heap (strict zero in Release builds without sanitizers — the
// binary links gsps_alloc_hook) and must beat the rebuild path by >=50x on
// the default 1k-query slab. CI's bench-trajectory job runs this as a smoke
// with those two gates.
//
// Flags:
//   --queries=N          number of queries in the slab (default 1000)
//   --qvecs=N            query vectors per query (default 4)
//   --stream_vertices=N  vertices in the monitored stream (default 40)
//   --dims=N             NPV dimension universe (default 64)
//   --nnz=N              non-zero entries per vector (default 3)
//   --churn_ops=N        timed remove+re-add+refresh ops (default 4000)
//   --rebuilds=N         from-scratch rebuild baseline reps (default 10)
//   --seed=N             workload seed
//
// Output: human-readable rows plus one EmitBenchJson line per strategy
// (bench "micro_churn"), archived by the CI bench-JSON job.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gsps/common/alloc_hook.h"
#include "gsps/common/random.h"
#include "gsps/common/stopwatch.h"
#include "gsps/join/join_strategy.h"
#include "gsps/nnt/npv.h"
#include "gsps/obs/obs.h"
#include "gsps/obs/window.h"

namespace gsps::bench {
namespace {

// Prevents the optimizer from deleting measured work.
inline void KeepAlive(int64_t value) { asm volatile("" : : "r"(value)); }

// Random sparse NPV over `dims` dimensions with `nnz` non-zero entries.
Npv RandomNpv(Rng& rng, int dims, int nnz, int max_count) {
  std::unordered_map<DimId, int32_t> counts;
  for (int i = 0; i < nnz; ++i) {
    counts[static_cast<DimId>(rng.UniformInt(0, dims - 1))] =
        static_cast<int32_t>(rng.UniformInt(1, max_count));
  }
  return Npv::FromMap(counts);
}

struct Workload {
  std::vector<QueryVectors> queries;
  std::vector<std::pair<VertexId, Npv>> stream;
};

Workload MakeChurnWorkload(int num_queries, int vectors_per_query,
                           int stream_vertices, int dims, int nnz,
                           uint64_t seed) {
  Rng rng(seed);
  Workload w;
  for (int j = 0; j < num_queries; ++j) {
    QueryVectors q;
    for (int v = 0; v < vectors_per_query; ++v) {
      q.vectors.push_back(RandomNpv(rng, dims, nnz, 4));
    }
    w.queries.push_back(std::move(q));
  }
  for (int v = 0; v < stream_vertices; ++v) {
    w.stream.emplace_back(static_cast<VertexId>(v),
                          RandomNpv(rng, dims, nnz, 6));
  }
  return w;
}

std::unique_ptr<JoinStrategy> BuildStrategy(JoinKind kind, const Workload& w) {
  auto strategy = MakeJoinStrategy(kind);
  strategy->SetQueries(w.queries);
  strategy->SetNumStreams(1);
  for (const auto& [v, npv] : w.stream) {
    strategy->UpdateStreamVertex(0, v, npv);
  }
  return strategy;
}

void RunStrategy(JoinKind kind, const Workload& w, int churn_ops,
                 int rebuilds) {
  const int num_queries = static_cast<int>(w.queries.size());

  auto strategy = BuildStrategy(kind, w);

  // One churn op: retire query j, re-register the identical query under
  // the same id, refresh the stream's candidate set. The re-add must not
  // bring a new dim; best-fit slab reuse puts it back in the freed slab
  // slots (steady_allocs below stays 0 only if it does).
  std::vector<int> candidates;
  int64_t candidates_seen = 0;
  bool grew = false;
  auto churn = [&](int j) {
    strategy->RemoveQuery(j);
    strategy->AddQuery(j, w.queries[static_cast<size_t>(j)], &grew);
    if (grew) {
      std::fprintf(stderr,
                   "micro_churn: identical re-add of query %d grew the "
                   "dims\n",
                   j);
      std::exit(1);
    }
    strategy->CandidatesForStream(0, &candidates);
    candidates_seen += static_cast<int64_t>(candidates.size());
  };

  // Warm cycle: every slot, free list, and scratch buffer reaches its
  // high-water mark, so the timed loop is a true steady state.
  for (int j = 0; j < num_queries; ++j) churn(j);

  obs::MetricSink sink;
  Stopwatch watch;
  double churn_seconds = 0;
  int64_t steady_allocs = 0;
  int64_t steady_frees = 0;
  {
    obs::ScopedObsContext context(&sink, nullptr);
    const AllocMeter meter;
    watch.Restart();
    for (int op = 0; op < churn_ops; ++op) churn(op % num_queries);
    churn_seconds = watch.ElapsedMicros() / 1e6;
    steady_allocs = meter.allocs();
    steady_frees = meter.frees();
  }
  KeepAlive(candidates_seen);
  strategy->CheckChurnInvariants();

  const double churn_ops_per_sec =
      static_cast<double>(churn_ops) / churn_seconds;
  const double churn_micros = churn_seconds / churn_ops * 1e6;
  // Per-stage tail latency over the timed loop's verdict refreshes (zeros
  // under GSPS_OBS_DISABLED).
  const obs::HistogramData& refresh_hist =
      sink.histogram(obs::Hist::kStageJoinRefreshMicros);
  const double refresh_p50 = obs::HistogramQuantile(refresh_hist, 0.5);
  const double refresh_p95 = obs::HistogramQuantile(refresh_hist, 0.95);

  // The pre-incremental cost model: every lifecycle change rebuilds the
  // strategy from all queries and replays the stream.
  watch.Restart();
  for (int r = 0; r < rebuilds; ++r) {
    auto fresh = BuildStrategy(kind, w);
    fresh->CandidatesForStream(0, &candidates);
    KeepAlive(static_cast<int64_t>(candidates.size()));
  }
  const double rebuild_seconds = watch.ElapsedMicros() / 1e6;
  const double rebuild_ops_per_sec =
      static_cast<double>(rebuilds) / rebuild_seconds;
  const double speedup =
      rebuild_ops_per_sec > 0 ? churn_ops_per_sec / rebuild_ops_per_sec : 0.0;

  const std::string name(JoinKindName(kind));
  PrintHeader("micro_churn " + name + " (queries=" +
              std::to_string(num_queries) + " qvecs=" +
              std::to_string(w.queries.empty()
                                 ? 0
                                 : w.queries[0].vectors.size()) +
              " stream_vertices=" + std::to_string(w.stream.size()) + ")");
  const std::vector<std::string> columns = {"value"};
  PrintRow("churn_ops_per_sec", {churn_ops_per_sec}, columns);
  PrintRow("churn_op_micros", {churn_micros}, columns);
  PrintRow("rebuild_ops_per_sec", {rebuild_ops_per_sec}, columns);
  PrintRow("churn_speedup", {speedup}, columns);
  PrintRow("stage_join_refresh_p50", {refresh_p50}, columns);
  PrintRow("stage_join_refresh_p95", {refresh_p95}, columns);
  PrintRow("steady_allocs", {static_cast<double>(steady_allocs)}, columns);
  PrintRow("steady_frees", {static_cast<double>(steady_frees)}, columns);

  EmitBenchJson(
      "micro_churn", name,
      {{"queries", static_cast<double>(num_queries)},
       {"stream_vertices", static_cast<double>(w.stream.size())},
       {"churn_ops", static_cast<double>(churn_ops)},
       {"churn_ops_per_sec", churn_ops_per_sec},
       {"churn_op_micros", churn_micros},
       {"rebuild_ops_per_sec", rebuild_ops_per_sec},
       {"churn_speedup", speedup},
       {"stage_join_refresh_p50", refresh_p50},
       {"stage_join_refresh_p95", refresh_p95},
       {"steady_allocs", static_cast<double>(steady_allocs)},
       {"steady_frees", static_cast<double>(steady_frees)}});
}

int Run(FlagParser& flags) {
  const int queries = flags.GetInt("queries", 1000);
  const int qvecs = flags.GetInt("qvecs", 4);
  const int stream_vertices = flags.GetInt("stream_vertices", 40);
  const int dims = flags.GetInt("dims", 64);
  const int nnz = flags.GetInt("nnz", 3);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 11));
  const int churn_ops = flags.GetInt("churn_ops", 4000);
  const int rebuilds = flags.GetInt("rebuilds", 10);
  if (!AllFlagsKnown(flags)) return 2;
  const Workload w =
      MakeChurnWorkload(queries, qvecs, stream_vertices, dims, nnz, seed);
  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
        JoinKind::kSkylineEarlyStop}) {
    RunStrategy(kind, w, churn_ops, rebuilds);
  }
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) {
  gsps::FlagParser flags(argc, argv);
  return gsps::bench::Run(flags);
}
