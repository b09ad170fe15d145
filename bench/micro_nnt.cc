// Micro-benchmark for the NNT maintenance hot path: insert+delete churn
// throughput, NPV projection cost, storage density (bytes per counted tree
// node), and steady-state allocation counts. This is the ablation behind the
// paper's central design choice — incremental maintenance (Lemma 3.2's
// O(r^(l-1)) per-edge cost) instead of rebuilding per timestamp — and the
// regression harness for NntSet's per-edge path counting (DESIGN.md "NPV
// maintenance").
//
// The measured loop mirrors the engine's ApplyChange protocol exactly:
// DeleteEdge + graph update + InsertEdge, then drain the dirty roots and
// materialize their NPVs. Allocation counts come from the gsps_alloc_hook
// counting allocator this binary links; in a Release build the steady-state
// loop performs zero heap allocations. npvs_flushed and tree_nodes depend
// only on what is counted, not on how, so they pin the semantics across
// storage changes.
//
// Flags:
//   --edges=N     churn graph size in edges (default 240)
//   --depth=N     NNT depth (default 3)
//   --toggles=N   timed delete+reinsert toggles (default 3000)
//   --warmup=N    untimed warm-up toggles to reach capacity high water
//   --rebuilds=N  full from-scratch rebuilds for the naive baseline row
//   --seed=N      workload seed
//
// Output: human-readable rows plus one EmitBenchJson line per setting
// (bench "micro_nnt"), archived by the CI bench-JSON job.

#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "gsps/common/alloc_hook.h"
#include "gsps/common/random.h"
#include "gsps/common/stopwatch.h"
#include "gsps/gen/synthetic_generator.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps::bench {
namespace {

// Prevents the optimizer from deleting measured work.
inline void KeepAlive(int64_t value) { asm volatile("" : : "r"(value)); }

struct EdgeRec {
  VertexId u, v;
  EdgeLabel label;
};

std::vector<EdgeRec> EdgeList(const Graph& graph) {
  std::vector<EdgeRec> edges;
  for (const VertexId u : graph.VertexIds()) {
    for (const HalfEdge& half : graph.Neighbors(u)) {
      if (u < half.to) edges.push_back({u, half.to, half.label});
    }
  }
  return edges;
}

// One churn step over edge `e`: the engine's deletion-then-insertion
// protocol plus the dirty-root NPV flush the join strategies consume.
template <typename DirtyFn>
void Toggle(NntSet& nnts, Graph& graph, const EdgeRec& e, DirtyFn&& flush) {
  nnts.DeleteEdge(e.u, e.v);
  graph.RemoveEdge(e.u, e.v);
  graph.AddEdge(e.u, e.v, e.label);
  nnts.InsertEdge(graph, e.u, e.v);
  flush();
}

int RunChurn(FlagParser& flags) {
  const int num_edges = flags.GetInt("edges", 240);
  const int depth = flags.GetInt("depth", 3);
  const int toggles = flags.GetInt("toggles", 3000);
  const int warmup = flags.GetInt("warmup", 300);
  const int rebuilds = flags.GetInt("rebuilds", 30);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 42));
  if (!AllFlagsKnown(flags)) return 2;

  Rng rng(seed);
  Graph graph = RandomConnectedGraph(num_edges, 4, 1, rng);
  const std::vector<EdgeRec> edges = EdgeList(graph);

  DimensionTable dims;
  NntSet nnts(depth, &dims);
  Stopwatch watch;
  nnts.Build(graph);
  const double build_ms = watch.ElapsedMillis();
  const int64_t tree_nodes = nnts.TotalTreeNodes();
  const int64_t storage_bytes = nnts.StorageBytes();

  // The flush body, reusing one buffer.
  std::vector<VertexId> dirty;
  int64_t npvs_flushed = 0;
  auto flush = [&] {
    nnts.TakeDirtyRoots(&dirty);
    for (const VertexId root : dirty) {
      KeepAlive(nnts.NpvOf(root).nnz());
      ++npvs_flushed;
    }
  };

  // Warm up to the capacity high-water mark, then measure.
  for (int i = 0; i < warmup; ++i) {
    Toggle(nnts, graph, edges[static_cast<size_t>(i) % edges.size()], flush);
  }
  const AllocMeter meter;
  watch.Restart();
  for (int i = 0; i < toggles; ++i) {
    Toggle(nnts, graph, edges[static_cast<size_t>(i) % edges.size()], flush);
  }
  const double churn_seconds = watch.ElapsedMicros() / 1e6;
  const int64_t steady_allocs = meter.allocs();
  const int64_t steady_frees = meter.frees();
  // 2 maintenance ops (delete + insert) per toggle.
  const double ops_per_sec = 2.0 * toggles / churn_seconds;

  // NPV projection cost over every root (post-churn state, all caches cold
  // once, then hot).
  const std::vector<VertexId> roots = nnts.Roots();
  constexpr int kNpvPasses = 200;
  watch.Restart();
  for (int pass = 0; pass < kNpvPasses; ++pass) {
    for (const VertexId root : roots) {
      KeepAlive(nnts.NpvOf(root).nnz());
    }
  }
  const double npv_reads_per_sec =
      static_cast<double>(kNpvPasses) * static_cast<double>(roots.size()) /
      (watch.ElapsedMicros() / 1e6);

  // The naive alternative: rebuild everything per change.
  watch.Restart();
  for (int i = 0; i < rebuilds; ++i) {
    DimensionTable fresh_dims;
    NntSet fresh(depth, &fresh_dims);
    fresh.Build(graph);
    KeepAlive(fresh.TotalTreeNodes());
  }
  const double rebuilds_per_sec = rebuilds / (watch.ElapsedMicros() / 1e6);

  const double bytes_per_node =
      tree_nodes > 0 && storage_bytes > 0
          ? static_cast<double>(storage_bytes) / static_cast<double>(tree_nodes)
          : 0.0;

  PrintHeader("micro_nnt churn (edges=" + std::to_string(num_edges) +
              " depth=" + std::to_string(depth) + ")");
  const std::vector<std::string> columns = {"value"};
  PrintRow("build_ms", {build_ms}, columns);
  PrintRow("tree_nodes", {static_cast<double>(tree_nodes)}, columns);
  PrintRow("bytes_per_node", {bytes_per_node}, columns);
  PrintRow("maintain_ops_per_sec", {ops_per_sec}, columns);
  PrintRow("npv_reads_per_sec", {npv_reads_per_sec}, columns);
  PrintRow("rebuilds_per_sec", {rebuilds_per_sec}, columns);
  PrintRow("steady_allocs", {static_cast<double>(steady_allocs)}, columns);
  PrintRow("steady_frees", {static_cast<double>(steady_frees)}, columns);

  EmitBenchJson(
      "micro_nnt", "churn",
      {{"edges", static_cast<double>(num_edges)},
       {"depth", static_cast<double>(depth)},
       {"toggles", static_cast<double>(toggles)},
       {"build_ms", build_ms},
       {"tree_nodes", static_cast<double>(tree_nodes)},
       {"bytes_per_node", bytes_per_node},
       {"maintain_ops_per_sec", ops_per_sec},
       {"npv_reads_per_sec", npv_reads_per_sec},
       {"rebuilds_per_sec", rebuilds_per_sec},
       {"npvs_flushed", static_cast<double>(npvs_flushed)},
       {"steady_allocs", static_cast<double>(steady_allocs)},
       {"steady_frees", static_cast<double>(steady_frees)}});
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) {
  gsps::FlagParser flags(argc, argv);
  return gsps::bench::RunChurn(flags);
}
