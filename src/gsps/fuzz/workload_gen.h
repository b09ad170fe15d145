// Randomized FuzzCase synthesis. Seed-driven and fully deterministic: the
// same Rng state always produces the same case, which is what makes every
// fuzzer failure reproducible from (seed, iteration) alone.
//
// The generator is deliberately adversarial where example-based tests are
// not: empty and single-vertex graphs, isolated vertices, Zipf-skewed
// label alphabets (one label dominating), wide alphabets, labels scattered
// over the int32 range (extremes included), batches that delete absent
// edges, re-insert just-deleted edges, insert duplicates or conflicting
// endpoint labels (ops the engine must skip), introduce brand-new vertices
// with gap ids, and wipe out whole vertices edge by edge.

#ifndef GSPS_FUZZ_WORKLOAD_GEN_H_
#define GSPS_FUZZ_WORKLOAD_GEN_H_

#include "gsps/common/random.h"
#include "gsps/fuzz/fuzz_case.h"

namespace gsps {

struct GenParams {
  // Upper bounds; each case draws its actual shape uniformly at random.
  int max_queries = 4;
  int max_streams = 3;
  int max_timestamps = 8;  // Including timestamp 0.
  int max_query_edges = 6;
  int max_start_edges = 12;
  int max_batch_ops = 6;
  int max_vertex_labels = 4;
  int max_edge_labels = 2;
  // Fixed NNT depth, or 0 to draw uniformly from [1, 3] per case (depth 1
  // exercises the trivial-tree paths, 3 is the paper's default).
  int nnt_depth = 0;
  // Upper bound on query add/remove churn ops per case (about half the
  // cases draw a schedule at all); 0 disables churn generation entirely.
  // Schedules deliberately include skip-safe no-ops (double adds/removes)
  // and queries that only enter mid-run (first op is an add).
  int max_churn_ops = 5;
};

// Generates one case. Advances `rng`; all randomness flows through it.
FuzzCase GenerateCase(const GenParams& params, Rng& rng);

}  // namespace gsps

#endif  // GSPS_FUZZ_WORKLOAD_GEN_H_
