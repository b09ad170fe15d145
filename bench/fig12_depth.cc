// Figure 12 (paper §V.A.1): candidate-set size vs maximum NNT depth on the
// two static datasets (AIDS-like and synthetic). The paper's conclusion:
// depth beyond 3 buys almost nothing, so depth 3 is the default everywhere
// (and NntSet's depth-3 counting relies on it). Exits 1 unless, on both
// datasets, the ratio never rises with depth and what depths beyond 3 still
// remove is at most a quarter of what depths 2 and 3 removed.
//
// Paper scale: 10,000 graphs, 1,000 queries per set. Bench defaults are
// smaller; reproduce the paper's scale with:
//   fig12_depth --graphs=10000 --queries=1000

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "gsps/common/random.h"
#include "gsps/gen/aids_like.h"
#include "gsps/gen/query_extractor.h"
#include "gsps/gen/synthetic_generator.h"

namespace gsps::bench {
namespace {

// Checks the Fig. 12 shape on one dataset's ratios (index depth - 1):
// non-increasing, with the knee at depth 3.
bool HasKneeAtDepth3(const char* name, const std::vector<double>& ratios) {
  bool ok = true;
  for (size_t d = 1; d < ratios.size(); ++d) {
    if (ratios[d] > ratios[d - 1]) {
      std::printf("ERROR: %s ratio rises from depth %zu to depth %zu\n", name,
                  d, d + 1);
      ok = false;
    }
  }
  const double to_depth3 = ratios[0] - ratios[2];
  const double beyond_depth3 = ratios[2] - ratios.back();
  if (beyond_depth3 > 0.25 * to_depth3) {
    std::printf("ERROR: %s ratio still drops by %.4f beyond depth 3, more "
                "than a quarter of the %.4f it drops from depth 1 to 3\n",
                name, beyond_depth3, to_depth3);
    ok = false;
  }
  return ok;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int num_graphs = flags.GetInt("graphs", 400);
  const int num_queries = flags.GetInt("queries", 60);
  const int max_depth = flags.GetInt("max_depth", 5);
  const int query_edges = flags.GetInt("query_edges", 8);
  const uint64_t seed = flags.GetUint64("seed", 3);
  if (max_depth < 3) {
    std::fprintf(stderr, "fig12_depth: --max_depth must be >= 3\n");
    return 2;
  }

  AidsLikeParams aids_params;
  aids_params.num_graphs = num_graphs;
  aids_params.seed = seed;
  const std::vector<Graph> aids = MakeAidsLikeDataset(aids_params);

  SyntheticParams synth_params;
  synth_params.num_graphs = num_graphs;
  synth_params.seed = seed + 1;
  const std::vector<Graph> synthetic = GenerateSyntheticDataset(synth_params);

  Rng rng(seed + 2);
  const std::vector<Graph> aids_queries =
      ExtractQuerySet(aids, query_edges, num_queries, rng);
  const std::vector<Graph> synth_queries =
      ExtractQuerySet(synthetic, query_edges, num_queries, rng);

  std::printf("Figure 12: candidate ratio vs NNT depth "
              "(Q%d, %d graphs, %d queries)\n",
              query_edges, num_graphs, num_queries);
  std::printf("%-8s %18s %18s\n", "depth", "aids-like", "synthetic");
  std::vector<double> aids_ratios;
  std::vector<double> synth_ratios;
  for (int depth = 1; depth <= max_depth; ++depth) {
    aids_ratios.push_back(NpvStaticCandidateRatio(aids, aids_queries, depth));
    synth_ratios.push_back(
        NpvStaticCandidateRatio(synthetic, synth_queries, depth));
    std::printf("%-8d %18.4f %18.4f\n", depth, aids_ratios.back(),
                synth_ratios.back());
  }
  std::printf("\nPaper shape check: the ratio drops sharply up to depth 3 "
              "and is nearly flat beyond it.\n");
  const bool aids_ok = HasKneeAtDepth3("AIDS-like", aids_ratios);
  const bool synth_ok = HasKneeAtDepth3("synthetic", synth_ratios);
  if (!aids_ok || !synth_ok) return 1;
  std::printf("  knee check (non-increasing, flat beyond depth 3 on both "
              "datasets): OK\n");
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) { return gsps::bench::Main(argc, argv); }
