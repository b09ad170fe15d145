// Figure 13 (paper §V.A.2): effectiveness on the static datasets — average
// candidate ratio per query size for NPV (depth 3), gIndex1, and GraphGrep,
// over query sets Q4, Q8, ..., Q24.
//
// Exits 1 unless, on both datasets, NPV's candidate ratio averaged over the
// query sets is below GraphGrep's. The mean, not each row: at small scale
// a single set can cross (e.g. Q12 on the synthetic set at --graphs=100
// --queries=20 --seed=5).
//
// Paper scale: 10,000 graphs, 1,000 queries per set; reproduce with
//   fig13_static_effectiveness --graphs=10000 --queries=1000

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "gsps/baselines/gindex/gindex_filter.h"
#include "gsps/baselines/graphgrep/graphgrep_filter.h"
#include "gsps/common/random.h"
#include "gsps/common/stopwatch.h"
#include "gsps/gen/aids_like.h"
#include "gsps/gen/query_extractor.h"
#include "gsps/gen/synthetic_generator.h"

namespace gsps::bench {
namespace {

double RatioFromCounts(int64_t candidates, size_t database, size_t queries) {
  if (database == 0 || queries == 0) return 0.0;
  return static_cast<double>(candidates) /
         (static_cast<double>(database) * static_cast<double>(queries));
}

// Prints one dataset's table; returns whether NPV's mean ratio is below
// GraphGrep's.
bool RunDataset(const char* name, const std::vector<Graph>& database,
                const std::vector<int>& query_sizes, int queries_per_set,
                const GspanOptions& gindex_options, uint64_t seed) {
  Rng rng(seed);
  std::printf("\n[%s] %zu graphs\n", name, database.size());

  GraphGrepFilter graphgrep(4);
  graphgrep.IndexDatabase(database);

  Stopwatch watch;
  GindexFilter gindex(gindex_options);
  gindex.BuildIndex(database);
  std::printf("gIndex1 mined %lld features in %.1f ms\n",
              static_cast<long long>(gindex.num_features()),
              watch.ElapsedMillis());

  std::printf("%-6s %12s %12s %12s\n", "Qm", "NPV", "gIndex1", "Ggrep");
  double npv_sum = 0.0, gindex_sum = 0.0, graphgrep_sum = 0.0;
  int sets = 0;
  for (const int size : query_sizes) {
    const std::vector<Graph> queries =
        ExtractQuerySet(database, size, queries_per_set, rng);
    if (queries.empty()) continue;

    const double npv_ratio = NpvStaticCandidateRatio(database, queries, 3);

    int64_t gindex_candidates = 0;
    int64_t graphgrep_candidates = 0;
    for (const Graph& query : queries) {
      gindex_candidates +=
          static_cast<int64_t>(gindex.CandidateGraphsFor(query).size());
      graphgrep_candidates +=
          static_cast<int64_t>(graphgrep.CandidateGraphsFor(query).size());
    }
    const double gindex_ratio =
        RatioFromCounts(gindex_candidates, database.size(), queries.size());
    const double graphgrep_ratio = RatioFromCounts(
        graphgrep_candidates, database.size(), queries.size());
    std::printf("Q%-5d %12.4f %12.4f %12.4f\n", size, npv_ratio, gindex_ratio,
                graphgrep_ratio);
    npv_sum += npv_ratio;
    gindex_sum += gindex_ratio;
    graphgrep_sum += graphgrep_ratio;
    ++sets;
  }
  if (sets > 0) {
    std::printf("%-6s %12.4f %12.4f %12.4f\n", "mean", npv_sum / sets,
                gindex_sum / sets, graphgrep_sum / sets);
  }
  const bool ok = sets > 0 && npv_sum < graphgrep_sum;
  if (!ok) {
    std::printf("ERROR: NPV's mean candidate ratio is not below GraphGrep's "
                "on %s\n", name);
  }
  return ok;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int num_graphs = flags.GetInt("graphs", 300);
  const int queries_per_set = flags.GetInt("queries", 40);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 3));
  GspanOptions gindex_options = GindexFilter::Gindex1Options();
  gindex_options.max_patterns = flags.GetInt("gindex_max_patterns", 2000);
  if (!AllFlagsKnown(flags)) return 2;

  std::printf("Figure 13: static effectiveness (candidate ratio; lower is "
              "better)\n");

  const std::vector<int> query_sizes = {4, 8, 12, 16, 20, 24};

  AidsLikeParams aids_params;
  aids_params.num_graphs = num_graphs;
  aids_params.seed = seed;
  const bool aids_ok =
      RunDataset("AIDS-like", MakeAidsLikeDataset(aids_params), query_sizes,
                 queries_per_set, gindex_options, seed + 10);

  SyntheticParams synth_params;
  synth_params.num_graphs = num_graphs;
  synth_params.seed = seed + 1;
  const bool synthetic_ok =
      RunDataset("synthetic", GenerateSyntheticDataset(synth_params),
                 query_sizes, queries_per_set, gindex_options, seed + 11);

  std::printf("\nPaper shape check: NPV tracks gIndex1 closely on both "
              "datasets; GraphGrep's ratio is\nmuch larger across all query "
              "sizes; ratios shrink as queries grow.\n");
  if (!aids_ok || !synthetic_ok) return 1;
  std::printf("  mean check (NPV < GraphGrep on both datasets): OK\n");
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) { return gsps::bench::Main(argc, argv); }
