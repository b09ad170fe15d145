// Figure 2 (paper §III): preliminary comparison of gIndex, GraphGrep, and
// the NPV method on one synthetic stream workload — average per-timestamp
// query processing time (ms) and candidate ratio.
//
// Paper scale: 70 queries x 70 streams, 1000 timestamps. Bench defaults are
// smaller so the whole suite runs in minutes; use the flags to reproduce
// the paper's scale:
//   fig02_preliminary --pairs=70 --timestamps=1000 --gindex_timestamps=1000
//
// Exits 1 unless the paper's shape holds: candidate ratio gIndex < NPV <
// GraphGrep, and gIndex's per-timestamp cost at least kGindexCostFactor
// times both NPV's and GraphGrep's.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "gsps/baselines/gindex/gindex_filter.h"

namespace gsps::bench {
namespace {

// gIndex re-mines its features every timestamp; the shape check asks that
// this cost at least this many times either streaming filter's.
constexpr double kGindexCostFactor = 100.0;

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int pairs = flags.GetInt("pairs", 20);
  const int timestamps = flags.GetInt("timestamps", 60);
  const int gindex_timestamps = flags.GetInt("gindex_timestamps", 2);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 7));
  if (!AllFlagsKnown(flags)) return 2;

  std::printf("Figure 2: preliminary test (synthetic streams, %d queries x "
              "%d streams)\n", pairs, pairs);
  std::printf("%-10s %22s %18s %12s\n", "method", "avg time/step (ms)",
              "candidate ratio", "timestamps");

  StreamWorkload workload =
      SyntheticStreamWorkload(pairs, 0.2, 0.15, timestamps, seed,
                              /*extra_pair_fraction=*/6.2);

  const StatsAccumulator npv =
      RunNpvEngine(workload, JoinKind::kDominatedSetCover, /*depth=*/3);
  std::printf("%-10s %22.3f %18.4f %12d\n", "NPV", npv.AvgCostMillis(),
              npv.AvgCandidateRatio(), timestamps);
  const StatsAccumulator graphgrep = RunGraphGrepBaseline(workload, 4);
  std::printf("%-10s %22.3f %18.4f %12d\n", "Ggrep",
              graphgrep.AvgCostMillis(), graphgrep.AvgCandidateRatio(),
              timestamps);
  StreamWorkload truncated = workload;
  truncated.horizon = gindex_timestamps;
  const StatsAccumulator gindex =
      RunGindexBaseline(truncated, GindexFilter::Gindex1Options());
  std::printf("%-10s %22.3f %18.4f %12d\n", "gIndex", gindex.AvgCostMillis(),
              gindex.AvgCandidateRatio(), gindex_timestamps);

  std::printf("\nPaper shape check: gIndex has the smallest candidate ratio "
              "but by far the largest\nper-timestamp cost; GraphGrep is fast "
              "but reports roughly half of all pairs; NPV is\nfast with "
              "near-gIndex effectiveness.\n");
  bool ok = true;
  if (npv.AvgCandidateRatio() >= graphgrep.AvgCandidateRatio()) {
    std::printf("ERROR: NPV candidate ratio %.4f is not below GraphGrep's "
                "%.4f\n",
                npv.AvgCandidateRatio(), graphgrep.AvgCandidateRatio());
    ok = false;
  }
  if (gindex.AvgCandidateRatio() >= npv.AvgCandidateRatio()) {
    std::printf("ERROR: gIndex candidate ratio %.4f is not below NPV's "
                "%.4f\n",
                gindex.AvgCandidateRatio(), npv.AvgCandidateRatio());
    ok = false;
  }
  const double slowest_filter =
      std::max(npv.AvgCostMillis(), graphgrep.AvgCostMillis());
  if (gindex.AvgCostMillis() < kGindexCostFactor * slowest_filter) {
    std::printf("ERROR: gIndex cost %.3f ms/step is under %.0fx the slower "
                "of NPV and GraphGrep (%.3f ms/step)\n",
                gindex.AvgCostMillis(), kGindexCostFactor, slowest_filter);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("  shape check (gIndex < NPV < GraphGrep in candidate ratio, "
              "gIndex >= %.0fx both in cost): OK\n",
              kGindexCostFactor);
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) { return gsps::bench::Main(argc, argv); }
