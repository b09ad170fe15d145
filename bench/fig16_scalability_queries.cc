// Figure 16 (paper §V.B.2): scalability in the number of queries — average
// processing cost per timestamp for the three join strategies (NL, DSC,
// Skyline) as the query count grows, with the stream count fixed at its
// maximum, on all three stream datasets.
//
// Paper scale: fig16_scalability_queries --pairs=70 --real_streams=25 ...
//                  --timestamps=1000

#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace gsps::bench {
namespace {

void RunSetting(const char* name, const StreamWorkload& full,
                const std::vector<int>& query_counts) {
  std::printf("\n[%s] %zu streams fixed, %d timestamps\n", name,
              full.streams.size(), full.horizon);
  // The NNT/index maintenance (update) is shared work; the join column is
  // where the strategies differ.
  std::printf("  %-9s %28s %28s %28s\n", "queries",
              "NL upd/join(ms)", "DSC upd/join(ms)", "Skyline upd/join(ms)");
  for (const int count : query_counts) {
    if (count > static_cast<int>(full.queries.size())) continue;
    StreamWorkload subset = full;
    subset.queries.resize(static_cast<size_t>(count));
    const StatsAccumulator nl =
        RunNpvEngine(subset, JoinKind::kNestedLoop, 3);
    const StatsAccumulator dsc =
        RunNpvEngine(subset, JoinKind::kDominatedSetCover, 3);
    const StatsAccumulator skyline =
        RunNpvEngine(subset, JoinKind::kSkylineEarlyStop, 3);
    std::printf("  %-9d %17.2f /%9.3f %17.2f /%9.3f %17.2f /%9.3f\n", count,
                nl.AvgUpdateMillis(), nl.AvgJoinMillis(),
                dsc.AvgUpdateMillis(), dsc.AvgJoinMillis(),
                skyline.AvgUpdateMillis(), skyline.AvgJoinMillis());
  }
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int pairs = flags.GetInt("pairs", 20);
  const int real_streams = flags.GetInt("real_streams", 10);
  const int timestamps = flags.GetInt("timestamps", 30);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 11));
  if (!AllFlagsKnown(flags)) return 2;

  std::printf("Figure 16: cost per timestamp vs number of queries\n");

  std::vector<int> real_counts;
  for (int c = real_streams / 5; c <= real_streams; c += real_streams / 5) {
    real_counts.push_back(std::max(1, c));
  }
  std::vector<int> synth_counts;
  for (int c = pairs / 5; c <= pairs; c += pairs / 5) {
    synth_counts.push_back(std::max(1, c));
  }

  RunSetting("reality-like",
             RealityStreamWorkload(real_streams, real_streams, timestamps,
                                   seed),
             real_counts);
  RunSetting("synthetic sparse",
             SyntheticStreamWorkload(pairs, 0.1, 0.3, timestamps, seed + 1,
                                     /*extra_pair_fraction=*/12.0),
             synth_counts);
  RunSetting("synthetic dense",
             SyntheticStreamWorkload(pairs, 0.2, 0.15, timestamps, seed + 2,
                                     /*extra_pair_fraction=*/6.2),
             synth_counts);

  std::printf("\nPaper shape check: total cost grows only mildly with the "
              "query count (shared NNT\nmaintenance dominates). The join "
              "column isolates the strategies: NL grows linearly\nwith the "
              "query count, Skyline grows sublinearly thanks to early stop, "
              "and DSC's\ncandidate read is near-free because its work moved "
              "into the incremental counters,\nwhose upkeep keeps DSC's "
              "update column close to NL's (level on synthetic sparse,\n"
              "lower on synthetic dense, somewhat higher on "
              "reality-like streams).\n");
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) { return gsps::bench::Main(argc, argv); }
