// Figure 17 (paper §V.B.2): scalability in the number of streams — average
// processing cost per timestamp for NL, DSC, and Skyline as the stream
// count grows, with the query count fixed at its maximum, on all three
// stream datasets. The paper observes linear growth for the proposed
// strategies.
//
// Paper scale: fig17_scalability_streams --pairs=70 --real_streams=25 ...
//                  --timestamps=1000
// --threads=N runs the NPV engine on the threaded pipelined engine, one
// epoch per timestamp.

#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace gsps::bench {
namespace {

void RunSetting(const char* name, const StreamWorkload& full,
                const std::vector<int>& stream_counts, int num_threads) {
  std::printf("\n[%s] %zu queries fixed, %d timestamps, %d thread(s)\n",
              name, full.queries.size(), full.horizon, num_threads);
  // The NNT/index maintenance (update) is shared work; the join column is
  // where the strategies differ.
  std::printf("  %-9s %28s %28s %28s\n", "streams",
              "NL upd/join(ms)", "DSC upd/join(ms)", "Skyline upd/join(ms)");
  RunOptions options;
  options.num_threads = num_threads;
  for (const int count : stream_counts) {
    if (count > static_cast<int>(full.streams.size())) continue;
    StreamWorkload subset;
    subset.queries = full.queries;
    for (int i = 0; i < count; ++i) {
      subset.streams.push_back(full.streams[static_cast<size_t>(i)]);
    }
    subset.horizon = full.horizon;
    const StatsAccumulator nl =
        RunNpvEngine(subset, JoinKind::kNestedLoop, 3, options);
    const StatsAccumulator dsc =
        RunNpvEngine(subset, JoinKind::kDominatedSetCover, 3, options);
    const StatsAccumulator skyline =
        RunNpvEngine(subset, JoinKind::kSkylineEarlyStop, 3, options);
    std::printf("  %-9d %17.2f /%9.3f %17.2f /%9.3f %17.2f /%9.3f\n", count,
                nl.AvgUpdateMillis(), nl.AvgJoinMillis(),
                dsc.AvgUpdateMillis(), dsc.AvgJoinMillis(),
                skyline.AvgUpdateMillis(), skyline.AvgJoinMillis());
    // Tail behavior: the mean can hide rare expensive timestamps (bulk
    // deletions, skew); the p95/max columns make the tail visible.
    std::printf("  %-9s %17.2f /%9.2f %17.2f /%9.2f %17.2f /%9.2f\n",
                "  p95/max", nl.CostPercentileMillis(95.0), nl.MaxCostMillis(),
                dsc.CostPercentileMillis(95.0), dsc.MaxCostMillis(),
                skyline.CostPercentileMillis(95.0), skyline.MaxCostMillis());
    for (const auto& [label, stats] :
         {std::pair<const char*, const StatsAccumulator*>{"nl", &nl},
          {"dsc", &dsc},
          {"skyline", &skyline}}) {
      auto fields = StatsJsonFields(*stats);
      fields["streams"] = count;
      fields["num_threads"] = num_threads;
      EmitBenchJson(std::string("fig17_") + label, name, fields);
    }
  }
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int pairs = flags.GetInt("pairs", 20);
  const int real_streams = flags.GetInt("real_streams", 10);
  const int timestamps = flags.GetInt("timestamps", 30);
  const uint64_t seed = flags.GetUint64("seed", 11);
  const int num_threads = flags.GetInt("threads", 1);

  std::printf("Figure 17: cost per timestamp vs number of streams\n");

  // A zero step would loop forever when the count is below 5.
  const int real_step = std::max(1, real_streams / 5);
  std::vector<int> real_counts;
  for (int c = real_step; c <= real_streams; c += real_step) {
    real_counts.push_back(c);
  }
  const int synth_step = std::max(1, pairs / 5);
  std::vector<int> synth_counts;
  for (int c = synth_step; c <= pairs; c += synth_step) {
    synth_counts.push_back(c);
  }

  RunSetting("reality-like",
             RealityStreamWorkload(real_streams, real_streams, timestamps,
                                   seed),
             real_counts, num_threads);
  RunSetting("synthetic sparse",
             SyntheticStreamWorkload(pairs, 0.1, 0.3, timestamps, seed + 1,
                                     /*extra_pair_fraction=*/12.0),
             synth_counts, num_threads);
  RunSetting("synthetic dense",
             SyntheticStreamWorkload(pairs, 0.2, 0.15, timestamps, seed + 2,
                                     /*extra_pair_fraction=*/6.2),
             synth_counts, num_threads);

  std::printf("\nPaper shape check: per-timestamp cost grows linearly with "
              "the number of streams for\nall strategies (both update and "
              "join columns). NL pays the largest join cost; DSC\nand "
              "Skyline split theirs between incremental maintenance and "
              "evaluation.\n");
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) { return gsps::bench::Main(argc, argv); }
