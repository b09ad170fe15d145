// Developer utility: probes candidate ratios and matching statistics of a
// stream workload across generator settings. Not part of the paper's
// tables; used to calibrate the synthetic substitutions documented in
// DESIGN.md (and handy when adapting the generators to new scenarios).
//
//   workload_probe --pairs=10 --timestamps=20 --extra=4.0 --p1=0.2 --p2=0.15

#include <cstdio>

#include "bench_common.h"
#include "gsps/iso/subgraph_isomorphism.h"

namespace gsps::bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int pairs = flags.GetInt("pairs", 10);
  const int timestamps = flags.GetInt("timestamps", 20);
  const double p1 = flags.GetDouble("p1", 0.2);
  const double p2 = flags.GetDouble("p2", 0.15);
  const double extra = flags.GetDouble("extra", 4.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 11));
  const bool reality = flags.GetBool("reality");
  const bool truth = flags.GetBool("truth");
  if (!AllFlagsKnown(flags)) return 2;

  const StreamWorkload workload =
      reality ? RealityStreamWorkload(pairs, pairs, timestamps, seed)
              : SyntheticStreamWorkload(pairs, p1, p2, timestamps, seed,
                                        extra);

  double query_edges = 0;
  for (const Graph& q : workload.queries) query_edges += q.NumEdges();
  double stream_edges = 0, stream_vertices = 0;
  for (const GraphStream& s : workload.streams) {
    const Graph g = s.MaterializeAt(workload.horizon / 2);
    stream_edges += g.NumEdges();
    stream_vertices += g.NumVertices();
  }
  std::printf("avg query edges:   %.1f\n",
              query_edges / static_cast<double>(workload.queries.size()));
  std::printf("avg stream size:   %.1f vertices, %.1f edges\n",
              stream_vertices / static_cast<double>(workload.streams.size()),
              stream_edges / static_cast<double>(workload.streams.size()));

  RunOptions options;
  options.ground_truth_every = truth ? 5 : 0;
  const StatsAccumulator npv =
      RunNpvEngine(workload, JoinKind::kDominatedSetCover, 3, options);
  const StatsAccumulator ggrep = RunGraphGrepBaseline(workload, 4, options);
  std::printf("NPV   candidate%%=%6.2f  cost/step=%.3f ms\n",
              100.0 * npv.AvgCandidateRatio(), npv.AvgCostMillis());
  std::printf("Ggrep candidate%%=%6.2f  cost/step=%.3f ms\n",
              100.0 * ggrep.AvgCandidateRatio(), ggrep.AvgCostMillis());
  if (truth) {
    std::printf("NPV precision=%.3f  no-false-negative=%s\n",
                npv.AvgPrecision(),
                npv.CandidatesNeverBelowTruth() ? "ok" : "VIOLATED");
  }
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) { return gsps::bench::Main(argc, argv); }
