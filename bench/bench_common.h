// Shared infrastructure for the experiment harnesses: a tiny flag parser,
// table printing, and the three method runners (NPV engine, GraphGrep,
// gIndex) that every stream experiment reuses.

#ifndef GSPS_BENCH_BENCH_COMMON_H_
#define GSPS_BENCH_BENCH_COMMON_H_

#include <map>
#include <string>
#include <vector>

#include "gsps/baselines/gindex/gspan_miner.h"
#include "gsps/engine/filter_stats.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/graph/graph.h"
#include "gsps/graph/graph_stream.h"
#include "gsps/join/join_strategy.h"

namespace gsps::bench {

// --- Flags -------------------------------------------------------------

// Parses "--name=value" and "--flag" arguments.
class Flags {
 public:
  Flags(int argc, char** argv);

  int GetInt(const std::string& name, int default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;
  uint64_t GetUint64(const std::string& name, uint64_t default_value) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

// --- Workloads -----------------------------------------------------------

// A stream experiment workload, truncated to `horizon` timestamps.
struct StreamWorkload {
  std::vector<Graph> queries;
  std::vector<GraphStream> streams;
  int horizon = 0;  // Number of timestamps to run (including t = 0).
};

// Truncates/subsets a StreamDataset into a workload.
StreamWorkload MakeWorkload(StreamDataset dataset, int num_queries,
                            int num_streams, int horizon);

// The paper's three synthetic/real stream settings (§V.B), at bench scale.
// `extra_pair_fraction` scales the candidate vertex-pair set of the
// evolution (see stream_generator.h).
StreamWorkload SyntheticStreamWorkload(int num_pairs, double p1, double p2,
                                       int horizon, uint64_t seed,
                                       double extra_pair_fraction = 4.0);
StreamWorkload RealityStreamWorkload(int num_streams, int num_queries,
                                     int horizon, uint64_t seed);

// --- Method runners --------------------------------------------------------

struct RunOptions {
  // Compute exact ground truth (VF2 over all pairs) every N timestamps;
  // 0 disables. Ground truth feeds precision columns only.
  int ground_truth_every = 0;
  // Worker threads for the NPV engine; 1 runs the sequential
  // ContinuousQueryEngine, >1 the threaded PipelinedQueryEngine with one
  // epoch per timestamp (identical output; each timestamp's update and
  // join run shard-concurrently).
  int num_threads = 1;
};

// Runs the NPV engine (this paper's method) over the workload.
StatsAccumulator RunNpvEngine(const StreamWorkload& workload, JoinKind kind,
                              int depth, const RunOptions& options = {});

// Runs the GraphGrep baseline: per timestamp, re-fingerprint each stream
// graph and filter all queries.
StatsAccumulator RunGraphGrepBaseline(const StreamWorkload& workload,
                                      int max_path_length,
                                      const RunOptions& options = {});

// Runs the gIndex baseline: per timestamp, re-mine features over the
// current stream snapshots (the paper's protocol) and filter all queries.
StatsAccumulator RunGindexBaseline(const StreamWorkload& workload,
                                   const GspanOptions& mining,
                                   const RunOptions& options = {});

// --- Static-database helpers (Figs. 12-13) -----------------------------

// Fraction of (query, database graph) pairs the NPV dominance filter keeps,
// at the given NNT depth.
double NpvStaticCandidateRatio(const std::vector<Graph>& database,
                               const std::vector<Graph>& queries, int depth);

// --- Output ------------------------------------------------------------

// Prints "name  value" aligned rows.
void PrintHeader(const std::string& title);
void PrintRow(const std::string& label, const std::vector<double>& values,
              const std::vector<std::string>& columns);

// Emits one machine-readable JSON line for a finished run:
//   {"bench":"<bench>","setting":"<setting>","<k>":<v>,...}
// Always written to stdout (prefixed "BENCH_JSON "); additionally appended
// verbatim to the file named by the GSPS_BENCH_JSON environment variable
// when set, which is how CI archives the perf trajectory of every figure
// harness as a BENCH_<name>.json workflow artifact.
void EmitBenchJson(const std::string& bench, const std::string& setting,
                   const std::map<std::string, double>& fields);

// Flattens a StatsAccumulator into EmitBenchJson fields (avg costs, ratio,
// precision, sample count).
std::map<std::string, double> StatsJsonFields(const StatsAccumulator& stats);

}  // namespace gsps::bench

#endif  // GSPS_BENCH_BENCH_COMMON_H_
