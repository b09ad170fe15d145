// gsps_gen_workload — writes a synthetic monitoring workload to disk in the
// text formats gsps_monitor consumes: a query file (graph_io.h dataset
// format) and one stream file (stream_io.h format).
//
//   gsps_gen_workload --out_queries=patterns.txt --out_stream=traffic.txt ...
//       [--kind=synthetic|reality] [--timestamps=100] [--seed=7]
//
// Exit status: 0 on success, 2 on usage/file errors.

#include <cstdio>
#include <cstring>
#include <string>

#include "gsps/common/file_io.h"
#include "gsps/gen/reality_like.h"
#include "gsps/gen/stream_generator.h"
#include "gsps/graph/graph_io.h"
#include "gsps/graph/stream_io.h"

namespace {

using namespace gsps;

std::string GetFlag(int argc, char** argv, const std::string& name,
                    const std::string& default_value) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return default_value;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_queries = GetFlag(argc, argv, "out_queries", "");
  const std::string out_stream = GetFlag(argc, argv, "out_stream", "");
  if (out_queries.empty() || out_stream.empty()) {
    std::fprintf(stderr,
                 "usage: gsps_gen_workload --out_queries=FILE "
                 "--out_stream=FILE\n"
                 "        [--kind=synthetic|reality] [--timestamps=100] "
                 "[--seed=7]\n");
    return 2;
  }
  const std::string kind = GetFlag(argc, argv, "kind", "synthetic");
  const int timestamps =
      std::atoi(GetFlag(argc, argv, "timestamps", "100").c_str());
  const uint64_t seed =
      std::strtoull(GetFlag(argc, argv, "seed", "7").c_str(), nullptr, 10);

  StreamDataset dataset;
  if (kind == "synthetic") {
    SyntheticStreamParams params;
    params.num_pairs = 8;
    params.evolution.num_timestamps = timestamps;
    params.evolution.extra_pair_fraction = 6.2;
    params.seed = seed;
    dataset = MakeSyntheticStreams(params);
  } else if (kind == "reality") {
    RealityLikeParams params;
    params.num_streams = 1;
    params.num_queries = 8;
    params.num_timestamps = timestamps;
    params.seed = seed;
    dataset = MakeRealityLikeStreams(params);
  } else {
    std::fprintf(stderr, "unknown --kind=%s\n", kind.c_str());
    return 2;
  }

  if (!WriteWholeFile(out_queries, FormatGraphs(dataset.queries))) {
    std::fprintf(stderr, "cannot write %s\n", out_queries.c_str());
    return 2;
  }
  if (!WriteWholeFile(out_stream, FormatStream(dataset.streams.front()))) {
    std::fprintf(stderr, "cannot write %s\n", out_stream.c_str());
    return 2;
  }
  std::printf("wrote %zu queries to %s and a %d-timestamp stream to %s\n",
              dataset.queries.size(), out_queries.c_str(), timestamps,
              out_stream.c_str());
  return 0;
}
