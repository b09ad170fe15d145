// The three gate workloads. Each puts most of its time in a different layer
// (README.md, "Workloads"), so a later change's gain shows on one and a
// hidden cost on another.
//
// Each workload's dataset — queries, stream populations, evolution — comes
// from a fixed generator seed, and --seed picks the replay window: the
// start tick in the dataset's stationary stream history. Inputs therefore
// differ from seed to seed (start graphs and every change batch) while the
// problem's size and shape stay those of the workload; per-timestamp cost
// depends steeply on graph density, so redrawing the dataset per seed would
// move the figures by 20-70% between seeds and hide a regression.

#include <algorithm>
#include <cmath>
#include <utility>

#include "gsps/common/random.h"
#include "gsps/gen/query_extractor.h"
#include "gsps/gen/reality_like.h"
#include "gsps/gen/synthetic_generator.h"
#include "perfbench.h"

namespace gsps::perfbench {
namespace {

constexpr uint64_t kDatasetSeed = 7;
constexpr int kMaxWindowStart = 1000;

// The dataset spans every window a seed can pick, so it does not depend on
// the seed.
int History(int horizon) { return kMaxWindowStart + horizon; }

// The `horizon` ticks of `full` that start at tick `start`.
GraphStream Window(const GraphStream& full, int start, int horizon) {
  GraphStream window(full.MaterializeAt(start));
  for (int t = 1; t < horizon; ++t) {
    window.AppendChange(full.ChangeAt(start + t));
  }
  return window;
}

// Replaces every stream by its window, one at a time, so the full history
// and the windows are never all held at once.
StreamDataset WindowAll(StreamDataset dataset, int start, int horizon) {
  for (GraphStream& stream : dataset.streams) {
    stream = Window(stream, start, horizon);
  }
  return dataset;
}

// §V.B synthetic dense setting of Figs. 15-17: 20 basic graphs (T = 40
// edges) serve as the queries, one derived stream each.
StreamDataset MakeDense(int start, int horizon) {
  SyntheticStreamParams synth;
  synth.num_pairs = 20;
  synth.evolution.p_appear = 0.2;
  synth.evolution.p_disappear = 0.15;
  synth.evolution.extra_pair_fraction = 6.2;
  synth.evolution.num_timestamps = History(horizon);
  synth.seed = kDatasetSeed;
  return WindowAll(MakeSyntheticStreams(synth), start, horizon);
}

// Reality-like proximity streams (97 users, 10 labels) with many queries
// extracted from stream snapshots.
StreamDataset MakeReality(int start, int horizon) {
  RealityLikeParams reality;
  reality.num_streams = 25;
  reality.num_queries = 400;
  reality.num_timestamps = History(horizon);
  reality.seed = kDatasetSeed;
  return WindowAll(MakeRealityLikeStreams(reality), start, horizon);
}

// Several hundred small streams whose sizes follow Zipf(1) by rank, with a
// few small queries extracted from snapshots of the heavier streams so that
// some pairs are candidates. Streams are cut to the window as they are
// derived: their full histories would otherwise set the process's peak RSS.
StreamDataset MakeSkewed(int start, int horizon) {
  constexpr int kStreams = 300;
  constexpr double kHeavyEdges = 120.0;
  constexpr int kLabels = 4;
  constexpr int kQueries = 8;
  constexpr int kQuerySources = 16;
  const int history = History(horizon);
  Rng rng(kDatasetSeed);
  StreamDataset dataset;
  StreamEvolutionParams evolution;
  evolution.p_appear = 0.3;
  evolution.p_disappear = 0.3;
  evolution.extra_pair_fraction = 2.0;
  evolution.num_timestamps = history;
  std::vector<Graph> snapshots;
  for (int i = 0; i < kStreams; ++i) {
    const int edges =
        std::max(3, static_cast<int>(std::lround(kHeavyEdges / (i + 1))));
    const Graph base = RandomConnectedGraph(edges, kLabels, 1, rng);
    Rng stream_rng = rng.Fork();
    const GraphStream full =
        DeriveStream(base, kLabels, evolution, stream_rng);
    if (i < kQuerySources) {
      for (const int t : {0, history / 2}) {
        snapshots.push_back(full.MaterializeAt(t));
      }
    }
    dataset.streams.push_back(Window(full, start, horizon));
  }
  while (static_cast<int>(dataset.queries.size()) < kQueries) {
    const int size = static_cast<int>(rng.UniformInt(2, 4));
    std::vector<Graph> extracted = ExtractQuerySet(snapshots, size, 1, rng);
    if (!extracted.empty()) dataset.queries.push_back(std::move(extracted[0]));
  }
  return dataset;
}

// name, make, horizon, warmup, min_ticks, tail_q, setup_reps,
// open_loop_ops_per_s
constexpr WorkloadParams kWorkloads[] = {
    {"dense_maintain", MakeDense, 400, 2, 100, 0.90, 25, 0},
    {"reality_manyq", MakeReality, 600, 4, 120, 0.90, 25, 0},
    {"skewed_ingest", MakeSkewed, 1200, 20, 600, 0.95, 101, 50000.0},
};

}  // namespace

const WorkloadParams* FindWorkload(std::string_view name) {
  for (const WorkloadParams& params : kWorkloads) {
    if (name == params.name) return &params;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadParams& params, uint64_t seed) {
  Rng rng(seed);
  const int start = static_cast<int>(rng.UniformInt(0, kMaxWindowStart));
  StreamDataset dataset = params.make(start, params.horizon);
  Inputs inputs;
  inputs.queries = std::move(dataset.queries);
  inputs.streams = std::move(dataset.streams);
  inputs.window_start = start;
  inputs.ops_at.assign(static_cast<size_t>(params.horizon), 0);
  for (int t = 1; t < params.horizon; ++t) {
    for (int i = 0; i < inputs.num_streams(); ++i) {
      inputs.ops_at[static_cast<size_t>(t)] +=
          static_cast<int64_t>(inputs.Change(i, t).ops.size());
    }
  }
  return inputs;
}

}  // namespace gsps::perfbench
