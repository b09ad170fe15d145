// Micro/ablation benchmark for the delta-driven join strategies: candidate
// refresh throughput of NL vs DSC vs Skyline under sparse per-timestamp
// deltas, with the dominance-test, signature-reject, and verdict-reuse
// counts behind each number. Complements Figs. 16-17 with kernel-level
// numbers isolated from NNT maintenance, and is the regression harness for
// the incremental join state (DESIGN.md "Incremental join state").
//
// The measured loop mirrors a monitoring deployment: per step, ONE stream
// vertex moves (the sparse delta a single ApplyChange batch produces), then
// the candidate sets of ALL streams are refreshed through the caller-buffer
// overload. Unchanged streams must be answered from the per-stream verdict
// cache; the changed stream re-evaluates only the dominance relations its
// delta touched. The from-scratch baseline row rebuilds a fresh strategy per
// refresh — the pre-incremental cost model.
//
// Flags:
//   --queries=N          number of queries (default 40)
//   --qvecs=N            query vectors per query (default 8)
//   --stream_vertices=N  vertices per stream (default 60)
//   --streams=N          number of streams (default 4)
//   --dims=N             NPV dimension universe (default 64)
//   --nnz=N              non-zero entries per vector (default 3)
//   --refreshes=N        timed delta+refresh steps (default 2000)
//   --warmup=N           untimed warm-up steps (0 = one full delta-pool
//                        cycle, so the timed loop is pure steady state)
//   --delta_reps=N       pre-generated vectors per (stream, vertex) slot;
//                        the pool cycles through reps*streams*vertices
//                        deltas (default 2)
//   --rebuilds=N         from-scratch rebuild+refresh baseline reps
//   --seed=N             workload seed
//   --kernel=1           dominance-kernel ablation instead of the strategy
//                        rows (see RunKernelAblation)
//   --kernel_hays=N      hay vectors in the ablation's pool (default 256)
//   --kernel_passes=N    timed sweeps of the pool per ISA, split over 20
//                        interleaved rounds (default 300)
//
// Output: human-readable rows plus one EmitBenchJson line per strategy
// (bench "micro_join"), archived by the CI bench-JSON job; CI also checks
// the dominance-test count per refresh against a regression ceiling.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gsps/common/alloc_hook.h"
#include "gsps/common/random.h"
#include "gsps/common/stopwatch.h"
#include "gsps/join/dominance_kernel.h"
#include "gsps/join/join_strategy.h"
#include "gsps/obs/obs.h"
#include "gsps/obs/window.h"

namespace gsps::bench {
namespace {

// Prevents the optimizer from deleting measured work.
inline void KeepAlive(int64_t value) { asm volatile("" : : "r"(value)); }

// CPU time of the calling thread, in microseconds. Unlike wall time it
// leaves out what other processes on a shared host take from the thread,
// so the obs-overhead gate compares builds on it.
double ThreadCpuMicros() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e6 +
         static_cast<double>(now.tv_nsec) / 1e3;
}

// Random sparse NPV over `dims` dimensions with `nnz` non-zero entries.
Npv RandomNpv(Rng& rng, int dims, int nnz, int max_count) {
  std::unordered_map<DimId, int32_t> counts;
  for (int i = 0; i < nnz; ++i) {
    counts[static_cast<DimId>(rng.UniformInt(0, dims - 1))] =
        static_cast<int32_t>(rng.UniformInt(1, max_count));
  }
  return Npv::FromMap(counts);
}

struct Workload {
  std::vector<QueryVectors> queries;
  // Per stream: the live vertex vectors.
  std::vector<std::vector<std::pair<VertexId, Npv>>> streams;
};

Workload MakeVectorWorkload(int num_queries, int vectors_per_query,
                            int stream_vertices, int num_streams, int dims,
                            int nnz, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  for (int j = 0; j < num_queries; ++j) {
    QueryVectors q;
    for (int v = 0; v < vectors_per_query; ++v) {
      q.vectors.push_back(RandomNpv(rng, dims, nnz, 4));
    }
    w.queries.push_back(std::move(q));
  }
  w.streams.resize(static_cast<size_t>(num_streams));
  for (auto& stream : w.streams) {
    for (int v = 0; v < stream_vertices; ++v) {
      stream.emplace_back(static_cast<VertexId>(v),
                          RandomNpv(rng, dims, nnz, 6));
    }
  }
  return w;
}

// Every flag, read before any run so a misspelled one is reported whichever
// mode it belongs to.
struct Config {
  int queries = 0;
  int qvecs = 0;
  int stream_vertices = 0;
  int streams = 0;
  int dims = 0;
  int nnz = 0;
  int refreshes = 0;
  int warmup = 0;
  int delta_reps = 0;
  int rebuilds = 0;
  int kernel_hays = 0;
  int kernel_passes = 0;
  uint64_t seed = 0;
  bool kernel = false;
};

std::unique_ptr<JoinStrategy> BuildStrategy(JoinKind kind, const Workload& w) {
  auto strategy = MakeJoinStrategy(kind);
  strategy->SetQueries(w.queries);
  strategy->SetNumStreams(static_cast<int>(w.streams.size()));
  for (size_t i = 0; i < w.streams.size(); ++i) {
    for (const auto& [v, npv] : w.streams[i]) {
      strategy->UpdateStreamVertex(static_cast<int>(i), v, npv);
    }
  }
  return strategy;
}

void RunStrategy(JoinKind kind, const Workload& w, const Config& config) {
  const int dims = config.dims;
  const int nnz = config.nnz;
  const int refreshes = config.refreshes;
  const int warmup_flag = config.warmup;
  const int rebuilds = config.rebuilds;
  const uint64_t seed = config.seed;
  const int num_streams = static_cast<int>(w.streams.size());
  const int stream_vertices = static_cast<int>(w.streams[0].size());

  auto strategy = BuildStrategy(kind, w);

  // Pre-generated sparse deltas, cycled: one vertex of one stream moves per
  // step. A fixed pool means a long-enough warm-up visits every update the
  // timed loop replays, so the timed loop is a true steady state (no new
  // map keys, no capacity growth) and the allocation meter sees only the
  // strategies' own refresh work.
  struct Delta {
    int stream;
    VertexId victim;
    Npv npv;
  };
  std::vector<Delta> deltas;
  Rng delta_rng(seed + 1);
  const int reps = config.delta_reps;
  for (int rep = 0; rep < reps; ++rep) {
    for (int stream = 0; stream < num_streams; ++stream) {
      for (int v = 0; v < stream_vertices; ++v) {
        deltas.push_back({stream, static_cast<VertexId>(v),
                          RandomNpv(delta_rng, dims, nnz, 6)});
      }
    }
  }
  // Shuffled so each slot alternates between its `reps` distinct vectors in
  // no particular order: every replayed update is a genuine value change.
  for (size_t i = deltas.size(); i > 1; --i) {
    std::swap(deltas[i - 1], deltas[static_cast<size_t>(delta_rng.UniformInt(
                  0, static_cast<int64_t>(i) - 1))]);
  }

  // One monitoring step: apply the delta, then refresh every stream's
  // candidate set into a reused buffer.
  std::vector<int> candidates;
  int64_t candidates_seen = 0;
  size_t next_delta = 0;
  auto step = [&] {
    const Delta& d = deltas[next_delta];
    next_delta = (next_delta + 1) % deltas.size();
    strategy->UpdateStreamVertex(d.stream, d.victim, d.npv);
    for (int i = 0; i < num_streams; ++i) {
      strategy->CandidatesForStream(i, &candidates);
      candidates_seen += static_cast<int64_t>(candidates.size());
    }
  };

  const int warmup = warmup_flag > 0 ? warmup_flag
                                     : static_cast<int>(deltas.size());
  for (int i = 0; i < warmup; ++i) step();

  obs::MetricSink sink;
  Stopwatch watch;
  double refresh_seconds = 0;
  // Thread CPU time per step of the least-disturbed of kCpuChunks equal
  // chunks of the timed loop: co-running processes still slow a thread
  // they do not preempt (shared caches, a busy sibling hyperthread), and
  // the chunk they disturbed least reads closest to the code's own cost.
  constexpr int kCpuChunks = 10;
  double delta_cpu_micros = 0;
  int64_t steady_allocs = 0;
  int64_t steady_frees = 0;
  {
    obs::ScopedObsContext context(&sink, nullptr);
    const AllocMeter meter;
    watch.Restart();
    for (int chunk = 0; chunk < kCpuChunks; ++chunk) {
      const int begin = refreshes * chunk / kCpuChunks;
      const int end = refreshes * (chunk + 1) / kCpuChunks;
      if (end == begin) continue;
      const double cpu_start = ThreadCpuMicros();
      for (int i = begin; i < end; ++i) step();
      const double per_step = (ThreadCpuMicros() - cpu_start) / (end - begin);
      if (delta_cpu_micros == 0 || per_step < delta_cpu_micros) {
        delta_cpu_micros = per_step;
      }
    }
    refresh_seconds = watch.ElapsedMicros() / 1e6;
    steady_allocs = meter.allocs();
    steady_frees = meter.frees();
  }
  KeepAlive(candidates_seen);

  // Each step refreshes every stream once.
  const double refreshes_per_sec =
      static_cast<double>(refreshes) * num_streams / refresh_seconds;
  const double delta_micros = refresh_seconds / refreshes * 1e6;
  const int64_t total_refreshes =
      static_cast<int64_t>(refreshes) * num_streams;
  const int64_t dominance_tests =
      sink.Value(obs::Counter::kJoinDominanceTests);
  const int64_t sig_rejects =
      sink.Value(obs::Counter::kJoinSignatureRejects);
  const int64_t verdicts_reused =
      sink.Value(obs::Counter::kJoinVerdictsReused);
  const int64_t sig_candidates = dominance_tests + sig_rejects;
  const double sig_reject_rate =
      sig_candidates > 0
          ? static_cast<double>(sig_rejects) / static_cast<double>(sig_candidates)
          : 0.0;
  const double tests_per_refresh =
      static_cast<double>(dominance_tests) / static_cast<double>(total_refreshes);
  const double reuse_rate = static_cast<double>(verdicts_reused) /
                            static_cast<double>(total_refreshes);
  // Per-stage tail latency from the join-refresh stage histogram the timed
  // loop populated (zeros under GSPS_OBS_DISABLED).
  const obs::HistogramData& refresh_hist =
      sink.histogram(obs::Hist::kStageJoinRefreshMicros);
  const double refresh_p50 = obs::HistogramQuantile(refresh_hist, 0.5);
  const double refresh_p95 = obs::HistogramQuantile(refresh_hist, 0.95);

  // The pre-incremental cost model: rebuild the strategy from the current
  // vectors and evaluate every stream once per refresh.
  std::vector<std::vector<std::pair<VertexId, Npv>>> current(
      static_cast<size_t>(num_streams));
  for (int i = 0; i < num_streams; ++i) {
    current[static_cast<size_t>(i)] = w.streams[static_cast<size_t>(i)];
  }
  watch.Restart();
  for (int r = 0; r < rebuilds; ++r) {
    auto fresh = MakeJoinStrategy(kind);
    fresh->SetQueries(w.queries);
    fresh->SetNumStreams(num_streams);
    for (int i = 0; i < num_streams; ++i) {
      for (const auto& [v, npv] : current[static_cast<size_t>(i)]) {
        fresh->UpdateStreamVertex(i, v, npv);
      }
    }
    for (int i = 0; i < num_streams; ++i) {
      fresh->CandidatesForStream(i, &candidates);
      KeepAlive(static_cast<int64_t>(candidates.size()));
    }
  }
  const double scratch_refreshes_per_sec =
      static_cast<double>(rebuilds) * num_streams /
      (watch.ElapsedMicros() / 1e6);
  const double speedup = scratch_refreshes_per_sec > 0
                             ? refreshes_per_sec / scratch_refreshes_per_sec
                             : 0.0;

  const std::string name(JoinKindName(kind));
  PrintHeader("micro_join " + name + " (queries=" +
              std::to_string(w.queries.size()) + " streams=" +
              std::to_string(num_streams) + " vertices=" +
              std::to_string(stream_vertices) + " dims=" +
              std::to_string(dims) + " nnz=" + std::to_string(nnz) + ")");
  const std::vector<std::string> columns = {"value"};
  PrintRow("refreshes_per_sec", {refreshes_per_sec}, columns);
  PrintRow("delta_step_micros", {delta_micros}, columns);
  PrintRow("delta_step_cpu_micros", {delta_cpu_micros}, columns);
  PrintRow("scratch_refreshes_per_sec", {scratch_refreshes_per_sec}, columns);
  PrintRow("incremental_speedup", {speedup}, columns);
  PrintRow("dominance_tests_per_refresh", {tests_per_refresh}, columns);
  PrintRow("signature_reject_rate", {sig_reject_rate}, columns);
  PrintRow("verdict_reuse_rate", {reuse_rate}, columns);
  PrintRow("stage_join_refresh_p50", {refresh_p50}, columns);
  PrintRow("stage_join_refresh_p95", {refresh_p95}, columns);
  PrintRow("steady_allocs", {static_cast<double>(steady_allocs)}, columns);
  PrintRow("steady_frees", {static_cast<double>(steady_frees)}, columns);

  EmitBenchJson(
      "micro_join", name,
      {{"queries", static_cast<double>(w.queries.size())},
       {"streams", static_cast<double>(num_streams)},
       {"stream_vertices", static_cast<double>(stream_vertices)},
       {"dims", static_cast<double>(dims)},
       {"nnz", static_cast<double>(nnz)},
       {"refreshes", static_cast<double>(total_refreshes)},
       {"refreshes_per_sec", refreshes_per_sec},
       {"delta_step_micros", delta_micros},
       {"delta_step_cpu_micros", delta_cpu_micros},
       {"scratch_refreshes_per_sec", scratch_refreshes_per_sec},
       {"incremental_speedup", speedup},
       {"dominance_tests", static_cast<double>(dominance_tests)},
       {"dominance_tests_per_refresh", tests_per_refresh},
       {"signature_rejects", static_cast<double>(sig_rejects)},
       {"signature_reject_rate", sig_reject_rate},
       {"verdicts_reused", static_cast<double>(verdicts_reused)},
       {"verdict_reuse_rate", reuse_rate},
       {"stage_join_refresh_p50", refresh_p50},
       {"stage_join_refresh_p95", refresh_p95},
       {"steady_allocs", static_cast<double>(steady_allocs)},
       {"steady_frees", static_cast<double>(steady_frees)}});
}

// --kernel=1: dominance-kernel ablation. Same query-side slab the NL
// strategy binds; a pool of translated stream-style hay vectors (half
// sparse/reject-heavy, half denser/accept-heavy) is swept through
// ComputeMask per ISA. Every supported ISA is first differentially verified
// against the scalar kernel on every pool hay — masks, counts, and stats
// must match bit-for-bit, else the bench exits non-zero (the CI
// kernel-dispatch matrix relies on this) — then timed, the ISAs
// interleaved round by round. One "kernel_<isa>" JSON row per ISA records
// the median dominance tests/s over rounds and the median per-round
// speedup over scalar, which CI's kernel speedup gate reads.
void RunKernelAblation(const Workload& w, const Config& config) {
  const int dims = config.dims;
  const int nnz = config.nnz;
  const int hays = config.kernel_hays;
  const int passes = config.kernel_passes;
  const uint64_t seed = config.seed;

  NpvDimRemap remap;
  for (const QueryVectors& query : w.queries) {
    for (const Npv& vector : query.vectors) remap.AddDims(vector);
  }
  NpvSlab slab;
  std::vector<NpvEntry> translated;
  for (const QueryVectors& query : w.queries) {
    for (const Npv& vector : query.vectors) {
      if (vector.nnz() == 0) continue;
      remap.Translate(vector, &translated);
      slab.Append(translated);
    }
  }

  // Hay mix in thirds: sparse (signature-reject-heavy), dense (some
  // accepts), and supersets of random slab needles (guaranteed accepts,
  // mostly dominating) — so the sweep exercises the signature pre-pass AND
  // the compare pass in realistic proportion instead of measuring rejects
  // alone.
  struct Hay {
    std::vector<NpvEntry> entries;
    NpvSignature sig = 0;
  };
  std::vector<Hay> pool;
  pool.reserve(static_cast<size_t>(hays));
  Rng rng(seed + 2);
  for (int h = 0; h < hays; ++h) {
    Hay hay;
    if (h % 3 == 2 && slab.size() > 0) {
      const int32_t k = static_cast<int32_t>(
          rng.UniformInt(0, static_cast<int64_t>(slab.size()) - 1));
      hay.entries.assign(slab.begin(k), slab.end(k));
      for (NpvEntry& entry : hay.entries) {
        entry.count += static_cast<int32_t>(rng.UniformInt(0, 2));
      }
      for (int extra = 0; extra < 4; ++extra) {
        const NpvEntry fresh{
            static_cast<DimId>(rng.UniformInt(0, remap.num_dims() - 1)),
            static_cast<int32_t>(rng.UniformInt(1, 6))};
        auto it = std::lower_bound(
            hay.entries.begin(), hay.entries.end(), fresh,
            [](const NpvEntry& a, const NpvEntry& b) { return a.dim < b.dim; });
        if (it == hay.entries.end() || it->dim != fresh.dim) {
          hay.entries.insert(it, fresh);
        }
      }
      hay.sig = SignatureOf(hay.entries.data(),
                            hay.entries.data() + hay.entries.size());
    } else {
      const int hay_nnz = h % 3 == 0 ? nnz : std::min(dims, nnz * 8);
      hay.sig =
          remap.Translate(RandomNpv(rng, dims, hay_nnz, 6), &hay.entries);
    }
    pool.push_back(std::move(hay));
  }

  std::vector<DominanceIsa> isas;
  for (int i = 0; i < kNumDominanceIsas; ++i) {
    const DominanceIsa isa = static_cast<DominanceIsa>(i);
    if (DominanceIsaSupported(isa)) isas.push_back(isa);
  }

  // Differential phase (untimed): every ISA against scalar, on every hay.
  DominanceBatch scalar(DominanceIsa::kScalar);
  scalar.Bind(slab, remap.num_dims());
  for (const DominanceIsa isa : isas) {
    if (isa == DominanceIsa::kScalar) continue;
    DominanceBatch batch(isa);
    batch.Bind(slab, remap.num_dims());
    for (const Hay& hay : pool) {
      const NpvEntry* const begin = hay.entries.data();
      const NpvEntry* const end = begin + hay.entries.size();
      DominanceKernelStats ref_stats, isa_stats;
      scalar.ComputeMask(begin, end, hay.sig, &ref_stats);
      batch.ComputeMask(begin, end, hay.sig, &isa_stats);
      bool diverged = ref_stats.tests != isa_stats.tests ||
                      ref_stats.sig_rejects != isa_stats.sig_rejects;
      scalar.ComputeCounts(begin, end, &ref_stats);
      batch.ComputeCounts(begin, end, &isa_stats);
      for (int32_t k = 0; k < slab.size(); ++k) {
        diverged = diverged || scalar.Dominated(k) != batch.Dominated(k) ||
                   scalar.SatisfiedCount(k) != batch.SatisfiedCount(k);
      }
      if (diverged) {
        std::fprintf(stderr,
                     "micro_join --kernel: %s diverges from scalar\n",
                     DominanceIsaName(isa));
        std::exit(1);
      }
    }
  }

  // Timed phase: kKernelRounds rounds, each sweeping the pool an equal
  // chunk of the `passes` per ISA, every ISA in turn on thread CPU time, in
  // an order that flips every round. A slow stretch of a shared host then
  // lands on both ISAs of a round, and the medians over rounds leave out
  // the rounds it spoiled.
  PrintHeader("micro_join kernel (slab=" + std::to_string(slab.size()) +
              " dims=" + std::to_string(remap.num_dims()) + " hays=" +
              std::to_string(hays) + " passes=" + std::to_string(passes) +
              " active=" + DominanceIsaName(ActiveDominanceIsa()) + ")");
  constexpr int kKernelRounds = 20;
  const int chunk = std::max(1, passes / kKernelRounds);
  struct Timed {
    DominanceBatch batch;
    DominanceKernelStats stats;
    double seconds = 0;
    std::vector<double> rates;  // Probes/s per round.
  };
  std::vector<Timed> timed;
  timed.reserve(isas.size());
  for (const DominanceIsa isa : isas) {
    timed.push_back(Timed{DominanceBatch(isa), {}, 0, {}});
    timed.back().batch.Bind(slab, remap.num_dims());
  }
  for (int round = 0; round < kKernelRounds; ++round) {
    for (size_t t = 0; t < timed.size(); ++t) {
      Timed& side = timed[round % 2 == 0 ? t : timed.size() - 1 - t];
      // One probe = one (hay, needle) dominance decision, whether it was
      // resolved by the signature or by the compare pass.
      const int64_t probes_before = side.stats.tests + side.stats.sig_rejects;
      const double start = ThreadCpuMicros();
      for (int p = 0; p < chunk; ++p) {
        for (const Hay& hay : pool) {
          side.batch.ComputeMask(hay.entries.data(),
                                 hay.entries.data() + hay.entries.size(),
                                 hay.sig, &side.stats);
        }
      }
      const double seconds = (ThreadCpuMicros() - start) / 1e6;
      side.seconds += seconds;
      side.rates.push_back(
          static_cast<double>(side.stats.tests + side.stats.sig_rejects -
                              probes_before) /
          seconds);
    }
  }
  auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  };
  const std::vector<std::string> columns = {"value"};
  for (size_t t = 0; t < timed.size(); ++t) {
    const Timed& side = timed[t];
    KeepAlive(side.stats.tests);
    // isas[0] is scalar: its rounds are the speedups' denominators.
    std::vector<double> speedups;
    for (int round = 0; round < kKernelRounds; ++round) {
      speedups.push_back(side.rates[static_cast<size_t>(round)] /
                         timed[0].rates[static_cast<size_t>(round)]);
    }
    const double probes_per_sec = median(side.rates);
    const double speedup = median(speedups);
    const std::string name = std::string("kernel_") + DominanceIsaName(isas[t]);
    PrintRow(name + "_tests_per_sec", {probes_per_sec}, columns);
    PrintRow(name + "_speedup_vs_scalar", {speedup}, columns);
    EmitBenchJson(
        "micro_join", name,
        {{"slab_vectors", static_cast<double>(slab.size())},
         {"dims", static_cast<double>(remap.num_dims())},
         {"hays", static_cast<double>(hays)},
         {"passes", static_cast<double>(chunk * kKernelRounds)},
         {"rounds", static_cast<double>(kKernelRounds)},
         {"batches", static_cast<double>(side.stats.batches)},
         {"dominance_tests", static_cast<double>(side.stats.tests)},
         {"signature_rejects", static_cast<double>(side.stats.sig_rejects)},
         {"seconds", side.seconds},
         {"dominance_tests_per_sec", probes_per_sec},
         {"speedup_vs_scalar", speedup},
         {"active", isas[t] == ActiveDominanceIsa() ? 1.0 : 0.0}});
  }
}

int Run(FlagParser& flags) {
  Config config;
  config.queries = flags.GetInt("queries", 40);
  config.qvecs = flags.GetInt("qvecs", 8);
  config.stream_vertices = flags.GetInt("stream_vertices", 60);
  config.streams = flags.GetInt("streams", 4);
  config.dims = flags.GetInt("dims", 64);
  config.nnz = flags.GetInt("nnz", 3);
  config.refreshes = flags.GetInt("refreshes", 2000);
  config.warmup = flags.GetInt("warmup", 0);
  config.delta_reps = flags.GetInt("delta_reps", 2);
  config.rebuilds = flags.GetInt("rebuilds", 50);
  config.kernel_hays = flags.GetInt("kernel_hays", 256);
  config.kernel_passes = flags.GetInt("kernel_passes", 300);
  config.seed = static_cast<uint64_t>(flags.GetInt64("seed", 9));
  config.kernel = flags.GetBool("kernel");
  if (!AllFlagsKnown(flags)) return 2;
  const Workload w = MakeVectorWorkload(
      config.queries, config.qvecs, config.stream_vertices, config.streams,
      config.dims, config.nnz, config.seed);
  if (config.kernel) {
    RunKernelAblation(w, config);
    return 0;
  }
  for (const JoinKind kind :
       {JoinKind::kNestedLoop, JoinKind::kDominatedSetCover,
        JoinKind::kSkylineEarlyStop}) {
    RunStrategy(kind, w, config);
  }
  return 0;
}

}  // namespace
}  // namespace gsps::bench

int main(int argc, char** argv) {
  gsps::FlagParser flags(argc, argv);
  return gsps::bench::Run(flags);
}
