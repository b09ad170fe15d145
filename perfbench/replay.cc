// Closed-loop sequential replay through ContinuousQueryEngine, its sampled
// correctness checks, and the statistics helpers every pass shares.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench.h"

namespace gsps::perfbench {

void RunResult::Fail(int64_t count, const std::string& why) {
  failed += count;
  // A systematic failure would repeat at every tick; ten lines explain it.
  if (++failures_reported <= 10) {
    std::fprintf(stderr, "perfbench: FAILED (%lld ops): %s\n",
                 static_cast<long long>(count), why.c_str());
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

namespace {

uint64_t Mix(uint64_t hash, uint64_t value) {
  // splitmix64 finalizer over the running hash.
  uint64_t z = hash ^ (value + 0x9e3779b97f4a7c15ULL + (hash << 6));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t HashCandidates(uint64_t hash, int stream,
                        const std::vector<int>& set) {
  hash = Mix(hash, static_cast<uint64_t>(stream));
  hash = Mix(hash, set.size());
  for (const int q : set) hash = Mix(hash, static_cast<uint64_t>(q));
  return hash;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

EngineOptions BenchEngineOptions() {
  EngineOptions options;
  options.nnt_depth = 3;
  options.join_kind = JoinKind::kDominatedSetCover;
  return options;
}

int64_t ReplayTick(const Inputs& inputs, ContinuousQueryEngine& engine, int t,
                   std::vector<int>* buffer,
                   CandidateTransitions* transitions) {
  const int n = inputs.num_streams();
  for (int i = 0; i < n; ++i) engine.ApplyChange(i, inputs.Change(i, t));
  int64_t pairs = 0;
  for (int i = 0; i < n; ++i) {
    engine.CandidatesForStream(i, buffer);
    pairs += static_cast<int64_t>(buffer->size());
    engine.ObserveTransitions(i, buffer, transitions);
  }
  return pairs;
}

namespace {

// Checks every stream's candidate set at the engine's current tick against
// a from-scratch join and against exact subgraph isomorphism (Theorem 4.1:
// no false negatives). Each failed stream-timestamp lands in *result.
void CheckTick(const Inputs& inputs, ContinuousQueryEngine& engine, int t,
               bool plant_fault, RunResult* result) {
  const int num_queries = static_cast<int>(inputs.queries.size());
  for (int i = 0; i < inputs.num_streams(); ++i) {
    std::vector<int> current = engine.LastObservedCandidates(i);
    if (plant_fault && i == 0) {
      // Toggle query 0: the self-test's planted wrong candidate set.
      if (!current.empty() && current.front() == 0) {
        current.erase(current.begin());
      } else {
        current.insert(current.begin(), 0);
      }
    }
    bool ok = current == engine.RecomputeCandidatesFromScratch(i);
    for (int q = 0; ok && q < num_queries; ++q) {
      if (!std::binary_search(current.begin(), current.end(), q) &&
          engine.VerifyCandidate(i, q)) {
        ok = false;
      }
    }
    if (!ok) {
      result->Fail(1, "candidate set of stream " + std::to_string(i) +
                          " at tick " + std::to_string(t) +
                          " differs from the from-scratch join or misses a "
                          "subgraph-isomorphic query");
    }
  }
}

}  // namespace

void WarmUp(const Inputs& inputs, ContinuousQueryEngine& engine, int first,
            int last) {
  std::vector<int> buffer;
  CandidateTransitions transitions;
  for (int t = first; t <= last; ++t) {
    ReplayTick(inputs, engine, t, &buffer, &transitions);
  }
}

std::vector<int> CheckTicks(int first_tick, int min_ticks) {
  std::vector<int> ticks;
  for (int k = 1; k <= kCheckTicks; ++k) {
    ticks.push_back(first_tick + (min_ticks - first_tick) * k / kCheckTicks);
  }
  return ticks;
}

void ContinueSequential(const Inputs& inputs, ContinuousQueryEngine& engine,
                        double seconds, int min_ticks,
                        const std::vector<int>& check_at, bool plant_fault,
                        SequentialPass* pass, RunResult* result) {
  std::vector<int> buffer;
  CandidateTransitions transitions;
  for (int t = pass->last_tick + 1; t < inputs.horizon(); ++t) {
    if (pass->timed_seconds >= seconds &&
        (t > min_ticks || pass->timed_seconds >= 6 * seconds)) {
      break;
    }
    const Clock::time_point start = Clock::now();
    const int64_t pairs = ReplayTick(inputs, engine, t, &buffer, &transitions);
    const double elapsed = SecondsSince(start);
    pass->last_tick = t;
    pass->timed_seconds += elapsed;
    pass->tick_ms.push_back(elapsed * 1e3);
    pass->timed_ops += inputs.ops_at[static_cast<size_t>(t)];
    if (t <= min_ticks) {
      pass->candidate_pairs += pairs;
      ++pass->ratio_ticks;
    }

    uint64_t hash = kHashSeed;
    for (int i = 0; i < inputs.num_streams(); ++i) {
      hash = HashCandidates(hash, i, engine.LastObservedCandidates(i));
    }
    pass->tick_hash[static_cast<size_t>(t)] = hash;
    result->attempted += inputs.num_streams();
    if (std::find(check_at.begin(), check_at.end(), t) != check_at.end()) {
      CheckTick(inputs, engine, t, plant_fault && t == check_at.front(),
                result);
    }
  }
}

SequentialPass RunSequential(const Inputs& inputs,
                             ContinuousQueryEngine& engine, int min_ticks,
                             double seconds, RunResult* result) {
  SequentialPass pass(inputs);
  ContinueSequential(inputs, engine, seconds, min_ticks, {}, false, &pass,
                     result);
  return pass;
}

}  // namespace gsps::perfbench
