#include "gsps/obs/exemplar.h"

#include <algorithm>
#include <mutex>

namespace gsps::obs {

namespace {

// Constant-initialized, never heap-allocated: the ring is reached from the
// StageSample path inside the benches' steady-state loops, whose AllocMeter
// gate counts every operator new — a lazily `new`ed singleton would charge
// its one allocation to whichever strategy happens to take the first tail
// sample.
struct StoreState {
  std::mutex mutex;
  Span ring[kExemplarRingSize];
  int num_recorded = 0;
};

constinit StoreState g_store;

}  // namespace

ExemplarStore& ExemplarStore::Global() {
  static constinit ExemplarStore store;
  return store;
}

void ExemplarStore::Record(const Span& span) {
  StoreState& state = g_store;
  std::lock_guard<std::mutex> lock(state.mutex);
  state.ring[state.num_recorded % kExemplarRingSize] = span;
  ++state.num_recorded;
}

void ExemplarStore::Snapshot(std::vector<Span>* out) const {
  StoreState& state = g_store;
  std::lock_guard<std::mutex> lock(state.mutex);
  out->clear();
  const int retained = std::min(state.num_recorded, kExemplarRingSize);
  for (int i = retained; i > 0; --i) {
    out->push_back(state.ring[(state.num_recorded - i) % kExemplarRingSize]);
  }
}

void ExemplarStore::Reset() {
  StoreState& state = g_store;
  std::lock_guard<std::mutex> lock(state.mutex);
  state.num_recorded = 0;
  for (Span& slot : state.ring) slot = Span{};
}

}  // namespace gsps::obs
