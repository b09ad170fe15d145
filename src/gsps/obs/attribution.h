// Per-query latency/work attribution, resilient to query-slot churn.
//
// The join strategies already count dominance probes and refresh time in
// aggregate; this module splits those totals by query slot so the metrics
// output can name the heavy hitters. Two halves:
//
//   * QueryAttribution is a single-writer accumulator owned by one
//     strategy instance (one per shard). The strategies bump plain member
//     integers on the hot path (AddProbes / AddRefresh — an add, no lock,
//     no atomics) and tell it about slot lifecycle (OnAddQuery /
//     OnRemoveQuery, with a per-query weight such as its vector count).
//     Flush() — called at epoch-close cadence — distributes the pending
//     totals over the live slots proportionally to weight and merges the
//     rows into the global registry under one lock. Probes cannot be
//     attributed exactly per query inside the batched SIMD kernel, so the
//     weighted split is an approximation; DESIGN.md "Observability v2"
//     discusses the error model.
//
//   * AttributionRegistry is the process-wide table, keyed by slot with a
//     generation stamp. PR 7 reuses retired slots, so a slot id alone is
//     ambiguous across churn; OnAddQuery bumps the slot's generation and
//     the registry replaces (rather than sums) rows whose generation is
//     newer — a reused slot starts attribution from zero, and stale rows
//     from a shard that has not flushed since the churn are dropped.
//     Shards churn in lock-step (same slots, same order), so generations
//     agree across shards and same-generation rows sum.
//
// Everything here compiles to near-nothing under GSPS_OBS_DISABLED: the
// hot-path methods are empty and Flush never publishes.

#ifndef GSPS_OBS_ATTRIBUTION_H_
#define GSPS_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <vector>

#include "gsps/obs/metrics.h"

namespace gsps::obs {

struct AttributionRow {
  int32_t slot = -1;
  int32_t generation = 0;
  int64_t dominance_probes = 0;  // Signature rejects + full dominance tests.
  int64_t refresh_micros = 0;    // Verdict-recompute time attributed here.
  int64_t refreshes = 0;         // Recompute passes the slot was live for.
};

class AttributionRegistry {
 public:
  static AttributionRegistry& Global();

  // Merges rows by slot: a newer generation replaces the stored row, the
  // same generation accumulates, an older generation is dropped.
  void MergeBatch(const AttributionRow* rows, size_t n);

  // Up to k rows with the largest dominance_probes, descending (ties by
  // ascending slot). Rows with zero probes and zero refreshes are skipped.
  void TopK(int k, std::vector<AttributionRow>* out) const;

  void Reset();
};

// Single-writer per-strategy accumulator. Not thread-safe; each strategy
// instance owns one and only its shard's worker touches it.
class QueryAttribution {
 public:
  // Drops all slot state and sizes for `num_slots` (SetQueries).
  void Reset(int num_slots);

  // Slot lifecycle. OnAddQuery (re)activates `slot` with a fresh
  // generation and weight max(weight, 1); OnRemoveQuery deactivates it.
  void OnAddQuery(int slot, int64_t weight);
  void OnRemoveQuery(int slot);

  // Hot path: accumulate work since the last Flush.
  void AddProbes(int64_t probes) {
    if constexpr (kEnabled) pending_probes_ += probes;
  }
  void AddRefresh(int64_t micros) {
    if constexpr (kEnabled) {
      pending_refresh_micros_ += micros;
      ++pending_refreshes_;
    }
  }

  // Distributes the pending totals over live slots proportionally to
  // weight (remainders land on the last live slot so totals conserve) and
  // merges into AttributionRegistry::Global(). Allocation-free once slot
  // capacity is established.
  void Flush();

 private:
  struct Slot {
    int32_t generation = 0;
    int64_t weight = 0;
    bool live = false;
  };

  void EnsureSlot(int slot);

  std::vector<Slot> slots_;
  std::vector<AttributionRow> scratch_;
  int64_t total_weight_ = 0;
  int64_t pending_probes_ = 0;
  int64_t pending_refresh_micros_ = 0;
  int64_t pending_refreshes_ = 0;
};

}  // namespace gsps::obs

#endif  // GSPS_OBS_ATTRIBUTION_H_
