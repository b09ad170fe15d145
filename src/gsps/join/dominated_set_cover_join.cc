#include "gsps/join/dominated_set_cover_join.h"

#include <algorithm>
#include <utility>

#include "gsps/common/check.h"
#include "gsps/obs/obs.h"

namespace gsps {
namespace {

// Number of slab slot `k`'s entries that `hay` (sorted by dim)
// satisfies: the dominant counter of a vertex with entries `hay`. Linear
// merge; a freed slot has no entries and counts 0.
int32_t MergeCount(const std::vector<NpvEntry>& hay, const NpvSlab& slab,
                   int32_t k) {
  int32_t satisfied = 0;
  auto it = hay.begin();
  for (const NpvEntry* e = slab.begin(k); e != slab.end(k); ++e) {
    while (it != hay.end() && it->dim < e->dim) ++it;
    if (it != hay.end() && it->dim == e->dim && it->count >= e->count) {
      ++satisfied;
    }
  }
  return satisfied;
}

// Dies unless every vector of `query` fits a uint16_t counter row.
void CheckVectorNnz(const QueryVectors& query) {
  for (const Npv& vector : query.vectors) {
    GSPS_CHECK_MSG(vector.nnz() <= DominatedSetCoverJoin::kMaxVectorNnz,
                   "DSC: a query vector has more than 65535 non-zero "
                   "dimensions, past its uint16_t counter range");
  }
}

}  // namespace

void DominatedSetCoverJoin::SetQueries(std::vector<QueryVectors> queries) {
  for (const QueryVectors& query : queries) CheckVectorNnz(query);
  streams_.SetQueries(queries);
  query_.SetQueries(queries, streams_.remap());
  const NpvSlab& slab = query_.slab();
  dim_lists_.resize(static_cast<size_t>(streams_.remap().num_dims()));
  for (int32_t slot = 0; slot < slab.size(); ++slot) {
    for (const NpvEntry* e = slab.begin(slot); e != slab.end(slot); ++e) {
      dim_lists_[static_cast<size_t>(e->dim)].push_back(
          DimEntry{e->count, slot});
    }
    list_entries_ += slab.nnz(slot);
  }
  for (std::vector<DimEntry>& list : dim_lists_) {
    std::sort(list.begin(), list.end(),
              [](const DimEntry& a, const DimEntry& b) {
                return a.value < b.value;
              });
  }
}

void DominatedSetCoverJoin::AddQuery(int32_t id, const QueryVectors& query,
                                     bool* grew_dims) {
  CheckVectorNnz(query);
  *grew_dims = streams_.GrowDims(query);
  query_.AddQuery(id, query, streams_.remap());
  dim_lists_.resize(static_cast<size_t>(streams_.remap().num_dims()));

  const NpvSlab& slab = query_.slab();
  const std::vector<int32_t>& mine = query_.slots(id);
  for (const int32_t slot : mine) {
    for (const NpvEntry* e = slab.begin(slot); e != slab.end(slot); ++e) {
      std::vector<DimEntry>& list = dim_lists_[static_cast<size_t>(e->dim)];
      auto pos = std::upper_bound(list.begin(), list.end(), e->count,
                                  [](int32_t value, const DimEntry& d) {
                                    return value < d.value;
                                  });
      list.insert(pos, DimEntry{e->count, slot});
    }
    list_entries_ += slab.nnz(slot);
  }

  // Establish the new slots' dominant counters against every live vertex.
  // The per-dimension lists already hold the new entries, but the
  // incremental merge only visits dimensions whose value moves, so the new
  // vectors must be seeded explicitly. Live rows widen here when the slab
  // grew a tail slot; a reused slot's column is already zero.
  const size_t slots = static_cast<size_t>(slab.size());
  streams_.ForEachLive([&](int i, Streams::Vertex& vertex) {
    vertex.state.resize(slots, 0);
    for (const int32_t slot : mine) {
      const int32_t satisfied = MergeCount(vertex.entries, slab, slot);
      vertex.state[static_cast<size_t>(slot)] =
          static_cast<uint16_t>(satisfied);
      if (satisfied == slab.nnz(slot)) {
        SetDominates(query_.stream(i), slot, true);
      }
    }
  });
}

void DominatedSetCoverJoin::RemoveQuery(int32_t id) {
  GSPS_CHECK(id >= 0 && id < query_.num_queries());
  const NpvSlab& slab = query_.slab();
  const std::vector<int32_t>& mine = query_.slots(id);
  for (const int32_t slot : mine) {
    // Drop this vector's projected values from the per-dimension lists.
    for (const NpvEntry* e = slab.begin(slot); e != slab.end(slot); ++e) {
      std::vector<DimEntry>& list = dim_lists_[static_cast<size_t>(e->dim)];
      auto it = std::lower_bound(list.begin(), list.end(), e->count,
                                 [](const DimEntry& d, int32_t value) {
                                   return d.value < value;
                                 });
      while (it != list.end() && it->value == e->count && it->slot != slot) {
        ++it;
      }
      GSPS_CHECK(it != list.end() && it->slot == slot);
      list.erase(it);
    }
    list_entries_ -= slab.nnz(slot);
  }
  // Zero the freed columns in every live row (tombstoned rows are zero
  // already), so a later AddQuery reusing the slot starts from zero.
  streams_.ForEachLive([&mine](int, Streams::Vertex& vertex) {
    for (const int32_t slot : mine) vertex.state[static_cast<size_t>(slot)] = 0;
  });
  query_.RemoveQuery(id, streams_.remap());
}

void DominatedSetCoverJoin::SetNumStreams(int num_streams) {
  streams_.SetNumStreams(num_streams);
  query_.SetNumStreams(num_streams);
}

void DominatedSetCoverJoin::UpdateStreamVertex(int stream_index, VertexId v,
                                               const Npv& npv) {
  CoverQuerySide::Stream& cover = query_.stream(stream_index);
  const bool became_nonempty = streams_.Update(
      stream_index, v, npv,
      [&](Streams::Vertex& vertex, const std::vector<NpvEntry>& next,
          NpvSignature) {
        // A fresh or tombstoned vertex's all-zero row widens to the slab.
        if (!vertex.live) vertex.state.resize(query_.slab().size(), 0);
        Repair(cover, vertex, next);
      });
  // Beyond flips, only the stream turning non-empty changes a verdict.
  if (became_nonempty) cover.cache_valid = false;
}

void DominatedSetCoverJoin::RemoveStreamVertex(int stream_index, VertexId v) {
  CoverQuerySide::Stream& cover = query_.stream(stream_index);
  const bool emptied = streams_.Remove(
      stream_index, v,
      [&](Streams::Vertex& vertex) { Repair(cover, vertex, {}); });
  if (emptied) cover.cache_valid = false;
}

void DominatedSetCoverJoin::CandidatesForStream(int stream_index,
                                                std::vector<int>* out) {
  query_.Candidates(stream_index, streams_.live_vertices(stream_index),
                    &tally_, out);
}

int64_t DominatedSetCoverJoin::PlanRange(DimId dim, int32_t from, int32_t to,
                                         int32_t delta) {
  GSPS_DCHECK(from < to);
  GSPS_DCHECK(dim >= 0 && dim < streams_.remap().num_dims());
  const std::vector<DimEntry>& list = dim_lists_[static_cast<size_t>(dim)];
  auto value_less = [](int32_t value, const DimEntry& e) {
    return value < e.value;
  };
  // Query entries with value in (from, to]: the ones whose domination
  // status by this stream vertex flips when its value moves from..to.
  auto begin =
      from == 0 ? list.begin()
                : std::upper_bound(list.begin(), list.end(), from, value_less);
  auto end = std::upper_bound(begin, list.end(), to, value_less);
  plan_.push_back(PlannedRange{list.data() + (begin - list.begin()),
                               list.data() + (end - list.begin()), delta});
  return end - begin;
}

void DominatedSetCoverJoin::Repair(CoverQuerySide::Stream& cover,
                                   Streams::Vertex& vertex,
                                   std::span<const NpvEntry> next) {
  // Plan: the paper's incremental position update (Fig. 8 maintenance).
  // Only dimensions whose value moved contribute, and within a dimension
  // only the query entries between the old and new position.
  plan_.clear();
  int64_t visits = 0;
  auto old_it = vertex.entries.begin();
  const auto old_end = vertex.entries.end();
  auto new_it = next.begin();
  const auto new_end = next.end();
  while (old_it != old_end || new_it != new_end) {
    if (new_it == new_end || (old_it != old_end && old_it->dim < new_it->dim)) {
      ++tally_.set_cover_toggles;  // Vanished.
      visits += PlanRange(old_it->dim, 0, old_it->count, -1);
      ++old_it;
    } else if (old_it == old_end || new_it->dim < old_it->dim) {
      ++tally_.set_cover_toggles;  // Appeared.
      visits += PlanRange(new_it->dim, 0, new_it->count, +1);
      ++new_it;
    } else {
      if (old_it->count < new_it->count) {
        visits += PlanRange(old_it->dim, old_it->count, new_it->count, +1);
      } else if (new_it->count < old_it->count) {
        visits += PlanRange(old_it->dim, new_it->count, old_it->count, -1);
      }
      ++old_it;
      ++new_it;
    }
  }

  const NpvSlab& slab = query_.slab();
  uint16_t* const row = vertex.state.data();
  if (vertex.entries.empty() && visits > list_entries_ / kDominanceLanes) {
    // Every counter is zero (fresh vertex, or all prior contributions
    // retracted) and the walk would cost more than one count-mode kernel
    // sweep, which yields the whole row at once: SatisfiedCount(k) is
    // exactly the counter the walk would accumulate from zero (and 0 for a
    // freed slot).
    const DominanceBatch& batch = query_.SatisfiedCounts(
        next.data(), next.data() + next.size(), &tally_.kernel);
    for (int32_t k = 0; k < slab.size(); ++k) {
      const int32_t satisfied = batch.SatisfiedCount(k);
      row[k] = static_cast<uint16_t>(satisfied);
      if (satisfied != 0 && satisfied == slab.nnz(k)) {
        SetDominates(cover, k, true);
      }
    }
  } else {
    // Apply. The walk visits slots in list (value) order, scattered over the
    // row where the hardware prefetcher cannot follow. A walk that visits at
    // least as many entries as the row has cache lines fetches the whole
    // row up front; a shorter one touches too few lines to pay for it.
    const uintptr_t row_begin = reinterpret_cast<uintptr_t>(row);
    const uintptr_t row_end =
        row_begin + vertex.state.size() * sizeof(uint16_t);
    constexpr uintptr_t kLine = 64;
    if (visits >= static_cast<int64_t>((row_end - row_begin + kLine - 1) /
                                       kLine)) {
      for (uintptr_t line = row_begin & ~(kLine - 1); line < row_end;
           line += kLine) {
        __builtin_prefetch(reinterpret_cast<const void*>(line), 1);
      }
    }
    tally_.set_cover_rounds += static_cast<int64_t>(plan_.size());
    for (const PlannedRange& range : plan_) {
      if (range.delta > 0) {
        for (const DimEntry* it = range.begin; it != range.end; ++it) {
          if (++row[it->slot] == slab.nnz(it->slot)) {
            SetDominates(cover, it->slot, true);
          }
        }
      } else {
        for (const DimEntry* it = range.begin; it != range.end; ++it) {
          GSPS_DCHECK(row[it->slot] > 0);
          if (row[it->slot]-- == slab.nnz(it->slot)) {
            SetDominates(cover, it->slot, false);
          }
        }
      }
    }
  }
}

void DominatedSetCoverJoin::CheckChurnInvariants() const {
  query_.CheckQueryInvariants();
  const NpvSlab& slab = query_.slab();
  const int32_t slots = slab.size();
  int64_t expected_dim_entries = 0;
  for (int32_t k = 0; k < slots; ++k) {
    if (slab.live(k)) expected_dim_entries += slab.nnz(k);
  }
  int64_t dim_entries = 0;
  for (const std::vector<DimEntry>& list : dim_lists_) {
    for (size_t i = 0; i < list.size(); ++i) {
      GSPS_CHECK(slab.live(list[i].slot));
      if (i + 1 < list.size()) GSPS_CHECK(list[i].value <= list[i + 1].value);
    }
    dim_entries += static_cast<int64_t>(list.size());
  }
  GSPS_CHECK(dim_entries == expected_dim_entries);
  GSPS_CHECK(dim_entries == list_entries_);
  // Recount every live row from its entries, then the covers from the rows.
  // A tombstoned row is all zero, at most as wide as the slab.
  streams_.CheckInvariants();
  std::vector<int32_t> counts;
  for (int i = 0; i < query_.num_streams(); ++i) {
    counts.assign(static_cast<size_t>(slots), 0);
    for (const Streams::Vertex& vertex : streams_.vertices(i)) {
      const std::vector<uint16_t>& row = vertex.state;
      if (!vertex.live) {
        GSPS_CHECK(static_cast<int32_t>(row.size()) <= slots);
        GSPS_CHECK(std::all_of(row.begin(), row.end(),
                               [](uint16_t counter) { return counter == 0; }));
        continue;
      }
      GSPS_CHECK(static_cast<int32_t>(row.size()) == slots);
      for (int32_t k = 0; k < slots; ++k) {
        const int32_t counter = row[static_cast<size_t>(k)];
        GSPS_CHECK_MSG(counter == MergeCount(vertex.entries, slab, k),
                       "DSC dominant counter disagrees with its entries");
        if (slab.live(k) && counter == slab.nnz(k)) {
          ++counts[static_cast<size_t>(k)];
        }
      }
    }
    query_.CheckCover(i, counts);
  }
}

}  // namespace gsps
