#include "gsps/join/dominated_set_cover_join.h"

#include <algorithm>
#include <utility>

#include "gsps/common/check.h"
#include "gsps/obs/obs.h"

namespace gsps {
namespace {

// Number of slab slot `k`'s entries that `hay` (sorted by dense dim)
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

}  // namespace

void DominatedSetCoverJoin::SetQueries(std::vector<QueryVectors> queries) {
  GSPS_CHECK(num_queries_ == 0 && qvec_query_.empty());
  num_queries_ = static_cast<int32_t>(queries.size());
  for (const QueryVectors& query : queries) {
    for (const Npv& vector : query.vectors) remap_.AddDims(vector);
  }
  remap_.Seal();
  dim_lists_.resize(static_cast<size_t>(remap_.num_dims()));
  std::vector<NpvEntry> translated;
  query_qvecs_.resize(queries.size());
  for (size_t j = 0; j < queries.size(); ++j) {
    int32_t trivial = 0;
    for (const Npv& vector : queries[j].vectors) {
      if (vector.nnz() == 0) {
        ++trivial;
        continue;
      }
      // Query dims are all registered, so translation is lossless.
      remap_.Translate(vector, &translated);
      const int32_t slot = qvecs_.Append(translated);
      qvec_query_.push_back(static_cast<int32_t>(j));
      query_qvecs_[j].push_back(slot);
      for (const NpvEntry& entry : translated) {
        dim_lists_[static_cast<size_t>(entry.dim)].push_back(
            DimEntry{entry.count, slot});
      }
    }
    query_trivial_vectors_.push_back(trivial);
  }
  query_live_.assign(queries.size(), 1);
  for (std::vector<DimEntry>& list : dim_lists_) {
    std::sort(list.begin(), list.end(),
              [](const DimEntry& a, const DimEntry& b) {
                return a.value < b.value;
              });
  }
  batch_.Bind(qvecs_, remap_.num_dims());
  attr_.Reset(num_queries_);
  for (int32_t j = 0; j < num_queries_; ++j) {
    attr_.OnAddQuery(j, static_cast<int64_t>(
                            query_qvecs_[static_cast<size_t>(j)].size()));
  }
}

int32_t DominatedSetCoverJoin::AllocQuerySlot() {
  if (!free_queries_.empty()) {
    const int32_t j = free_queries_.back();
    free_queries_.pop_back();
    query_live_[static_cast<size_t>(j)] = 1;
    return j;
  }
  const int32_t j = num_queries_++;
  query_qvecs_.emplace_back();
  query_trivial_vectors_.push_back(0);
  query_live_.push_back(1);
  for (StreamState& stream : streams_) {
    stream.covered_vectors.push_back(0);
  }
  return j;
}

int32_t DominatedSetCoverJoin::AddQuery(const QueryVectors& query,
                                        bool* grew_dims) {
  *grew_dims = false;
  for (const Npv& vector : query.vectors) {
    if (!remap_.GrowDims(vector, &remap_scratch_)) continue;
    *grew_dims = true;
    GSPS_OBS_COUNT(Counter::kRemapRegrowths, 1);
    qvecs_.RemapDims(remap_scratch_);
    // Move the per-dimension lists to their new dense indices, highest
    // first (old_to_new is strictly increasing, so targets are processed
    // before sources overwrite them). A prefix that maps to itself is
    // untouched.
    const int32_t old_dims = static_cast<int32_t>(remap_scratch_.size());
    dim_lists_.resize(static_cast<size_t>(remap_.num_dims()));
    for (int32_t d = old_dims - 1; d >= 0; --d) {
      const DimId nd = remap_scratch_[static_cast<size_t>(d)];
      if (nd == d) break;  // Increasing map: the whole prefix is fixed.
      dim_lists_[static_cast<size_t>(nd)] =
          std::move(dim_lists_[static_cast<size_t>(d)]);
      dim_lists_[static_cast<size_t>(d)].clear();
    }
    // Stream-side dense entries move with the same map so the incremental
    // merge keeps retracting against the right lists. Dimensions the old
    // translation dropped are re-introduced by the caller's replay.
    for (StreamState& stream : streams_) {
      for (auto& [v, vertex] : stream.vertices) {
        for (NpvEntry& entry : vertex.entries) {
          entry.dim = remap_scratch_[static_cast<size_t>(entry.dim)];
        }
      }
    }
  }

  const int32_t j = AllocQuerySlot();
  int32_t trivial = 0;
  std::vector<int32_t>& mine = query_qvecs_[static_cast<size_t>(j)];
  for (const Npv& vector : query.vectors) {
    if (vector.nnz() == 0) {
      ++trivial;
      continue;
    }
    remap_.Translate(vector, &translate_scratch_);
    const int32_t slot = qvecs_.Append(translate_scratch_);
    if (slot == static_cast<int32_t>(qvec_query_.size())) {
      qvec_query_.push_back(j);
    } else {
      qvec_query_[static_cast<size_t>(slot)] = j;
    }
    mine.push_back(slot);
    for (const NpvEntry& entry : translate_scratch_) {
      std::vector<DimEntry>& list = dim_lists_[static_cast<size_t>(entry.dim)];
      auto pos = std::upper_bound(list.begin(), list.end(), entry.count,
                                  [](int32_t value, const DimEntry& e) {
                                    return value < e.value;
                                  });
      list.insert(pos, DimEntry{entry.count, slot});
    }
  }
  query_trivial_vectors_[static_cast<size_t>(j)] = trivial;
  if (*grew_dims) {
    // RemapDims rewrote every live slot: the whole kernel mirror is stale.
    batch_.Bind(qvecs_, remap_.num_dims());
  } else {
    for (const int32_t slot : mine) {
      batch_.RefreshSlot(qvecs_, remap_.num_dims(), slot);
    }
  }

  // Establish the new slots' dominant counters against every live vertex.
  // The per-dimension lists already hold the new entries, but the
  // incremental merge only visits dimensions whose value moves, so the new
  // vectors must be seeded explicitly. Existing rows widen here, and only
  // here, when the slab grew a tail slot; a reused slot's column is
  // already zero.
  const size_t slots = static_cast<size_t>(qvecs_.size());
  for (StreamState& stream : streams_) {
    stream.cover_count.resize(slots, 0);
    stream.cache_valid = false;
    for (auto& [v, vertex] : stream.vertices) {
      vertex.dominant.resize(slots, 0);
      if (!vertex.live) continue;
      for (const int32_t slot : mine) {
        const int32_t satisfied = MergeCount(vertex.entries, qvecs_, slot);
        vertex.dominant[static_cast<size_t>(slot)] = satisfied;
        if (satisfied == qvecs_.nnz(slot)) SetDominates(stream, slot, true);
      }
    }
  }
  attr_.OnAddQuery(j, static_cast<int64_t>(mine.size()));
  return j;
}

void DominatedSetCoverJoin::RemoveQuery(int32_t local_id) {
  GSPS_CHECK(local_id >= 0 && local_id < num_queries_);
  GSPS_CHECK_MSG(query_live_[static_cast<size_t>(local_id)] != 0,
                 "DominatedSetCoverJoin::RemoveQuery on a retired query");
  std::vector<int32_t>& mine = query_qvecs_[static_cast<size_t>(local_id)];
  for (const int32_t slot : mine) {
    // Drop this vector's projected values from the per-dimension lists.
    for (const NpvEntry* e = qvecs_.begin(slot); e != qvecs_.end(slot); ++e) {
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
    qvecs_.Remove(slot);
    batch_.RefreshSlot(qvecs_, remap_.num_dims(), slot);
  }
  // Zero the freed columns in every row (tombstoned rows are zero already),
  // so a later AddQuery reusing the slot starts from clean counters.
  for (StreamState& stream : streams_) {
    for (const int32_t slot : mine) {
      stream.cover_count[static_cast<size_t>(slot)] = 0;
    }
    for (auto& [v, vertex] : stream.vertices) {
      for (const int32_t slot : mine) {
        vertex.dominant[static_cast<size_t>(slot)] = 0;
      }
    }
    stream.covered_vectors[static_cast<size_t>(local_id)] = 0;
    stream.cache_valid = false;
  }
  mine.clear();
  query_trivial_vectors_[static_cast<size_t>(local_id)] = 0;
  query_live_[static_cast<size_t>(local_id)] = 0;
  free_queries_.push_back(local_id);
  attr_.OnRemoveQuery(local_id);
}

void DominatedSetCoverJoin::SetNumStreams(int num_streams) {
  GSPS_CHECK(streams_.empty());
  streams_.resize(static_cast<size_t>(num_streams));
  for (StreamState& stream : streams_) {
    stream.cover_count.assign(static_cast<size_t>(qvecs_.size()), 0);
    stream.covered_vectors.assign(static_cast<size_t>(num_queries_), 0);
  }
}

void DominatedSetCoverJoin::UpdateStreamVertex(int stream_index, VertexId v,
                                               const Npv& npv) {
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  StreamVertexState& vertex = stream.vertices[v];
  if (!vertex.live) {
    vertex.live = true;
    // A fresh vertex gets its row here; a tombstoned one kept its all-zero
    // row at full width.
    vertex.dominant.resize(static_cast<size_t>(qvecs_.size()), 0);
    if (++stream.live_vertices == 1) stream.cache_valid = false;
  }
  remap_.Translate(npv, &translate_scratch_);
  if (vertex.entries.empty() && !translate_scratch_.empty() &&
      qvecs_.size() > 0) {
    // Bulk insert: every dominant counter of this vertex is zero (fresh
    // vertex, or all prior contributions retracted), so one count-mode
    // kernel sweep produces the whole row — SatisfiedCount(k) is exactly
    // the counter the per-dimension AdjustRange walks would have
    // accumulated from zero (and 0 for a freed slot).
    batch_.ComputeCounts(
        translate_scratch_.data(),
        translate_scratch_.data() + translate_scratch_.size(),
        &pending_kernel_);
    int32_t* const row = vertex.dominant.data();
    for (int32_t k = 0; k < qvecs_.size(); ++k) {
      const int32_t satisfied = batch_.SatisfiedCount(k);
      row[k] = satisfied;
      if (satisfied != 0 && satisfied == qvecs_.nnz(k)) {
        SetDominates(stream, k, true);
      }
    }
    vertex.entries.assign(translate_scratch_.begin(),
                          translate_scratch_.end());
    return;
  }
  // Incremental position update (the paper's Fig. 8 maintenance): only the
  // dimensions whose value moved contribute counter adjustments, and within
  // a dimension only the query entries between the old and new position.
  auto old_it = vertex.entries.begin();
  const auto old_end = vertex.entries.end();
  auto new_it = translate_scratch_.begin();
  const auto new_end = translate_scratch_.end();
  while (old_it != old_end || new_it != new_end) {
    if (new_it == new_end || (old_it != old_end && old_it->dim < new_it->dim)) {
      AdjustRange(stream, vertex, old_it->dim, 0, old_it->count, -1);
      ++old_it;
    } else if (old_it == old_end || new_it->dim < old_it->dim) {
      AdjustRange(stream, vertex, new_it->dim, 0, new_it->count, +1);
      ++new_it;
    } else {
      if (old_it->count < new_it->count) {
        AdjustRange(stream, vertex, old_it->dim, old_it->count,
                    new_it->count, +1);
      } else if (new_it->count < old_it->count) {
        AdjustRange(stream, vertex, old_it->dim, new_it->count,
                    old_it->count, -1);
      }
      ++old_it;
      ++new_it;
    }
  }
  vertex.entries.assign(translate_scratch_.begin(), translate_scratch_.end());
}

void DominatedSetCoverJoin::RemoveStreamVertex(int stream_index, VertexId v) {
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  auto it = stream.vertices.find(v);
  if (it == stream.vertices.end() || !it->second.live) return;
  Apply(stream, it->second, -1);
  it->second.live = false;
  it->second.entries.clear();
  if (--stream.live_vertices == 0) stream.cache_valid = false;
}

void DominatedSetCoverJoin::CandidatesForStream(int stream_index,
                                                std::vector<int>* out) {
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  if (stream.cache_valid) {
    GSPS_OBS_COUNT(Counter::kJoinVerdictsReused, 1);
  } else {
    // Timed manually (not via StageTimer) because the elapsed micros also
    // feed the per-query attribution split; decimated because a refresh is
    // sub-microsecond (see JoinRefreshSampleTick).
    const bool timed = obs::kEnabled &&
                       (obs::CurrentSink() != nullptr ||
                        obs::FlightRecorderArmed()) &&
                       obs::JoinRefreshSampleTick();
    const int64_t refresh_start = timed ? obs::MonotonicMicros() : 0;
    stream.cache.clear();
    const bool stream_nonempty = stream.live_vertices > 0;
    for (int32_t j = 0; j < num_queries_; ++j) {
      if (query_live_[static_cast<size_t>(j)] == 0) continue;
      if (stream.covered_vectors[static_cast<size_t>(j)] !=
          static_cast<int32_t>(query_qvecs_[static_cast<size_t>(j)].size())) {
        continue;
      }
      if (query_trivial_vectors_[static_cast<size_t>(j)] > 0 &&
          !stream_nonempty) {
        continue;
      }
      stream.cache.push_back(static_cast<int>(j));
    }
    stream.cache_valid = true;
    if (timed) {
      const int64_t micros = obs::MonotonicMicros() - refresh_start;
      obs::StageSample(obs::Stage::kJoinRefresh, micros, stream_index);
      attr_.AddRefresh(micros);
    }
  }
  out->assign(stream.cache.begin(), stream.cache.end());
  attr_.AddProbes(pending_kernel_.tests + pending_rounds_);
  GSPS_OBS_COUNT(Counter::kJoinPairsIn, static_cast<int64_t>(num_queries_));
  GSPS_OBS_COUNT(Counter::kJoinPairsOut, static_cast<int64_t>(out->size()));
  GSPS_OBS_COUNT(Counter::kJoinSetCoverRounds, pending_rounds_);
  GSPS_OBS_COUNT(Counter::kJoinSetCoverFlips, pending_flips_);
  GSPS_OBS_COUNT(Counter::kJoinDominanceTests, pending_kernel_.tests);
  if constexpr (obs::kEnabled) {
    if (obs::MetricSink* sink = obs::CurrentSink(); sink != nullptr) {
      sink->Add(batch_.batch_counter(), pending_kernel_.batches);
    }
  }
  pending_rounds_ = 0;
  pending_flips_ = 0;
  pending_kernel_ = DominanceKernelStats{};
}

void DominatedSetCoverJoin::Apply(StreamState& stream,
                                  StreamVertexState& vertex, int delta) {
  for (const NpvEntry& entry : vertex.entries) {
    AdjustRange(stream, vertex, entry.dim, 0, entry.count, delta);
  }
}

void DominatedSetCoverJoin::AdjustRange(StreamState& stream,
                                        StreamVertexState& vertex, DimId dim,
                                        int32_t from, int32_t to, int delta) {
  GSPS_DCHECK(from < to);
  GSPS_DCHECK(dim >= 0 && dim < remap_.num_dims());
  ++pending_rounds_;
  const std::vector<DimEntry>& list = dim_lists_[static_cast<size_t>(dim)];
  auto value_less = [](int32_t value, const DimEntry& e) {
    return value < e.value;
  };
  // Query entries with value in (from, to]: the ones whose domination
  // status by this stream vertex flips when its value moves from..to.
  auto begin =
      from == 0 ? list.begin()
                : std::upper_bound(list.begin(), list.end(), from, value_less);
  auto end = std::upper_bound(list.begin(), list.end(), to, value_less);
  int32_t* const row = vertex.dominant.data();
  for (auto it = begin; it != end; ++it) {
    const int32_t before = row[it->slot];
    const int32_t after = before + delta;
    row[it->slot] = after;
    GSPS_DCHECK(after >= 0);
    const int32_t needed = qvecs_.nnz(it->slot);
    if (after == needed) {
      SetDominates(stream, it->slot, true);
    } else if (before == needed) {
      SetDominates(stream, it->slot, false);
    }
  }
}

void DominatedSetCoverJoin::CheckChurnInvariants() const {
  qvecs_.CheckKernelLayout();
  const int32_t slots = qvecs_.size();
  int32_t live_slots = 0;
  int64_t expected_dim_entries = 0;
  for (int32_t j = 0; j < num_queries_; ++j) {
    const auto& mine = query_qvecs_[static_cast<size_t>(j)];
    if (query_live_[static_cast<size_t>(j)] == 0) {
      GSPS_CHECK(mine.empty());
      continue;
    }
    for (const int32_t slot : mine) {
      GSPS_CHECK(qvecs_.live(slot));
      GSPS_CHECK(qvec_query_[static_cast<size_t>(slot)] == j);
      ++live_slots;
      expected_dim_entries += qvecs_.nnz(slot);
    }
  }
  GSPS_CHECK(live_slots == qvecs_.num_live());
  GSPS_CHECK(static_cast<int32_t>(free_queries_.size()) ==
             std::count(query_live_.begin(), query_live_.end(), 0));
  int64_t dim_entries = 0;
  for (const std::vector<DimEntry>& list : dim_lists_) {
    for (size_t i = 0; i < list.size(); ++i) {
      GSPS_CHECK(qvecs_.live(list[i].slot));
      if (i + 1 < list.size()) GSPS_CHECK(list[i].value <= list[i + 1].value);
    }
    dim_entries += static_cast<int64_t>(list.size());
  }
  GSPS_CHECK(dim_entries == expected_dim_entries);
  // Recount every row from its vertex's entries, then the covers from the
  // rows.
  std::vector<int32_t> counts;
  std::vector<int32_t> covered;
  for (const StreamState& stream : streams_) {
    GSPS_CHECK(static_cast<int32_t>(stream.cover_count.size()) == slots);
    counts.assign(static_cast<size_t>(slots), 0);
    covered.assign(static_cast<size_t>(num_queries_), 0);
    int32_t live_vertices = 0;
    for (const auto& [v, vertex] : stream.vertices) {
      const std::vector<int32_t>& row = vertex.dominant;
      GSPS_CHECK(static_cast<int32_t>(row.size()) == slots);
      if (!vertex.live) {
        GSPS_CHECK(vertex.entries.empty());
        GSPS_CHECK(std::all_of(row.begin(), row.end(),
                               [](int32_t counter) { return counter == 0; }));
        continue;
      }
      ++live_vertices;
      for (int32_t k = 0; k < slots; ++k) {
        const int32_t counter = row[static_cast<size_t>(k)];
        GSPS_CHECK_MSG(counter == MergeCount(vertex.entries, qvecs_, k),
                       "DSC dominant counter disagrees with its entries");
        if (qvecs_.live(k) && counter == qvecs_.nnz(k)) {
          ++counts[static_cast<size_t>(k)];
        }
      }
    }
    GSPS_CHECK(live_vertices == stream.live_vertices);
    for (int32_t k = 0; k < slots; ++k) {
      GSPS_CHECK(counts[static_cast<size_t>(k)] ==
                 stream.cover_count[static_cast<size_t>(k)]);
      if (counts[static_cast<size_t>(k)] > 0) {
        ++covered[static_cast<size_t>(qvec_query_[static_cast<size_t>(k)])];
      }
    }
    for (int32_t j = 0; j < num_queries_; ++j) {
      GSPS_CHECK(covered[static_cast<size_t>(j)] ==
                 stream.covered_vectors[static_cast<size_t>(j)]);
    }
  }
}

void DominatedSetCoverJoin::SetDominates(StreamState& stream, int32_t slot,
                                         bool now_dominates) {
  ++pending_flips_;
  stream.cache_valid = false;
  int32_t& cover = stream.cover_count[static_cast<size_t>(slot)];
  const int32_t query = qvec_query_[static_cast<size_t>(slot)];
  if (now_dominates) {
    if (cover++ == 0) {
      ++stream.covered_vectors[static_cast<size_t>(query)];
    }
  } else {
    if (--cover == 0) {
      --stream.covered_vectors[static_cast<size_t>(query)];
    }
    GSPS_DCHECK(cover >= 0);
  }
}

}  // namespace gsps
