#include "gsps/join/skyline_earlystop_join.h"

#include <algorithm>
#include <utility>

#include "gsps/common/check.h"
#include "gsps/join/dominance_kernel.h"
#include "gsps/obs/obs.h"

namespace gsps {

void SkylineEarlyStopJoin::SetQueries(std::vector<QueryVectors> queries) {
  GSPS_CHECK(plans_.empty());
  for (const QueryVectors& query : queries) {
    for (const Npv& vector : query.vectors) remap_.AddDims(vector);
  }
  remap_.Seal();
  plans_.resize(queries.size());
  DominanceKernelStats build_kernel_stats;
  for (size_t j = 0; j < queries.size(); ++j) {
    BuildPlan(static_cast<int32_t>(j), queries[j].vectors,
              &build_kernel_stats);
  }
  // Flushed here rather than deferred: setup-time kernel activity stays out
  // of the per-refresh accumulators, preserving the steady-state
  // per-refresh counter semantics.
  GSPS_OBS_COUNT(Counter::kJoinDominanceTests, build_kernel_stats.tests);
  GSPS_OBS_COUNT(Counter::kJoinSignatureRejects, build_kernel_stats.sig_rejects);
  if constexpr (obs::kEnabled) {
    if (obs::MetricSink* sink = obs::CurrentSink(); sink != nullptr) {
      sink->Add(DominanceBatchCounter(ActiveDominanceIsa()),
                build_kernel_stats.batches);
    }
  }
}

void SkylineEarlyStopJoin::BuildPlan(int32_t j,
                                     const std::vector<Npv>& vectors,
                                     DominanceKernelStats* build_stats) {
  QueryPlan& plan = plans_[static_cast<size_t>(j)];
  plan.points.clear();
  plan.union_sig = 0;
  plan.empty_query = vectors.empty();
  plan.has_trivial_vector = false;
  plan.live = true;
  // Deduplicate equal vectors: coverage of one implies the other.
  scratch_distinct_.clear();
  for (size_t i = 0; i < vectors.size(); ++i) {
    if (vectors[i].nnz() == 0) {
      plan.has_trivial_vector = true;
      continue;
    }
    bool seen = false;
    for (const int32_t d : scratch_distinct_) {
      if (vectors[static_cast<size_t>(d)] == vectors[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) scratch_distinct_.push_back(static_cast<int32_t>(i));
  }
  // Monochromatic skyline: keep vectors not dominated by a distinct other.
  // Count how many vectors each skyline point dominates for ordering. The
  // batched kernel produces one dominated-row bitset per vector; vector i
  // is maximal iff no other row has bit i set (colset sweep), and its
  // dominated count is its row's popcount minus the self bit. Distinct
  // vectors never mutually dominate, so this matches the pairwise scan.
  scratch_order_.clear();  // (-dominated_count, idx)
  const size_t num_distinct = scratch_distinct_.size();
  if (num_distinct > 0) {
    scratch_slab_.Clear();
    for (const int32_t d : scratch_distinct_) {
      remap_.Translate(vectors[static_cast<size_t>(d)], &translate_scratch_);
      scratch_slab_.Append(translate_scratch_);
    }
    scratch_batch_.Bind(scratch_slab_, remap_.num_dims());
    const size_t words = (num_distinct + 63) / 64;
    scratch_row_.assign(words, 0);
    scratch_colset_.assign(words, 0);
    scratch_dom_count_.assign(num_distinct, 0);
    for (size_t i = 0; i < num_distinct; ++i) {
      const int32_t k = static_cast<int32_t>(i);
      scratch_batch_.ComputeMask(scratch_slab_.begin(k), scratch_slab_.end(k),
                                 scratch_slab_.signature(k), build_stats);
      int64_t dominated = 0;
      for (size_t w = 0; w < words; ++w) {
        scratch_row_[w] = scratch_batch_.mask_words()[w];
        dominated += __builtin_popcountll(scratch_row_[w]);
      }
      scratch_dom_count_[i] = static_cast<int32_t>(dominated - 1);  // Self.
      scratch_row_[i / 64] &= ~(uint64_t{1} << (i % 64));
      for (size_t w = 0; w < words; ++w) scratch_colset_[w] |= scratch_row_[w];
    }
    for (size_t i = 0; i < num_distinct; ++i) {
      const bool maximal = ((scratch_colset_[i / 64] >> (i % 64)) & 1u) == 0;
      if (maximal) {
        scratch_order_.emplace_back(-scratch_dom_count_[i],
                                    scratch_distinct_[i]);
      }
    }
  }
  std::sort(scratch_order_.begin(), scratch_order_.end());
  for (const auto& [neg_count, index] : scratch_order_) {
    (void)neg_count;
    // Query dims are all registered, so translation is lossless.
    remap_.Translate(vectors[static_cast<size_t>(index)], &translate_scratch_);
    const int32_t point = points_.Append(translate_scratch_);
    plan.points.push_back(point);
    plan.union_sig |= points_.signature(point);
  }
}

void SkylineEarlyStopJoin::AddQuery(int32_t id, const QueryVectors& query,
                                    bool* grew_dims) {
  const int32_t n = static_cast<int32_t>(plans_.size());
  GSPS_CHECK_MSG(id >= 0 && id <= n &&
                     (id == n || !plans_[static_cast<size_t>(id)].live),
                 "AddQuery: the id must be retired or the next unused one");
  *grew_dims = false;
  for (const Npv& vector : query.vectors) {
    if (!remap_.GrowDims(vector, &remap_scratch_)) continue;
    *grew_dims = true;
    GSPS_OBS_COUNT(Counter::kRemapRegrowths, 1);
    points_.RemapDims(remap_scratch_);
    for (QueryPlan& plan : plans_) {
      if (!plan.live) continue;
      plan.union_sig = 0;
      for (const int32_t point : plan.points) {
        plan.union_sig |= points_.signature(point);
      }
    }
    const int32_t old_dims = static_cast<int32_t>(remap_scratch_.size());
    for (StreamState& stream : streams_) {
      // Move the per-dimension buckets to their new dense indices, highest
      // first (the map is strictly increasing; a self-mapped prefix stays).
      stream.buckets.resize(static_cast<size_t>(remap_.num_dims()));
      for (int32_t d = old_dims - 1; d >= 0; --d) {
        const DimId nd = remap_scratch_[static_cast<size_t>(d)];
        if (nd == d) break;
        stream.buckets[static_cast<size_t>(nd)] =
            std::move(stream.buckets[static_cast<size_t>(d)]);
        stream.buckets[static_cast<size_t>(d)] = DimBucket{};
      }
      for (auto& [v, vertex] : stream.vertices) {
        for (NpvEntry& entry : vertex.entries) {
          entry.dim = remap_scratch_[static_cast<size_t>(entry.dim)];
        }
        vertex.sig = SignatureOf(
            vertex.entries.data(),
            vertex.entries.data() + vertex.entries.size());
      }
      // Dense signatures were renumbered, so the bounded changed-signature
      // filter can no longer be trusted: force full reevaluation.
      stream.changed_overflow = true;
      stream.combined_changed = ~NpvSignature{0};
      stream.cache_valid = false;
    }
  }

  if (id == n) {
    plans_.emplace_back();
    for (StreamState& stream : streams_) {
      stream.verdicts.emplace_back();
    }
  }
  DominanceKernelStats build_stats;
  BuildPlan(id, query.vectors, &build_stats);
  pending_tests_ += build_stats.tests;
  pending_rejects_ += build_stats.sig_rejects;
  const QueryPlan& plan = plans_[static_cast<size_t>(id)];
  // Eager verdict: the cached-verdict invariant ("state as of the last
  // refresh") only holds for plans that existed at that refresh, so the new
  // plan's coverage is scanned now against the current stream state.
  for (StreamState& stream : streams_) {
    Verdict& verdict = stream.verdicts[static_cast<size_t>(id)];
    verdict.covered = true;
    verdict.witness = static_cast<int32_t>(plan.points.size());
    for (size_t i = 0; i < plan.points.size(); ++i) {
      if (!Covered(stream, plan.points[i])) {
        verdict.covered = false;
        verdict.witness = static_cast<int32_t>(i);
        break;
      }
    }
    stream.cache_valid = false;
  }
}

void SkylineEarlyStopJoin::RemoveQuery(int32_t id) {
  GSPS_CHECK(id >= 0 && id < static_cast<int32_t>(plans_.size()));
  QueryPlan& plan = plans_[static_cast<size_t>(id)];
  GSPS_CHECK_MSG(plan.live,
                 "SkylineEarlyStopJoin::RemoveQuery on a retired query");
  for (const int32_t point : plan.points) points_.Remove(point);
  plan.points.clear();
  plan.union_sig = 0;
  plan.has_trivial_vector = false;
  plan.empty_query = false;
  plan.live = false;
  for (StreamState& stream : streams_) {
    stream.verdicts[static_cast<size_t>(id)] = Verdict{};
    stream.cache_valid = false;
  }
}

void SkylineEarlyStopJoin::CheckChurnInvariants() const {
  points_.CheckKernelLayout();
  int32_t live_points = 0;
  for (const QueryPlan& plan : plans_) {
    if (!plan.live) {
      GSPS_CHECK(plan.points.empty());
      continue;
    }
    NpvSignature union_sig = 0;
    for (const int32_t point : plan.points) {
      GSPS_CHECK(points_.live(point));
      GSPS_CHECK(points_.nnz(point) > 0);
      union_sig |= points_.signature(point);
      ++live_points;
    }
    GSPS_CHECK(union_sig == plan.union_sig);
  }
  GSPS_CHECK(live_points == points_.num_live());
  for (const StreamState& stream : streams_) {
    GSPS_CHECK(stream.verdicts.size() == plans_.size());
    int32_t live_vertices = 0;
    for (const auto& [v, vertex] : stream.vertices) {
      if (!vertex.live) continue;
      ++live_vertices;
      for (const NpvEntry& entry : vertex.entries) {
        const DimBucket& bucket =
            stream.buckets[static_cast<size_t>(entry.dim)];
        const auto it = bucket.values.find(v);
        GSPS_CHECK(it != bucket.values.end() && it->second == entry.count);
      }
    }
    GSPS_CHECK(live_vertices == stream.live_vertices);
    for (const DimBucket& bucket : stream.buckets) {
      int32_t live_count = 0;
      int32_t max_value = 0;
      for (const auto& [v, value] : bucket.values) {
        if (value == 0) continue;
        ++live_count;
        max_value = std::max(max_value, value);
      }
      GSPS_CHECK(live_count == bucket.live_count);
      GSPS_CHECK(max_value == bucket.max_value);
    }
  }
}

void SkylineEarlyStopJoin::SetNumStreams(int num_streams) {
  GSPS_CHECK(streams_.empty());
  streams_.resize(static_cast<size_t>(num_streams));
  for (StreamState& stream : streams_) {
    stream.buckets.resize(static_cast<size_t>(remap_.num_dims()));
    stream.verdicts.reserve(plans_.size());
    for (const QueryPlan& plan : plans_) {
      // The empty stream covers nothing, so a plan with points starts with
      // its first point as the witness; a point-less plan starts covered.
      stream.verdicts.push_back(Verdict{plan.points.empty(), 0});
    }
  }
}

void SkylineEarlyStopJoin::UpdateStreamVertex(int stream_index, VertexId v,
                                              const Npv& npv) {
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  VertexState& vertex = stream.vertices[v];
  if (vertex.live) {
    DeindexVertex(stream, v, vertex.entries);
  } else {
    vertex.live = true;
    ++stream.live_vertices;
  }
  const NpvSignature new_sig = remap_.Translate(npv, &translate_scratch_);
  PushChanged(stream, vertex.sig | new_sig);
  vertex.sig = new_sig;
  vertex.entries.assign(translate_scratch_.begin(), translate_scratch_.end());
  IndexVertex(stream, v, vertex.entries);
  stream.cache_valid = false;
}

void SkylineEarlyStopJoin::RemoveStreamVertex(int stream_index, VertexId v) {
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  auto it = stream.vertices.find(v);
  if (it == stream.vertices.end() || !it->second.live) return;
  VertexState& vertex = it->second;
  DeindexVertex(stream, v, vertex.entries);
  PushChanged(stream, vertex.sig);
  vertex.live = false;
  vertex.sig = 0;
  vertex.entries.clear();
  --stream.live_vertices;
  stream.cache_valid = false;
}

void SkylineEarlyStopJoin::CandidatesForStream(int stream_index,
                                               std::vector<int>* out) {
  StreamState& stream = streams_[static_cast<size_t>(stream_index)];
  if (stream.cache_valid) {
    GSPS_OBS_COUNT(Counter::kJoinVerdictsReused, 1);
  } else {
    GSPS_OBS_JOIN_REFRESH(stream_index);
    stream.cache.clear();
    const bool stream_nonempty = stream.live_vertices > 0;
    int64_t early_stops = 0;
    for (size_t j = 0; j < plans_.size(); ++j) {
      const QueryPlan& plan = plans_[j];
      if (!plan.live) continue;
      if (plan.empty_query) {
        stream.cache.push_back(static_cast<int>(j));
        continue;
      }
      Verdict& verdict = stream.verdicts[j];
      // Verdicts advance even for queries the trivial-vector check rejects
      // below: the changed-signature list is cleared after this loop, so a
      // stale verdict could never be repaired later.
      if (!plan.points.empty() &&
          (plan.union_sig & stream.combined_changed) != 0) {
        Reevaluate(stream, plan, &verdict);
      }
      if (!verdict.covered) {
        ++early_stops;  // Pruned at the witness point.
        continue;
      }
      if (plan.has_trivial_vector && !stream_nonempty) continue;
      stream.cache.push_back(static_cast<int>(j));
    }
    stream.num_changed = 0;
    stream.changed_overflow = false;
    stream.combined_changed = 0;
    stream.cache_valid = true;
    GSPS_OBS_COUNT(Counter::kJoinSkylineEarlyStops, early_stops);
  }
  out->assign(stream.cache.begin(), stream.cache.end());
  GSPS_OBS_COUNT(Counter::kJoinPairsIn, static_cast<int64_t>(plans_.size()));
  GSPS_OBS_COUNT(Counter::kJoinPairsOut, static_cast<int64_t>(out->size()));
  GSPS_OBS_COUNT(Counter::kJoinDominanceTests, pending_tests_);
  GSPS_OBS_COUNT(Counter::kJoinSignatureRejects, pending_rejects_);
  pending_tests_ = 0;
  pending_rejects_ = 0;
}

bool SkylineEarlyStopJoin::Affected(const StreamState& stream,
                                    NpvSignature sig) const {
  // A changed vertex can only flip a point it could dominate before or
  // after the change, i.e. whose signature its old|new signature covers.
  if (!SignatureCovers(stream.combined_changed, sig)) return false;
  if (stream.changed_overflow) return true;
  for (int32_t i = 0; i < stream.num_changed; ++i) {
    if (SignatureCovers(stream.changed_sigs[static_cast<size_t>(i)], sig)) {
      return true;
    }
  }
  return false;
}

void SkylineEarlyStopJoin::PushChanged(StreamState& stream, NpvSignature sig) {
  // A vertex with no query dimension can never dominate a skyline point
  // (points are non-trivial); it only matters through live_vertices.
  if (sig == 0) return;
  stream.combined_changed |= sig;
  if (stream.changed_overflow) return;
  if (stream.num_changed == kMaxChangedSigs) {
    stream.changed_overflow = true;
    return;
  }
  stream.changed_sigs[static_cast<size_t>(stream.num_changed++)] = sig;
}

void SkylineEarlyStopJoin::Reevaluate(StreamState& stream,
                                      const QueryPlan& plan,
                                      Verdict* verdict) {
  const int32_t n = static_cast<int32_t>(plan.points.size());
  // Everything before the prefix was covered at the last refresh; when the
  // scan stopped early the witness itself was not.
  const bool old_covered = verdict->covered;
  const int32_t old_witness = verdict->witness;
  const int32_t prefix = old_covered ? n : old_witness;
  verdict->covered = true;
  verdict->witness = n;
  for (int32_t i = 0; i < n; ++i) {
    const int32_t point = plan.points[static_cast<size_t>(i)];
    const bool affected = Affected(stream, points_.signature(point));
    bool covered_now;
    if (!affected && i < prefix) {
      covered_now = true;
    } else if (!affected && !old_covered && i == old_witness) {
      covered_now = false;
    } else {
      covered_now = Covered(stream, point);
    }
    if (!covered_now) {
      verdict->covered = false;
      verdict->witness = i;
      return;
    }
  }
}

bool SkylineEarlyStopJoin::Covered(const StreamState& stream, int32_t point) {
  GSPS_DCHECK(points_.nnz(point) > 0);
  const NpvEntry* const begin = points_.begin(point);
  const NpvEntry* const end = points_.end(point);
  // Optimization 3a: a dimension whose stream maximum is below the query
  // value proves the point uncovered without any comparisons. While
  // scanning, remember the minimum-cardinality dimension bucket.
  const DimBucket* best_bucket = nullptr;
  for (const NpvEntry* entry = begin; entry != end; ++entry) {
    const DimBucket& bucket = stream.buckets[static_cast<size_t>(entry->dim)];
    if (bucket.max_value < entry->count) return false;
    if (best_bucket == nullptr ||
        bucket.live_count < best_bucket->live_count) {
      best_bucket = &bucket;
    }
  }
  // Optimization 3b: any dominating stream vector must have a non-zero
  // value in every non-zero dimension of the point; scanning the smallest
  // bucket suffices.
  GSPS_DCHECK(best_bucket != nullptr);
  const NpvSignature point_sig = points_.signature(point);
  for (const auto& [vertex, value] : best_bucket->values) {
    if (value == 0) continue;  // Tombstone.
    ++comparisons_;
    auto vec_it = stream.vertices.find(vertex);
    GSPS_DCHECK(vec_it != stream.vertices.end());
    const VertexState& candidate = vec_it->second;
    if (!SignatureCovers(candidate.sig, point_sig)) {
      ++pending_rejects_;
      continue;
    }
    ++pending_tests_;
    if (DominatesRange(candidate.entries.data(),
                       candidate.entries.data() + candidate.entries.size(),
                       begin, end)) {
      return true;
    }
  }
  return false;
}

void SkylineEarlyStopJoin::IndexVertex(StreamState& stream, VertexId v,
                                       const std::vector<NpvEntry>& entries) {
  for (const NpvEntry& entry : entries) {
    DimBucket& bucket = stream.buckets[static_cast<size_t>(entry.dim)];
    int32_t& slot = bucket.values[v];
    if (slot == 0) ++bucket.live_count;
    slot = entry.count;
    bucket.max_value = std::max(bucket.max_value, entry.count);
  }
}

void SkylineEarlyStopJoin::DeindexVertex(
    StreamState& stream, VertexId v, const std::vector<NpvEntry>& entries) {
  for (const NpvEntry& entry : entries) {
    DimBucket& bucket = stream.buckets[static_cast<size_t>(entry.dim)];
    auto it = bucket.values.find(v);
    GSPS_DCHECK(it != bucket.values.end() && it->second == entry.count);
    it->second = 0;  // Tombstone: the map node survives for the next add.
    --bucket.live_count;
    if (bucket.live_count == 0) {
      bucket.max_value = 0;
      continue;
    }
    if (entry.count == bucket.max_value) {
      int32_t new_max = 0;
      for (const auto& [vertex, value] : bucket.values) {
        (void)vertex;
        new_max = std::max(new_max, value);
      }
      bucket.max_value = new_max;
    }
  }
}

}  // namespace gsps
