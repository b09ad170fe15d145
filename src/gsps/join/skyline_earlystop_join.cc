#include "gsps/join/skyline_earlystop_join.h"

#include <algorithm>
#include <utility>

#include "gsps/common/check.h"
#include "gsps/join/dominance_kernel.h"
#include "gsps/obs/obs.h"

namespace gsps {

void SkylineEarlyStopJoin::SetQueries(std::vector<QueryVectors> queries) {
  GSPS_CHECK(plans_.empty());
  streams_.SetQueries(queries);
  plans_.resize(queries.size());
  for (size_t j = 0; j < queries.size(); ++j) {
    BuildPlan(static_cast<int32_t>(j), queries[j].vectors);
  }
  // Setup-time kernel work stays out of the per-refresh counts.
  tally_.Publish(scratch_batch_.isa(), false, 0, 0);
}

void SkylineEarlyStopJoin::BuildPlan(int32_t j,
                                     const std::vector<Npv>& vectors) {
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
      scratch_slab_.Append(
          streams_.Translate(vectors[static_cast<size_t>(d)]));
    }
    scratch_batch_.Bind(scratch_slab_, streams_.remap().num_dims());
    const size_t words = (num_distinct + 63) / 64;
    scratch_row_.assign(words, 0);
    scratch_colset_.assign(words, 0);
    scratch_dom_count_.assign(num_distinct, 0);
    for (size_t i = 0; i < num_distinct; ++i) {
      const int32_t k = static_cast<int32_t>(i);
      scratch_batch_.ComputeMask(scratch_slab_.begin(k), scratch_slab_.end(k),
                                 scratch_slab_.signature(k), &tally_.kernel);
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
    const int32_t point =
        points_.Append(streams_.Translate(vectors[static_cast<size_t>(index)]));
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
  // No signature moves, so the changed-signature lists stay valid; the
  // new dims' buckets start empty until the caller's replay fills them.
  *grew_dims = streams_.GrowDims(query);
  const size_t num_dims = static_cast<size_t>(streams_.remap().num_dims());
  for (StreamState& stream : states_) stream.buckets.resize(num_dims);

  if (id == n) {
    plans_.emplace_back();
    for (StreamState& stream : states_) {
      stream.verdicts.emplace_back();
    }
  }
  // The plan build's kernel work is published with the next refresh.
  BuildPlan(id, query.vectors);
  const QueryPlan& plan = plans_[static_cast<size_t>(id)];
  // Eager verdict: the cached-verdict invariant ("state as of the last
  // refresh") only holds for plans that existed at that refresh, so the new
  // plan's coverage is scanned now against the current stream state.
  for (size_t i = 0; i < states_.size(); ++i) {
    StreamState& stream = states_[i];
    Verdict& verdict = stream.verdicts[static_cast<size_t>(id)];
    verdict.covered = true;
    verdict.witness = static_cast<int32_t>(plan.points.size());
    for (size_t p = 0; p < plan.points.size(); ++p) {
      if (!Covered(static_cast<int>(i), plan.points[p])) {
        verdict.covered = false;
        verdict.witness = static_cast<int32_t>(p);
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
  for (StreamState& stream : states_) {
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
  streams_.CheckInvariants();
  for (size_t i = 0; i < states_.size(); ++i) {
    const StreamState& stream = states_[i];
    GSPS_CHECK(stream.verdicts.size() == plans_.size());
    const std::vector<Streams::Vertex>& vertices =
        streams_.vertices(static_cast<int>(i));
    for (size_t v = 0; v < vertices.size(); ++v) {
      for (const NpvEntry& entry : vertices[v].entries) {
        const DimBucket& bucket =
            stream.buckets[static_cast<size_t>(entry.dim)];
        const auto it = bucket.values.find(static_cast<VertexId>(v));
        GSPS_CHECK(it != bucket.values.end() && it->second == entry.count);
      }
    }
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
  streams_.SetNumStreams(num_streams);
  states_.resize(static_cast<size_t>(num_streams));
  for (StreamState& stream : states_) {
    stream.buckets.resize(static_cast<size_t>(streams_.remap().num_dims()));
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
  StreamState& stream = states_[static_cast<size_t>(stream_index)];
  streams_.Update(stream_index, v, npv,
                  [&](Streams::Vertex& vertex,
                      const std::vector<NpvEntry>& next, NpvSignature sig) {
                    DeindexVertex(stream, v, vertex.entries);
                    PushChanged(stream, vertex.sig | sig);
                    IndexVertex(stream, v, next);
                  });
  stream.cache_valid = false;
}

void SkylineEarlyStopJoin::RemoveStreamVertex(int stream_index, VertexId v) {
  StreamState& stream = states_[static_cast<size_t>(stream_index)];
  streams_.Remove(stream_index, v, [&](Streams::Vertex& vertex) {
    DeindexVertex(stream, v, vertex.entries);
    PushChanged(stream, vertex.sig);
    stream.cache_valid = false;
  });
}

void SkylineEarlyStopJoin::CandidatesForStream(int stream_index,
                                               std::vector<int>* out) {
  StreamState& stream = states_[static_cast<size_t>(stream_index)];
  const bool reused = stream.cache_valid;
  if (!reused) {
    GSPS_OBS_JOIN_REFRESH(stream_index);
    stream.cache.clear();
    const bool stream_nonempty = streams_.live_vertices(stream_index) > 0;
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
        Reevaluate(stream_index, plan, &verdict);
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
    tally_.skyline_early_stops += early_stops;
  }
  out->assign(stream.cache.begin(), stream.cache.end());
  tally_.Publish(scratch_batch_.isa(), reused,
                 static_cast<int64_t>(plans_.size()),
                 static_cast<int64_t>(out->size()));
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
  // (points are non-trivial); it only matters through the live count.
  if (sig == 0) return;
  stream.combined_changed |= sig;
  if (stream.changed_overflow) return;
  if (stream.num_changed == kMaxChangedSigs) {
    stream.changed_overflow = true;
    return;
  }
  stream.changed_sigs[static_cast<size_t>(stream.num_changed++)] = sig;
}

void SkylineEarlyStopJoin::Reevaluate(int stream_index, const QueryPlan& plan,
                                      Verdict* verdict) {
  const StreamState& stream = states_[static_cast<size_t>(stream_index)];
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
      covered_now = Covered(stream_index, point);
    }
    if (!covered_now) {
      verdict->covered = false;
      verdict->witness = i;
      return;
    }
  }
}

bool SkylineEarlyStopJoin::Covered(int stream_index, int32_t point) {
  GSPS_DCHECK(points_.nnz(point) > 0);
  const StreamState& stream = states_[static_cast<size_t>(stream_index)];
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
  const std::vector<Streams::Vertex>& vertices =
      streams_.vertices(stream_index);
  for (const auto& [vertex, value] : best_bucket->values) {
    if (value == 0) continue;  // Tombstone.
    ++comparisons_;
    const Streams::Vertex& candidate = vertices[static_cast<size_t>(vertex)];
    GSPS_DCHECK(candidate.live);
    if (!SignatureCovers(candidate.sig, point_sig)) {
      ++tally_.kernel.sig_rejects;
      continue;
    }
    ++tally_.kernel.tests;
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
