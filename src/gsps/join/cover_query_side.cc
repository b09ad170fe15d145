#include "gsps/join/cover_query_side.h"

namespace gsps {

void CoverQuerySide::SetQueries(const std::vector<QueryVectors>& queries,
                                const NpvDimRemap& remap) {
  GSPS_CHECK(query_live_.empty() && streams_.empty());
  query_slots_.resize(queries.size());
  query_trivial_.resize(queries.size());
  query_live_.assign(queries.size(), 1);
  for (size_t j = 0; j < queries.size(); ++j) {
    AppendVectors(static_cast<int32_t>(j), queries[j], remap);
  }
  batch_.Bind(slab_, remap.num_dims());
}

void CoverQuerySide::SetNumStreams(int num_streams) {
  streams_.resize(static_cast<size_t>(num_streams));
  for (Stream& stream : streams_) {
    stream.cover_count.assign(static_cast<size_t>(slab_.size()), 0);
    stream.covered_vectors.assign(static_cast<size_t>(num_queries()), 0);
  }
}

void CoverQuerySide::AppendVectors(int32_t id, const QueryVectors& query,
                                   const NpvDimRemap& remap) {
  int32_t trivial = 0;
  for (const Npv& vector : query.vectors) {
    if (vector.nnz() == 0) {
      ++trivial;
      continue;
    }
    // Query dims are all registered, so translation is lossless.
    remap.Translate(vector, &translated_);
    const int32_t slot = slab_.Append(translated_);
    if (slot == static_cast<int32_t>(slot_query_.size())) {
      slot_query_.push_back(id);
    } else {
      slot_query_[static_cast<size_t>(slot)] = id;
    }
    query_slots_[static_cast<size_t>(id)].push_back(slot);
  }
  query_trivial_[static_cast<size_t>(id)] = trivial;
}

void CoverQuerySide::AddQuery(int32_t id, const QueryVectors& query,
                              const NpvDimRemap& remap) {
  const int32_t n = num_queries();
  GSPS_CHECK_MSG(id >= 0 && id <= n &&
                     (id == n || query_live_[static_cast<size_t>(id)] == 0),
                 "AddQuery: the id must be retired or the next unused one");
  if (id == n) {
    query_slots_.emplace_back();
    query_trivial_.push_back(0);
    query_live_.push_back(0);
    for (Stream& stream : streams_) stream.covered_vectors.push_back(0);
  }
  query_live_[static_cast<size_t>(id)] = 1;
  AppendVectors(id, query, remap);
  for (const int32_t slot : slots(id)) {
    batch_.RefreshSlot(slab_, remap.num_dims(), slot);
  }
  for (Stream& stream : streams_) {
    stream.cover_count.resize(static_cast<size_t>(slab_.size()), 0);
    stream.cache_valid = false;
  }
}

void CoverQuerySide::RemoveQuery(int32_t id, const NpvDimRemap& remap) {
  GSPS_CHECK(id >= 0 && id < num_queries());
  GSPS_CHECK_MSG(query_live_[static_cast<size_t>(id)] != 0,
                 "RemoveQuery on a retired query");
  std::vector<int32_t>& mine = query_slots_[static_cast<size_t>(id)];
  for (Stream& stream : streams_) {
    for (const int32_t slot : mine) {
      stream.cover_count[static_cast<size_t>(slot)] = 0;
    }
    stream.covered_vectors[static_cast<size_t>(id)] = 0;
    stream.cache_valid = false;
  }
  for (const int32_t slot : mine) {
    slab_.Remove(slot);
    batch_.RefreshSlot(slab_, remap.num_dims(), slot);
  }
  mine.clear();
  query_trivial_[static_cast<size_t>(id)] = 0;
  query_live_[static_cast<size_t>(id)] = 0;
}

void CoverQuerySide::Candidates(int stream_index, int32_t live_vertices,
                                JoinTally* tally, std::vector<int>* out) {
  Stream& stream = streams_[static_cast<size_t>(stream_index)];
  const bool reused = stream.cache_valid;
  if (!reused) {
    GSPS_OBS_JOIN_REFRESH(stream_index);
    stream.cache.clear();
    for (int32_t j = 0; j < num_queries(); ++j) {
      const size_t q = static_cast<size_t>(j);
      if (query_live_[q] == 0) continue;
      if (stream.covered_vectors[q] !=
          static_cast<int32_t>(query_slots_[q].size())) {
        continue;
      }
      if (query_trivial_[q] > 0 && live_vertices == 0) continue;
      stream.cache.push_back(static_cast<int>(j));
    }
    stream.cache_valid = true;
  }
  out->assign(stream.cache.begin(), stream.cache.end());
  tally->Publish(batch_.isa(), reused, num_queries(),
                 static_cast<int64_t>(out->size()));
}

void CoverQuerySide::CheckQueryInvariants() const {
  slab_.CheckKernelLayout();
  int32_t live_slots = 0;
  for (int32_t j = 0; j < num_queries(); ++j) {
    const std::vector<int32_t>& mine = slots(j);
    if (query_live_[static_cast<size_t>(j)] == 0) {
      GSPS_CHECK(mine.empty());
      continue;
    }
    for (const int32_t slot : mine) {
      GSPS_CHECK(slab_.live(slot));
      GSPS_CHECK(slot_query_[static_cast<size_t>(slot)] == j);
      ++live_slots;
    }
  }
  GSPS_CHECK(live_slots == slab_.num_live());
}

void CoverQuerySide::CheckCover(int stream_index,
                                const std::vector<int32_t>& counts) const {
  const Stream& s = stream(stream_index);
  GSPS_CHECK(s.cover_count == counts);
  std::vector<int32_t> covered(static_cast<size_t>(num_queries()), 0);
  for (size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] > 0) ++covered[static_cast<size_t>(slot_query_[k])];
  }
  GSPS_CHECK(s.covered_vectors == covered);
}

}  // namespace gsps
