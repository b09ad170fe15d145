#include "gsps/join/nested_loop_join.h"

#include <vector>

#include "gsps/common/check.h"

namespace gsps {

void NestedLoopJoin::SetQueries(std::vector<QueryVectors> queries) {
  query_.SetQueries(queries);
}

void NestedLoopJoin::SetNumStreams(int num_streams) {
  query_.SetNumStreams(num_streams);
  vertices_.resize(static_cast<size_t>(num_streams));
}

void NestedLoopJoin::AddQuery(int32_t id, const QueryVectors& query,
                              bool* grew_dims) {
  // On growth the caller replays every vertex, re-translating its entries.
  *grew_dims = query_.AddQuery(id, query, [](const std::vector<DimId>&) {});
  if (*grew_dims) return;
  // Fold the new vectors into the existing cover state: each live vertex
  // is tested against just the new slab slots (scalar — the slots are few
  // and the kernel would re-test the whole slab).
  const NpvSlab& slab = query_.slab();
  for (int i = 0; i < query_.num_streams(); ++i) {
    CoverQuerySide::Stream& cover = query_.stream(i);
    for (auto& [v, vertex] : vertices_[static_cast<size_t>(i)]) {
      if (!vertex.live) continue;
      for (const int32_t k : query_.slots(id)) {
        if (!SignatureCovers(vertex.sig, slab.signature(k))) continue;
        if (!DominatesRange(vertex.entries.data(),
                            vertex.entries.data() + vertex.entries.size(),
                            slab.begin(k), slab.end(k))) {
          continue;
        }
        vertex.dominated.push_back(k);
        query_.SetDominates(cover, k, true);
      }
    }
  }
}

void NestedLoopJoin::RemoveQuery(int32_t id) {
  query_.RemoveQuery(id);
  // The query's slots are the only ones freed: drop them from every
  // vertex's dominated list.
  const NpvSlab& slab = query_.slab();
  for (VertexMap& vertices : vertices_) {
    for (auto& [v, vertex] : vertices) {
      std::erase_if(vertex.dominated,
                    [&slab](int32_t k) { return !slab.live(k); });
    }
  }
}

void NestedLoopJoin::UpdateStreamVertex(int stream_index, VertexId v,
                                        const Npv& npv) {
  CoverQuerySide::Stream& cover = query_.stream(stream_index);
  VertexState& vertex = vertices_[static_cast<size_t>(stream_index)][v];
  if (vertex.live) {
    Retract(cover, vertex);
  } else {
    vertex.live = true;
    CoverQuerySide::AddLiveVertex(cover);
  }
  vertex.sig = query_.remap().Translate(npv, &vertex.entries);
  vertex.dominated.clear();
  const NpvEntry* const begin = vertex.entries.data();
  const std::vector<uint64_t>& mask =
      query_.DominatedMask(begin, begin + vertex.entries.size(), vertex.sig);
  for (size_t w = 0; w < mask.size(); ++w) {
    uint64_t word = mask[w];
    while (word != 0) {
      const int32_t k = static_cast<int32_t>(
          w * 64 + static_cast<size_t>(__builtin_ctzll(word)));
      word &= word - 1;
      vertex.dominated.push_back(k);
      query_.SetDominates(cover, k, true);
    }
  }
  cover.cache_valid = false;
}

void NestedLoopJoin::RemoveStreamVertex(int stream_index, VertexId v) {
  VertexMap& vertices = vertices_[static_cast<size_t>(stream_index)];
  auto it = vertices.find(v);
  if (it == vertices.end() || !it->second.live) return;
  CoverQuerySide::Stream& cover = query_.stream(stream_index);
  Retract(cover, it->second);
  it->second.live = false;
  it->second.sig = 0;
  it->second.entries.clear();
  it->second.dominated.clear();
  CoverQuerySide::RemoveLiveVertex(cover);
  cover.cache_valid = false;
}

void NestedLoopJoin::CandidatesForStream(int stream_index,
                                         std::vector<int>* out) {
  query_.Candidates(stream_index, out);
}

void NestedLoopJoin::Retract(CoverQuerySide::Stream& cover,
                             VertexState& vertex) {
  for (const int32_t k : vertex.dominated) {
    query_.SetDominates(cover, k, false);
  }
}

void NestedLoopJoin::CheckChurnInvariants() const {
  query_.CheckQueryInvariants();
  // Recount the per-stream cover state from the vertices.
  std::vector<int32_t> counts;
  for (int i = 0; i < query_.num_streams(); ++i) {
    counts.assign(static_cast<size_t>(query_.slab().size()), 0);
    int32_t live_vertices = 0;
    for (const auto& [v, vertex] : vertices_[static_cast<size_t>(i)]) {
      if (!vertex.live) continue;
      ++live_vertices;
      for (const int32_t k : vertex.dominated) {
        GSPS_CHECK(query_.slab().live(k));
        ++counts[static_cast<size_t>(k)];
      }
    }
    query_.CheckCover(i, counts, live_vertices);
  }
}

}  // namespace gsps
