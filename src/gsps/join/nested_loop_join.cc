#include "gsps/join/nested_loop_join.h"

#include <vector>

#include "gsps/common/check.h"

namespace gsps {

void NestedLoopJoin::SetQueries(std::vector<QueryVectors> queries) {
  streams_.SetQueries(queries);
  query_.SetQueries(queries, streams_.remap());
}

void NestedLoopJoin::SetNumStreams(int num_streams) {
  streams_.SetNumStreams(num_streams);
  query_.SetNumStreams(num_streams);
}

void NestedLoopJoin::AddQuery(int32_t id, const QueryVectors& query,
                              bool* grew_dims) {
  *grew_dims = streams_.GrowDims(query, [this](const std::vector<DimId>& m) {
    query_.RemapDims(m);
  });
  query_.AddQuery(id, query, *grew_dims, streams_.remap());
  // On growth the caller replays every vertex, re-translating its entries.
  if (*grew_dims) return;
  // Fold the new vectors into the existing cover state: each live vertex
  // is tested against just the new slab slots (scalar — the slots are few
  // and the kernel would re-test the whole slab).
  const NpvSlab& slab = query_.slab();
  streams_.ForEachLive([&](int i, Streams::Vertex& vertex) {
    for (const int32_t k : query_.slots(id)) {
      if (!SignatureCovers(vertex.sig, slab.signature(k))) continue;
      if (!DominatesRange(vertex.entries.data(),
                          vertex.entries.data() + vertex.entries.size(),
                          slab.begin(k), slab.end(k))) {
        continue;
      }
      vertex.state.push_back(k);
      query_.SetDominates(query_.stream(i), k, true);
    }
  });
}

void NestedLoopJoin::RemoveQuery(int32_t id) {
  query_.RemoveQuery(id, streams_.remap());
  // The query's slots are the only ones freed: drop them from every live
  // vertex's dominated list (a tombstone's is empty).
  const NpvSlab& slab = query_.slab();
  streams_.ForEachLive([&slab](int, Streams::Vertex& vertex) {
    std::erase_if(vertex.state, [&slab](int32_t k) { return !slab.live(k); });
  });
}

void NestedLoopJoin::UpdateStreamVertex(int stream_index, VertexId v,
                                        const Npv& npv) {
  CoverQuerySide::Stream& cover = query_.stream(stream_index);
  streams_.Update(
      stream_index, v, npv,
      [&](Streams::Vertex& vertex, const std::vector<NpvEntry>& next,
          NpvSignature sig) {
        for (const int32_t k : vertex.state) {
          query_.SetDominates(cover, k, false);
        }
        vertex.state.clear();
        const std::vector<uint64_t>& mask = query_.DominatedMask(
            next.data(), next.data() + next.size(), sig, &tally_.kernel);
        for (size_t w = 0; w < mask.size(); ++w) {
          uint64_t word = mask[w];
          while (word != 0) {
            const int32_t k = static_cast<int32_t>(
                w * 64 + static_cast<size_t>(__builtin_ctzll(word)));
            word &= word - 1;
            vertex.state.push_back(k);
            query_.SetDominates(cover, k, true);
          }
        }
      });
  cover.cache_valid = false;
}

void NestedLoopJoin::RemoveStreamVertex(int stream_index, VertexId v) {
  CoverQuerySide::Stream& cover = query_.stream(stream_index);
  streams_.Remove(stream_index, v, [&](Streams::Vertex& vertex) {
    for (const int32_t k : vertex.state) query_.SetDominates(cover, k, false);
    vertex.state.clear();
    cover.cache_valid = false;
  });
}

void NestedLoopJoin::CandidatesForStream(int stream_index,
                                         std::vector<int>* out) {
  query_.Candidates(stream_index, streams_.live_vertices(stream_index),
                    &tally_, out);
}

void NestedLoopJoin::CheckChurnInvariants() const {
  query_.CheckQueryInvariants();
  streams_.CheckInvariants();
  // Recount the cover state from the vertices; a dead one dominates nothing.
  std::vector<int32_t> counts;
  for (int i = 0; i < query_.num_streams(); ++i) {
    counts.assign(static_cast<size_t>(query_.slab().size()), 0);
    for (const Streams::Vertex& vertex : streams_.vertices(i)) {
      GSPS_CHECK(vertex.live || vertex.state.empty());
      for (const int32_t k : vertex.state) {
        GSPS_CHECK(query_.slab().live(k));
        ++counts[static_cast<size_t>(k)];
      }
    }
    query_.CheckCover(i, counts);
  }
}

}  // namespace gsps
