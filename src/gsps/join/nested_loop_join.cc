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
  *grew_dims = streams_.GrowDims(query);
  query_.AddQuery(id, query, streams_.remap());
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
  const bool became_nonempty = streams_.Update(
      stream_index, v, npv,
      [&](Streams::Vertex& vertex, const std::vector<NpvEntry>& next,
          NpvSignature sig) {
        const std::vector<uint64_t>& mask = query_.DominatedMask(
            next.data(), next.data() + next.size(), sig, &tally_.kernel);
        // Diff the old slot list against the new mask: only flipped slots
        // reach SetDominates, so an update that flips none keeps the cache.
        // Every slot is below the bound slab's size, so the mask covers it.
        dominated_before_.resize(mask.size(), 0);
        for (const int32_t k : vertex.state) {
          GSPS_DCHECK(static_cast<size_t>(k) / 64 < mask.size());
          dominated_before_[static_cast<size_t>(k) / 64] |=
              uint64_t{1} << (static_cast<uint32_t>(k) % 64);
        }
        vertex.state.clear();
        auto slot = [](size_t w, uint64_t word) {
          return static_cast<int32_t>(
              w * 64 + static_cast<size_t>(__builtin_ctzll(word)));
        };
        for (size_t w = 0; w < mask.size(); ++w) {
          const uint64_t before = dominated_before_[w];
          dominated_before_[w] = 0;
          for (uint64_t lost = before & ~mask[w]; lost != 0; lost &= lost - 1) {
            query_.SetDominates(cover, slot(w, lost), false);
          }
          for (uint64_t word = mask[w]; word != 0; word &= word - 1) {
            vertex.state.push_back(slot(w, word));
          }
          for (uint64_t won = mask[w] & ~before; won != 0; won &= won - 1) {
            query_.SetDominates(cover, slot(w, won), true);
          }
        }
      });
  // Beyond flips, only the stream turning non-empty changes a verdict.
  if (became_nonempty) cover.cache_valid = false;
}

void NestedLoopJoin::RemoveStreamVertex(int stream_index, VertexId v) {
  CoverQuerySide::Stream& cover = query_.stream(stream_index);
  const bool emptied =
      streams_.Remove(stream_index, v, [&](Streams::Vertex& vertex) {
        for (const int32_t k : vertex.state) {
          query_.SetDominates(cover, k, false);
        }
        vertex.state.clear();
      });
  if (emptied) cover.cache_valid = false;
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
