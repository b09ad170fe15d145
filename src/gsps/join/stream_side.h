// The stream side the three join strategies share (paper §IV.B).
//
// A stream's candidates depend only on its vertices' NPVs (Lemma 4.2,
// Theorem 4.1), so all three keep one record per stream vertex, in a flat
// table per stream indexed by VertexId: the NPV's entries in the query
// dims (global ids, NpvDimRemap), its signature, and the strategy's own
// `State`. StreamSide owns the tables, the live counts and the query-dim
// filter. A removed vertex is a tombstone that keeps its buffers' capacity,
// so re-adding it allocates nothing.

#ifndef GSPS_JOIN_STREAM_SIDE_H_
#define GSPS_JOIN_STREAM_SIDE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "gsps/common/check.h"
#include "gsps/join/join_strategy.h"
#include "gsps/obs/obs.h"

namespace gsps {

template <typename State>
class StreamSide {
 public:
  struct Vertex {
    std::vector<NpvEntry> entries;  // Query dims, ascending; empty if dead.
    NpvSignature sig = 0;
    bool live = false;
    [[no_unique_address]] State state;
  };

  // Flags the initial queries' dims.
  void SetQueries(const std::vector<QueryVectors>& queries) {
    for (const QueryVectors& query : queries) {
      for (const Npv& vector : query.vectors) remap_.AddDims(vector);
    }
  }

  void SetNumStreams(int num_streams) {
    GSPS_CHECK(streams_.empty());
    streams_.resize(static_cast<size_t>(num_streams));
  }

  // Flags `query`'s dims; returns true when some were new. No id moves, so
  // stored entries stay valid, but they dropped the new dims at translate
  // time: those come back only when the caller replays every vertex.
  bool GrowDims(const QueryVectors& query) {
    bool grew = false;
    for (const Npv& vector : query.vectors) {
      if (!remap_.AddDims(vector)) continue;
      grew = true;
      GSPS_OBS_COUNT(Counter::kRemapRegrowths, 1);
    }
    return grew;
  }

  // `npv` in the query dims, in scratch that the next call overwrites.
  const std::vector<NpvEntry>& Translate(const Npv& npv) {
    remap_.Translate(npv, &next_);
    return next_;
  }

  // Calls on_update(vertex, next, next_sig) while vertex `v` still holds
  // its old record, then stores `npv`'s translation `next`. Returns true
  // when the stream gained its first live vertex.
  template <typename OnUpdate>
  bool Update(int stream_index, VertexId v, const Npv& npv,
              OnUpdate&& on_update) {
    GSPS_CHECK(v >= 0);
    Stream& stream = streams_[static_cast<size_t>(stream_index)];
    if (static_cast<size_t>(v) >= stream.vertices.size()) {
      stream.vertices.resize(static_cast<size_t>(v) + 1);
    }
    Vertex& vertex = stream.vertices[static_cast<size_t>(v)];
    const NpvSignature sig = remap_.Translate(npv, &next_);
    on_update(vertex, std::as_const(next_), sig);
    vertex.entries.assign(next_.begin(), next_.end());
    vertex.sig = sig;
    if (vertex.live) return false;
    vertex.live = true;
    return stream.live++ == 0;
  }

  // Retires vertex `v` if live: on_remove(vertex), then clears its record.
  // Returns true when the stream lost its last live vertex.
  template <typename OnRemove>
  bool Remove(int stream_index, VertexId v, OnRemove&& on_remove) {
    Stream& stream = streams_[static_cast<size_t>(stream_index)];
    const size_t i = static_cast<size_t>(v);
    if (v < 0 || i >= stream.vertices.size() || !stream.vertices[i].live) {
      return false;
    }
    on_remove(stream.vertices[i]);
    stream.vertices[i].entries.clear();
    stream.vertices[i].sig = 0;
    stream.vertices[i].live = false;
    return --stream.live == 0;
  }

  // Calls fn(stream, vertex) for every live vertex, stream by stream.
  template <typename Fn>
  void ForEachLive(Fn&& fn) {
    for (size_t i = 0; i < streams_.size(); ++i) {
      for (Vertex& vertex : streams_[i].vertices) {
        if (vertex.live) fn(static_cast<int>(i), vertex);
      }
    }
  }

  // The table of `stream`, indexed by VertexId.
  const std::vector<Vertex>& vertices(int stream_index) const {
    return streams_[static_cast<size_t>(stream_index)].vertices;
  }
  int32_t live_vertices(int stream_index) const {
    return streams_[static_cast<size_t>(stream_index)].live;
  }
  const NpvDimRemap& remap() const { return remap_; }

  // Asserts every record's signature and each stream's live count.
  void CheckInvariants() const {
    for (const Stream& stream : streams_) {
      int32_t live = 0;
      for (const Vertex& vertex : stream.vertices) {
        const NpvEntry* const begin = vertex.entries.data();
        GSPS_CHECK(vertex.sig ==
                   SignatureOf(begin, begin + vertex.entries.size()));
        GSPS_CHECK(vertex.live || vertex.entries.empty());
        live += vertex.live ? 1 : 0;
      }
      GSPS_CHECK(live == stream.live);
    }
  }

 private:
  struct Stream {
    std::vector<Vertex> vertices;
    int32_t live = 0;
  };

  NpvDimRemap remap_;
  std::vector<Stream> streams_;
  // Scratch, capacity kept so steady-state updates allocate nothing.
  std::vector<NpvEntry> next_;
};

}  // namespace gsps

#endif  // GSPS_JOIN_STREAM_SIDE_H_
