// The query side the cover-counting joins share (paper §IV.B).
//
// Nested-loop and dominated-set-cover decide Theorem 4.1's cover condition
// the same way: a query is a candidate for a stream exactly when each of
// its non-trivial vectors is dominated (Lemma 4.2) by some live stream
// vertex, and a trivial (nnz == 0) vector needs only one live vertex. They
// differ only in how a stream vertex learns which query vectors it
// dominates; each keeps that per-vertex state itself and reports every
// change through SetDominates. Both own a CoverQuerySide member, so the
// hot calls below inline into their loops.
//
// It holds the slab of non-trivial query vectors, translated through the
// strategy's StreamSide query-dim filter (a vector's slab slot is its id
// throughout), and the kernel bound to it; per query, its slots,
// trivial-vector count and liveness; per stream, the cover counts and the
// cached candidate list. Query ids are the caller's: AddQuery takes a
// retired id or the next unused one.

#ifndef GSPS_JOIN_COVER_QUERY_SIDE_H_
#define GSPS_JOIN_COVER_QUERY_SIDE_H_

#include <cstdint>
#include <vector>

#include "gsps/common/check.h"
#include "gsps/join/dominance_kernel.h"
#include "gsps/join/join_strategy.h"

namespace gsps {

class CoverQuerySide {
 public:
  struct Stream {
    std::vector<int32_t> cover_count;  // Per slot: vertices dominating it.
    std::vector<int32_t> covered_vectors;  // Per query: slots covered.
    std::vector<int> cache;  // Candidates, valid while cache_valid.
    bool cache_valid = false;
  };

  // Installs the initial queries as ids 0..n-1 through `remap`.
  void SetQueries(const std::vector<QueryVectors>& queries,
                  const NpvDimRemap& remap);
  void SetNumStreams(int num_streams);

  // Registers query `id` through `remap`, which has flagged its dims:
  // appends its slots, re-syncs the kernel and widens every stream's cover
  // counts. The caller folds the new slots(id) into its live vertices.
  void AddQuery(int32_t id, const QueryVectors& query,
                const NpvDimRemap& remap);

  // Retires query `id` (must be live): zeroes its cover state and frees
  // its slots, after which slots(id) is empty and slab().live(k) is false
  // for each of them.
  void RemoveQuery(int32_t id, const NpvDimRemap& remap);

  // One more (now_dominates) or one fewer live vertex of `stream`
  // dominates `slot`.
  void SetDominates(Stream& stream, int32_t slot, bool now_dominates) {
    stream.cache_valid = false;
    int32_t& cover = stream.cover_count[static_cast<size_t>(slot)];
    int32_t& covered = stream.covered_vectors[static_cast<size_t>(
        slot_query_[static_cast<size_t>(slot)])];
    if (now_dominates) {
      if (cover++ == 0) ++covered;
    } else {
      if (--cover == 0) --covered;
      GSPS_DCHECK(cover >= 0);
    }
  }

  // One kernel sweep of a stream vertex's translated entries against every
  // slot, tallied into *stats: the dominated-slot bitset, or the batch
  // holding each slot's satisfied-entry count.
  const std::vector<uint64_t>& DominatedMask(const NpvEntry* begin,
                                             const NpvEntry* end,
                                             NpvSignature sig,
                                             DominanceKernelStats* stats) {
    batch_.ComputeMask(begin, end, sig, stats);
    return batch_.mask_words();
  }
  const DominanceBatch& SatisfiedCounts(const NpvEntry* begin,
                                        const NpvEntry* end,
                                        DominanceKernelStats* stats) {
    batch_.ComputeCounts(begin, end, stats);
    return batch_;
  }

  // Writes stream `stream_index`'s candidates into *out (ascending), from
  // the cache when it is valid, then publishes the strategy's *tally.
  void Candidates(int stream_index, int32_t live_vertices, JoinTally* tally,
                  std::vector<int>* out);

  // Asserts the slab layout and slot ownership.
  void CheckQueryInvariants() const;
  // Asserts stream `stream_index`'s cover state against the caller's
  // recount: per slot, the live vertices dominating it.
  void CheckCover(int stream_index, const std::vector<int32_t>& counts) const;

  const NpvSlab& slab() const { return slab_; }
  Stream& stream(int i) { return streams_[static_cast<size_t>(i)]; }
  const Stream& stream(int i) const {
    return streams_[static_cast<size_t>(i)];
  }
  int num_streams() const { return static_cast<int>(streams_.size()); }
  int32_t num_queries() const {
    return static_cast<int32_t>(query_live_.size());
  }
  const std::vector<int32_t>& slots(int32_t id) const {
    return query_slots_[static_cast<size_t>(id)];
  }

 private:
  void AppendVectors(int32_t id, const QueryVectors& query,
                     const NpvDimRemap& remap);

  NpvSlab slab_;
  DominanceBatch batch_;  // Bound to slab_, re-synced after every churn op.
  std::vector<int32_t> slot_query_;  // Slab slot -> owning query.
  std::vector<std::vector<int32_t>> query_slots_;
  std::vector<int32_t> query_trivial_;  // Per query: nnz == 0 vectors.
  std::vector<uint8_t> query_live_;
  std::vector<Stream> streams_;
  // Churn scratch, capacity-retained so steady-state churn allocates
  // nothing.
  std::vector<NpvEntry> translated_;
};

}  // namespace gsps

#endif  // GSPS_JOIN_COVER_QUERY_SIDE_H_
