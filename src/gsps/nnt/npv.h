// Node Projected Vectors (paper Definition 4.2).
//
// The NPV of a vertex counts, per projection dimension, the tree edges of
// its NNT falling into that dimension. Vectors are stored sparsely as
// entries sorted by dimension id (§IV.A: most dimensions are zero).
//
// Dominance fast path: every vector carries a 64-bit signature with bit
// (dim mod 64) set for each non-zero dimension. A vector can dominate
// another only if its signature is a bit-superset of the other's, so
// Dominates rejects most non-dominating pairs with one mask before the
// entry merge. NpvDimRemap + NpvSlab support the join strategies' layout:
// query-side vectors are stored back-to-back, and stream vectors keep only
// the dimensions some query uses, under their own ids (dropping the rest is
// dominance-preserving because only the query's non-zero dimensions are
// ever inspected). When every query dimension is below 64 the signatures
// are exact, not hashed.

#ifndef GSPS_NNT_NPV_H_
#define GSPS_NNT_NPV_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gsps/common/aligned.h"
#include "gsps/nnt/dimension.h"

namespace gsps {

// One non-zero coordinate of an NPV.
struct NpvEntry {
  DimId dim = kInvalidDim;
  int32_t count = 0;

  friend bool operator==(const NpvEntry&, const NpvEntry&) = default;
};

// Bit (dim mod 64) per non-zero dimension. A superset test on signatures is
// a necessary condition for dominance (exact when all dims are < 64, e.g.
// a small query dim set interned before any stream's).
using NpvSignature = uint64_t;

constexpr NpvSignature NpvSignatureBit(DimId dim) {
  return NpvSignature{1} << (static_cast<uint32_t>(dim) & 63u);
}

// True when every bit of `needle` is present in `hay`. Dominance requires
// SignatureCovers(dominator, dominated).
constexpr bool SignatureCovers(NpvSignature hay, NpvSignature needle) {
  return (needle & ~hay) == 0;
}

// Signature over a raw entry range.
NpvSignature SignatureOf(const NpvEntry* begin, const NpvEntry* end);

// Merge-dominance over raw entry ranges, both sorted ascending by dim: true
// when the hay range has a coordinate >= every needle coordinate. The
// kernel behind Npv::Dominates and the slab-based strategy loops; callers
// are expected to have applied the signature reject already.
bool DominatesRange(const NpvEntry* hay_begin, const NpvEntry* hay_end,
                    const NpvEntry* needle_begin, const NpvEntry* needle_end);

// A sparse node projected vector, immutable to every reader but the NntSet
// whose row it is.
class Npv {
 public:
  Npv() = default;

  // Builds from a dim -> count map; zero and negative counts are dropped
  // (counts are cardinalities, so negatives would indicate index corruption
  // and are rejected by the NntSet before reaching here). Sorts — off the
  // hot path.
  static Npv FromMap(const std::unordered_map<DimId, int32_t>& counts);

  // Builds from entries that are already sorted by dim with positive counts.
  static Npv FromSortedEntries(std::vector<NpvEntry> entries);

  // Value at `dim` (0 when absent). O(log nnz).
  int32_t ValueAt(DimId dim) const;

  // Non-zero entries, ascending by dim.
  const std::vector<NpvEntry>& entries() const { return entries_; }

  // Number of non-zero dimensions.
  int32_t nnz() const { return static_cast<int32_t>(entries_.size()); }

  // Non-zero-dimension signature, maintained alongside the entries.
  NpvSignature signature() const { return signature_; }

  // True when every coordinate of *this is >= the matching coordinate of
  // `other` — i.e. *this dominates `other` in the sense of Lemma 4.2
  // (`other` <= *this). Only `other`'s non-zero entries need inspection;
  // the signature superset test rejects in O(1) first.
  bool Dominates(const Npv& other) const;

  friend bool operator==(const Npv&, const Npv&) = default;

 private:
  friend class NntSet;  // A row is an Npv, merged in place (nnt_set.h).

  std::vector<NpvEntry> entries_;
  NpvSignature signature_ = 0;
};

// The join's dimension filter over global dim ids (the join query side).
// AddDims flags the dims of every query vector; Translate keeps a vector's
// entries in flagged dims, under their own ids, and drops the rest — such
// dimensions can never fail a dominance test against a query vector. A
// query with new dims only flags them: no id moves, so nothing translated
// earlier needs a rewrite. Stream vectors translated before the flag
// dropped the new dims, so the caller must re-translate them.
//
// The filter is one flag per global dim, as long as the largest flagged
// dim + 1: Translate is one lookup per entry, so its cost follows the
// translated vector's nnz, not the number of query dims.
class NpvDimRemap {
 public:
  // Flags the non-zero dims of `npv`. Returns true when a dim was new;
  // writes nothing otherwise, so re-adding a known query allocates nothing.
  bool AddDims(const Npv& npv);

  // One past the largest flagged dim: the extent of every per-dim array.
  int32_t num_dims() const { return static_cast<int32_t>(flagged_.size()); }

  // Copies `npv`'s entries in flagged dims into *out (cleared first,
  // capacity reused) and returns their signature. Entries ascend, so the
  // scan stops at the first dim past the table.
  NpvSignature Translate(const Npv& npv, std::vector<NpvEntry>* out) const;

 private:
  std::vector<uint8_t> flagged_;  // Per global dim: 1 when a query uses it.
};

// Layout contract of the slab's signature array, the one slab array the
// dominance kernel's vector passes read (see DESIGN.md "Dominance kernel"):
// it starts on a 64-byte boundary and is padded to a multiple of 8 lanes
// with all-ones sentinels, so a vector load that starts at the last real
// signature reads sentinels, never unowned memory. An all-ones signature is
// never covered unless the hay covers everything; kernel consumers
// additionally mask out the phantom lanes.
inline constexpr std::size_t kNpvSlabAlignment = 64;
inline constexpr int32_t kNpvSlabSigPad = 8;

using NpvSignatureVector =
    std::vector<NpvSignature, AlignedAllocator<NpvSignature, kNpvSlabAlignment>>;

// Many sparse vectors stored back-to-back in one contiguous entry array,
// each with its signature at hand: the join strategies' cache-resident
// query-side layout, and what the dominance kernel's block mirror is built
// from.
//
// Slots are slotted for churn: Remove frees a slot without moving live
// vectors — its nnz drops to 0, its signature becomes the all-ones sentinel
// (so the signature fast-reject discards it for every hay that is not
// all-ones; kernel consumers additionally mask with live_words), and the
// slot joins a free list.
// Append reuses the best-fitting free slot (smallest adequate capacity, in
// place, allocation-free) before growing the tail, so remove + re-add of an
// identical vector set is zero-alloc and zero-growth in steady state.
// CheckKernelLayout holds after every churn op.
class NpvSlab {
 public:
  // Appends a vector (entries sorted ascending by dim) and returns its
  // slot index — the best-fitting free slot when one is wide enough, else
  // a new tail slot. Re-establishes the signature padding, so the slab is
  // kernel-ready after every append.
  int32_t Append(const std::vector<NpvEntry>& entries);

  // Frees slot `i` (must be live): the signature becomes all-ones and the
  // slot is available for reuse. The slot index stays valid (size() is
  // unchanged); nnz(i) reads 0 until the slot is reused.
  void Remove(int32_t i);

  // Forgets every slot but keeps array capacity — the scratch-slab reset.
  void Clear();

  int32_t size() const { return static_cast<int32_t>(refs_.size()); }
  int32_t num_live() const { return num_live_; }
  bool live(int32_t i) const { return refs_[static_cast<size_t>(i)].live; }

  const NpvEntry* begin(int32_t i) const {
    return entries_.data() + refs_[static_cast<size_t>(i)].offset;
  }
  const NpvEntry* end(int32_t i) const {
    const Ref& ref = refs_[static_cast<size_t>(i)];
    return entries_.data() + ref.offset + ref.size;
  }
  int32_t nnz(int32_t i) const { return refs_[static_cast<size_t>(i)].size; }
  NpvSignature signature(int32_t i) const {
    return sigs_[static_cast<size_t>(i)];
  }

  // Raw padded signature array for the dominance kernel's signature pass.
  const NpvSignature* sig_data() const { return sigs_.data(); }
  int32_t padded_sigs() const { return static_cast<int32_t>(sigs_.size()); }

  // Liveness bitset (bit i = slot i live), sized to cover padded_sigs()
  // with phantom bits zero: the kernel ANDs its accept/mask words with
  // these so freed slots can never test as dominated.
  const std::vector<uint64_t>& live_words() const { return live_words_; }

  // Validates the signature layout contract above plus the slot regions
  // (back-to-back, size <= capacity) and liveness bits; called by the
  // kernel at bind time in sanitizer builds and by the churn tests after
  // every op.
  void CheckKernelLayout() const;

 private:
  struct Ref {
    int32_t offset = 0;
    int32_t size = 0;      // Entries in use; 0 while freed.
    int32_t capacity = 0;  // Entries reserved; fixed at first allocation.
    bool live = false;
  };
  // Slot regions back-to-back: each slot's [offset, offset + size) holds
  // its entries; in-slot slack and freed regions hold stale entries that
  // no reader touches.
  std::vector<NpvEntry> entries_;
  NpvSignatureVector sigs_;  // [0, size()) real or all-ones, then sentinels.
  std::vector<Ref> refs_;
  std::vector<int32_t> free_slots_;
  std::vector<uint64_t> live_words_;
  int32_t num_live_ = 0;
};

}  // namespace gsps

#endif  // GSPS_NNT_NPV_H_
