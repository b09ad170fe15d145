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
// entry merge. NpvDimRemap + NpvSlab support the join strategies' dense
// layout: query-side vectors are translated into a contiguous dense dim-id
// space and stored back-to-back, and stream vectors are translated into the
// same space (dropping dimensions no query uses, which is
// dominance-preserving because only the query's non-zero dimensions are
// ever inspected). With at most 64 distinct query dimensions the dense
// signatures are exact, not hashed.

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
// after dense translation of a small query dim set).
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

// A sparse, immutable node projected vector.
class Npv {
 public:
  Npv() = default;

  // Builds from a dim -> count map; zero and negative counts are dropped
  // (counts are cardinalities, so negatives would indicate index corruption
  // and are rejected by the NntSet before reaching here). Sorts — off the
  // hot path; the NntSet NPV cache uses AssignSortedEntries instead.
  static Npv FromMap(const std::unordered_map<DimId, int32_t>& counts);

  // Builds from entries that are already sorted by dim with positive counts.
  static Npv FromSortedEntries(std::vector<NpvEntry> entries);

  // Replaces the contents with `entries` (already sorted by dim, positive
  // counts), reusing this vector's capacity. The NntSet NPV cache refill —
  // no sort, no allocation in steady state.
  void AssignSortedEntries(const std::vector<NpvEntry>& entries);

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
  std::vector<NpvEntry> entries_;
  NpvSignature signature_ = 0;
};

// Dense dimension-id translation for a vector set (the join query side).
// Build with AddDims over every query vector, then Seal; the dims seen map
// to the dense range [0, num_dims()) in ascending order, so translation
// preserves entry order. Stream-side vectors translated through the same
// remap drop every dimension no query uses — such dimensions can never fail
// a dominance test against a query vector.
//
// Seal is not final: GrowDims registers additional dims after Seal (a newly
// added query may project onto dimensions no earlier query used). Growth
// renumbers the dense ids, so the caller must re-translate every dense
// vector it holds; GrowDims hands back the monotonic old-to-new dense-id
// map that makes the in-place rewrite of already-translated query-side
// entries possible. Stream-side dense vectors cannot be rewritten in place
// (their source dims in the grown range were dropped at translate time) and
// must be re-translated from the originals.
class NpvDimRemap {
 public:
  // Collect phase: registers the non-zero dims of `npv`.
  void AddDims(const Npv& npv);

  // Freezes the dim set; after this, only GrowDims may extend it.
  void Seal();

  bool sealed() const { return sealed_; }

  // Number of distinct dims registered. Valid after Seal.
  int32_t num_dims() const { return static_cast<int32_t>(dims_.size()); }

  // Post-seal growth: registers any of `npv`'s dims not yet mapped. Returns
  // true when the dim set grew; *old_to_new is then resized to the previous
  // num_dims() with old_to_new[old_dense] = new dense id (strictly
  // increasing, so rewriting dims in place keeps entries sorted). When
  // nothing grew, returns false without touching *old_to_new — that path is
  // allocation-free, so re-adding a known query stays zero-alloc.
  bool GrowDims(const Npv& npv, std::vector<DimId>* old_to_new);

  // Rewrites `npv` into *out (cleared first, capacity reused): entries with
  // a registered dim keep their count under the dense id, others are
  // dropped. Returns the signature over the dense ids. Linear merge.
  NpvSignature Translate(const Npv& npv, std::vector<NpvEntry>* out) const;

 private:
  std::vector<DimId> dims_;  // Sorted ascending after Seal.
  bool sealed_ = false;
};

// Alignment contract of the slab arrays (see DESIGN.md "Dominance kernel"):
// both the entry array and the signature array start on a 64-byte boundary
// and carry sentinel tail padding, so a vector lane that starts at the last
// real element reads sentinels, never unowned memory.
inline constexpr std::size_t kNpvSlabAlignment = 64;
// Entry array padded to a multiple of 16 entries with {dim 0, count 0}
// sentinels (a zero count can never fail a dominance compare).
inline constexpr int32_t kNpvSlabEntryPad = 16;
// Signature array padded to a multiple of 8 lanes with all-ones sentinels
// (an all-ones signature is never covered unless the hay covers everything;
// kernel consumers additionally mask out the phantom lanes).
inline constexpr int32_t kNpvSlabSigPad = 8;

using NpvEntryVector =
    std::vector<NpvEntry, AlignedAllocator<NpvEntry, kNpvSlabAlignment>>;
using NpvSignatureVector =
    std::vector<NpvSignature, AlignedAllocator<NpvSignature, kNpvSlabAlignment>>;

// Many sparse vectors stored back-to-back in one contiguous entry array,
// each with its signature at hand: the join strategies' cache-resident
// query-side layout, and the memory the dominance kernel sweeps.
//
// Slots are slotted for churn: Remove frees a slot without moving live
// vectors — its entry
// region is repadded with {0, 0} sentinels, its signature becomes the
// all-ones sentinel (so the signature fast-reject discards it for every hay
// that is not all-ones; kernel consumers additionally mask with
// live_words), its generation bumps, and the slot joins a free list.
// Append reuses the best-fitting free slot (smallest adequate capacity, in
// place, allocation-free) before growing the tail, so remove + re-add of an
// identical vector set is zero-alloc and zero-growth in steady state. CheckKernelLayout holds
// after every churn op.
class NpvSlab {
 public:
  // Appends a vector (entries sorted ascending by dim) and returns its
  // slot index — the best-fitting free slot when one is wide enough, else
  // a new tail slot. Re-establishes the tail padding, so the slab is
  // kernel-ready after every append.
  int32_t Append(const std::vector<NpvEntry>& entries);

  // Frees slot `i` (must be live): entries become {0, 0} sentinels, the
  // signature becomes all-ones, the generation bumps, and the slot is
  // available for reuse. The slot index stays valid (size() is unchanged);
  // nnz(i) reads 0 until the slot is reused.
  void Remove(int32_t i);

  // Forgets every slot but keeps array capacity — the scratch-slab reset.
  void Clear();

  // Rewrites the dims of every live entry through `old_to_new` (from
  // NpvDimRemap::GrowDims; strictly increasing, so per-slot entry order is
  // preserved) and recomputes the live signatures. Sentinels are untouched.
  void RemapDims(const std::vector<DimId>& old_to_new);

  int32_t size() const { return static_cast<int32_t>(refs_.size()); }
  int32_t num_live() const { return num_live_; }
  bool live(int32_t i) const { return refs_[static_cast<size_t>(i)].live; }
  uint32_t generation(int32_t i) const {
    return refs_[static_cast<size_t>(i)].generation;
  }

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

  // Raw padded arrays for the dominance kernel's vector sweeps.
  const NpvEntry* entry_data() const { return entries_.data(); }
  int32_t num_entries() const { return num_entries_; }
  int32_t padded_entries() const { return static_cast<int32_t>(entries_.size()); }
  const NpvSignature* sig_data() const { return sigs_.data(); }
  int32_t padded_sigs() const { return static_cast<int32_t>(sigs_.size()); }

  // Liveness bitset (bit i = slot i live), sized to cover padded_sigs()
  // with phantom bits zero: the kernel ANDs its accept/mask words with
  // these so freed slots can never test as dominated.
  const std::vector<uint64_t>& live_words() const { return live_words_; }

  // Validates the alignment/padding/liveness contract above; called by the
  // kernel at bind time in sanitizer builds and by the churn tests after
  // every op.
  void CheckKernelLayout() const;

 private:
  struct Ref {
    int32_t offset = 0;
    int32_t size = 0;      // Entries in use; 0 while freed.
    int32_t capacity = 0;  // Entries reserved; fixed at first allocation.
    uint32_t generation = 0;
    bool live = false;
  };
  // [0, num_entries_) is slot-owned (live entries, in-slot slack, freed
  // regions — all non-live positions hold {0, 0} sentinels), then tail
  // sentinels up to the padded size.
  NpvEntryVector entries_;
  int32_t num_entries_ = 0;
  NpvSignatureVector sigs_;  // [0, size()) real or all-ones, then sentinels.
  std::vector<Ref> refs_;
  std::vector<int32_t> free_slots_;
  std::vector<uint64_t> live_words_;
  int32_t num_live_ = 0;
};

}  // namespace gsps

#endif  // GSPS_NNT_NPV_H_
