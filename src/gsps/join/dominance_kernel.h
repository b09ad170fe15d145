// Batched NPV dominance kernel with runtime ISA dispatch.
//
// The join strategies' inner question — "which slab-resident query vectors
// does this stream NPV dominate?" — is answered here in bulk. One kernel
// invocation tests a single stream NPV (the "hay", translated to the query
// dims) against every vector of a bound NpvSlab (the "needles") and produces a
// dominated bitset, fusing the 64-bit signature fast-reject with the vector
// compare:
//
//   1. Signature pass: the hay signature is tested against the slab's
//      contiguous signature array, 4 signatures per AVX2 instruction,
//      yielding an accept bitset. Rejected needles are counted but never
//      compared entry-by-entry.
//   2. Compare pass: the hay is scattered into a dense count array indexed
//      by dim id; slab needles are swept in lane-major blocks of
//      kDominanceLanes vectors, one gather + compare per entry slot, so
//      each iteration advances one entry of 8 query vectors at once.
//      Blocks whose accept byte is zero are skipped wholesale.
//
// A second mode (ComputeCounts) keeps per-needle counts of satisfied
// entries instead of a boolean — exactly the dominant counters the
// dominated-set-cover strategy maintains, letting bulk inserts bypass its
// per-dimension list walks.
//
// Dispatch is resolved once per process from CPUID (gcc/clang
// __builtin_cpu_supports) and the GSPS_FORCE_ISA environment override
// (scalar|avx2); forcing an ISA the build or CPU lacks aborts with a
// diagnostic rather than silently falling back, so CI's dispatch matrix
// cannot test the wrong path. The scalar fallback computes bit-identical
// masks, counts, and stats from the same inputs — the property
// tests/dominance_kernel_test.cc and the CI kernel-dispatch matrix enforce.

#ifndef GSPS_JOIN_DOMINANCE_KERNEL_H_
#define GSPS_JOIN_DOMINANCE_KERNEL_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "gsps/common/aligned.h"
#include "gsps/nnt/npv.h"
#include "gsps/obs/obs.h"

namespace gsps {

enum class DominanceIsa : int { kScalar = 0, kAvx2 = 1 };
inline constexpr int kNumDominanceIsas = 2;

// Stable lowercase name ("scalar", "avx2").
const char* DominanceIsaName(DominanceIsa isa);

// Inverse of DominanceIsaName; nullopt for unknown strings.
std::optional<DominanceIsa> ParseDominanceIsa(std::string_view name);

// True when the ISA's translation unit was compiled into this binary.
bool DominanceIsaCompiled(DominanceIsa isa);

// True when the ISA is compiled in AND the running CPU supports it.
bool DominanceIsaSupported(DominanceIsa isa);

// The process-wide dispatch decision, resolved once on first use: the
// GSPS_FORCE_ISA override when set (aborts if unsupported), otherwise AVX2
// when supported, else scalar.
DominanceIsa ActiveDominanceIsa();

// The per-ISA batch counter (gsps_dominance_batches_{scalar,avx2}).
inline obs::Counter DominanceBatchCounter(DominanceIsa isa) {
  static_assert(static_cast<int>(obs::Counter::kDominanceBatchesAvx2) ==
                static_cast<int>(obs::Counter::kDominanceBatchesScalar) + 1);
  return static_cast<obs::Counter>(
      static_cast<int>(obs::Counter::kDominanceBatchesScalar) +
      static_cast<int>(isa));
}

// Accumulated by the kernel, flushed by the strategies at refresh time.
struct DominanceKernelStats {
  int64_t tests = 0;        // Needles surviving the signature reject.
  int64_t sig_rejects = 0;  // Needles rejected on signature alone.
  int64_t batches = 0;      // Kernel invocations (one per hay vector).
};

// A join strategy's counts since its last CandidatesForStream, which adds
// them and its own counts to the thread's sink under one lookup.
struct JoinTally {
  DominanceKernelStats kernel;  // Batches count under the batch's ISA.
  int64_t skyline_early_stops = 0;
  int64_t set_cover_rounds = 0;
  int64_t set_cover_flips = 0;
  int64_t set_cover_toggles = 0;

  void Publish(DominanceIsa isa, bool reused, int64_t pairs_in,
               int64_t pairs_out) {
    if (obs::MetricSink* sink = obs::kEnabled ? obs::CurrentSink() : nullptr) {
      sink->Add(obs::Counter::kJoinVerdictsReused, reused ? 1 : 0);
      sink->Add(obs::Counter::kJoinPairsIn, pairs_in);
      sink->Add(obs::Counter::kJoinPairsOut, pairs_out);
      sink->Add(obs::Counter::kJoinDominanceTests, kernel.tests);
      sink->Add(obs::Counter::kJoinSignatureRejects, kernel.sig_rejects);
      sink->Add(DominanceBatchCounter(isa), kernel.batches);
      sink->Add(obs::Counter::kJoinSkylineEarlyStops, skyline_early_stops);
      sink->Add(obs::Counter::kJoinSetCoverRounds, set_cover_rounds);
      sink->Add(obs::Counter::kJoinSetCoverFlips, set_cover_flips);
      sink->Add(obs::Counter::kJoinSetCoverToggles, set_cover_toggles);
    }
    *this = JoinTally{};
  }
};

using AlignedI32Vector =
    std::vector<int32_t, AlignedAllocator<int32_t, kNpvSlabAlignment>>;

// Needles per SIMD block: one AVX2 register of int32 lanes.
inline constexpr int32_t kDominanceLanes = 8;

// Lane-major mirror of a bound slab, built once at Bind time for the SIMD
// path: needles are grouped into blocks of kDominanceLanes; within a block,
// entry slot s of lane l lives at dims[block_offset + s * kDominanceLanes +
// l]. Lanes shorter than the block's slot count are padded with {dim 0,
// count 0}, which can never fail a dominance compare; a zero nnz entry
// corrects the count mode. Block offsets are multiples of kDominanceLanes,
// so every slot row is a naturally aligned vector load.
struct DominanceBlockLayout {
  int32_t num_vectors = 0;
  int32_t num_blocks = 0;
  std::vector<int32_t> block_slots;   // Per block: max nnz among its lanes.
  std::vector<int32_t> block_offset;  // Per block: start index in dims/counts.
  AlignedI32Vector dims;
  AlignedI32Vector counts;
  AlignedI32Vector nnz;  // Per needle (padded to whole blocks with 0).
};

// Reusable scratch bound to one query-side slab. Not thread-safe; each
// strategy instance owns one. All steady-state calls are allocation-free:
// every buffer is sized at Bind.
class DominanceBatch {
 public:
  // Dispatched construction (ActiveDominanceIsa).
  DominanceBatch();
  // Forced construction for benches/tests; `isa` must be supported.
  explicit DominanceBatch(DominanceIsa isa);

  DominanceIsa isa() const { return isa_; }

  // Binds the needle side. `slab` must outlive the batch and stay
  // unmutated between Bind and the last Compute* call — after any
  // Append/Remove, re-Bind or RefreshSlot (allocation-free when the slab's
  // padded extents did not grow: every buffer is assign()ed in place).
  // `num_dims` bounds the dim ids (NpvDimRemap::num_dims) every hay and
  // slab entry lives in. Freed slab slots never test as dominated:
  // both bitsets are masked with the slab's live words before stats, so
  // dead slots count as signature rejects on every ISA identically.
  void Bind(const NpvSlab& slab, int32_t num_dims);

  // Re-syncs the bound state for slot `k` after an in-place slab churn op
  // (Remove, or Append reusing a freed slot): patches just that lane of the
  // SIMD block layout instead of rebuilding the whole mirror — O(slot
  // entries), the strategies' steady-state churn fast path. Falls back to a
  // full Bind when the patch cannot be local: a different slab or dim
  // universe, a slab that grew past the bound size (tail Append), or a slot
  // whose entry count now exceeds its block's slot budget. Scalar batches
  // keep no mirror, so the in-place case is free.
  void RefreshSlot(const NpvSlab& slab, int32_t num_dims, int32_t k);

  int32_t bound_size() const { return bound_n_; }

  // Tests hay (entries sorted ascending by dim, signature over them)
  // against every bound needle. Afterwards Dominated(k) is exact dominance
  // of needle k; stats accrue one batch, and tests/sig_rejects split the
  // needle count by the signature verdict.
  void ComputeMask(const NpvEntry* hay_begin, const NpvEntry* hay_end,
                   NpvSignature hay_sig, DominanceKernelStats* stats);

  // Fills SatisfiedCount(k) = number of needle k's entries the hay
  // satisfies (hay value >= needle count). No signature skip: partial
  // counts are needed even for needles the hay cannot dominate.
  void ComputeCounts(const NpvEntry* hay_begin, const NpvEntry* hay_end,
                     DominanceKernelStats* stats);

  bool Dominated(int32_t k) const {
    return (mask_words_[static_cast<size_t>(k) / 64] >>
            (static_cast<size_t>(k) % 64)) &
           1u;
  }
  int32_t SatisfiedCount(int32_t k) const {
    return counts_[static_cast<size_t>(k)];
  }

  // Dominated bitset words (bit k = needle k; bits past bound_size are 0).
  const std::vector<uint64_t>& mask_words() const { return mask_words_; }

 private:
  void Densify(const NpvEntry* begin, const NpvEntry* end);
  void Sparsify(const NpvEntry* begin, const NpvEntry* end);
  // Zeroes bits >= bound_size() in `words`.
  void ClearPhantomBits(std::vector<uint64_t>* words) const;

  DominanceIsa isa_;
  const NpvSlab* slab_ = nullptr;
  int32_t num_dims_ = 0;
  int32_t bound_n_ = 0;  // slab_->size() at Bind/RefreshSlot time.
  AlignedI32Vector dense_;            // Hay counts by dim id.
  DominanceBlockLayout layout_;       // Built for AVX2 only.
  std::vector<uint64_t> accept_words_;
  std::vector<uint64_t> mask_words_;
  AlignedI32Vector counts_;
};

}  // namespace gsps

#endif  // GSPS_JOIN_DOMINANCE_KERNEL_H_
