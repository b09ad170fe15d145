#include "gsps/join/dominance_kernel.h"

#include <algorithm>
#include <cstdlib>

#include "gsps/common/check.h"
#include "gsps/join/dominance_kernel_isa.h"

namespace gsps {
namespace {

// Fused scalar mask pass: the PR 5 per-needle loop (signature reject, then
// an early-exit compare) over the dense hay array. Fills both the accept
// and mask bitsets; caller pre-zeroes them.
void FusedMaskScalar(const NpvSlab& slab, const int32_t* dense,
                     NpvSignature hay_sig, uint64_t* accept_words,
                     uint64_t* mask_words) {
  const int32_t n = slab.size();
  for (int32_t i = 0; i < n; ++i) {
    if ((slab.signature(i) & ~hay_sig) != 0) continue;  // Reject: bits stay 0.
    const uint64_t bit = uint64_t{1} << (static_cast<uint32_t>(i) % 64);
    accept_words[static_cast<size_t>(i) / 64] |= bit;
    bool dominated = true;
    for (const NpvEntry* e = slab.begin(i); e != slab.end(i); ++e) {
      if (dense[e->dim] < e->count) {
        dominated = false;
        break;
      }
    }
    if (dominated) mask_words[static_cast<size_t>(i) / 64] |= bit;
  }
}

void CountPassScalar(const NpvSlab& slab, const int32_t* dense,
                     int32_t* counts) {
  const int32_t n = slab.size();
  for (int32_t i = 0; i < n; ++i) {
    int32_t satisfied = 0;
    for (const NpvEntry* e = slab.begin(i); e != slab.end(i); ++e) {
      satisfied += dense[e->dim] >= e->count ? 1 : 0;
    }
    counts[static_cast<size_t>(i)] = satisfied;
  }
}

bool CpuHasIsa(DominanceIsa isa) {
  switch (isa) {
    case DominanceIsa::kScalar:
      return true;
    case DominanceIsa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

DominanceIsa ResolveActiveIsa() {
  if (const char* force = std::getenv("GSPS_FORCE_ISA");
      force != nullptr && force[0] != '\0') {
    const std::optional<DominanceIsa> parsed = ParseDominanceIsa(force);
    GSPS_CHECK_MSG(parsed.has_value(),
                   "GSPS_FORCE_ISA must be scalar or avx2");
    GSPS_CHECK_MSG(DominanceIsaCompiled(*parsed),
                   "GSPS_FORCE_ISA names an ISA this binary was built without");
    GSPS_CHECK_MSG(CpuHasIsa(*parsed),
                   "GSPS_FORCE_ISA names an ISA this CPU does not support");
    return *parsed;
  }
  if (DominanceIsaSupported(DominanceIsa::kAvx2)) return DominanceIsa::kAvx2;
  return DominanceIsa::kScalar;
}

}  // namespace

const char* DominanceIsaName(DominanceIsa isa) {
  switch (isa) {
    case DominanceIsa::kScalar:
      return "scalar";
    case DominanceIsa::kAvx2:
      return "avx2";
  }
  GSPS_CHECK_MSG(false, "unknown DominanceIsa");
  return "";
}

std::optional<DominanceIsa> ParseDominanceIsa(std::string_view name) {
  if (name == "scalar") return DominanceIsa::kScalar;
  if (name == "avx2") return DominanceIsa::kAvx2;
  return std::nullopt;
}

bool DominanceIsaCompiled(DominanceIsa isa) {
  switch (isa) {
    case DominanceIsa::kScalar:
      return true;
    case DominanceIsa::kAvx2:
#if defined(GSPS_DOMINANCE_HAVE_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool DominanceIsaSupported(DominanceIsa isa) {
  return DominanceIsaCompiled(isa) && CpuHasIsa(isa);
}

DominanceIsa ActiveDominanceIsa() {
  static const DominanceIsa resolved = [] {
    const DominanceIsa isa = ResolveActiveIsa();
    // First resolution stamps the gsps_build_info metric, so any binary
    // that ran a dominance batch reports the ISA it actually dispatched.
    obs::SetBuildInfoIsa(DominanceIsaName(isa));
    return isa;
  }();
  return resolved;
}

DominanceBatch::DominanceBatch() : isa_(ActiveDominanceIsa()) {}

DominanceBatch::DominanceBatch(DominanceIsa isa) : isa_(isa) {
  GSPS_CHECK_MSG(DominanceIsaSupported(isa),
                 "DominanceBatch: requested ISA is not supported here");
}

void DominanceBatch::Bind(const NpvSlab& slab, int32_t num_dims) {
  GSPS_CHECK(num_dims >= 0);
  slab_ = &slab;
  num_dims_ = num_dims;
  bound_n_ = slab.size();
#if defined(GSPS_SANITIZE_ENABLED)
  slab.CheckKernelLayout();
#endif
  // dense_ keeps one slot even for a zero-dim universe so the padding
  // entries' dim 0 always gathers in-bounds.
  dense_.assign(static_cast<size_t>(std::max(num_dims, 1)), 0);

  const int32_t n = slab.size();
  accept_words_.assign(
      (static_cast<size_t>(slab.padded_sigs()) + 63) / 64, 0);
  if (isa_ == DominanceIsa::kScalar) {
    layout_ = DominanceBlockLayout{};
    mask_words_.assign((static_cast<size_t>(n) + 63) / 64, 0);
    counts_.assign(static_cast<size_t>(n), 0);
    return;
  }

  constexpr int32_t lanes = kDominanceLanes;
  layout_.num_vectors = n;
  layout_.num_blocks = (n + lanes - 1) / lanes;
  layout_.block_slots.assign(static_cast<size_t>(layout_.num_blocks), 0);
  layout_.block_offset.assign(static_cast<size_t>(layout_.num_blocks), 0);
  layout_.nnz.assign(static_cast<size_t>(layout_.num_blocks) * lanes, 0);
  int64_t total = 0;
  for (int32_t b = 0; b < layout_.num_blocks; ++b) {
    int32_t slots = 0;
    for (int32_t l = 0; l < lanes; ++l) {
      const int32_t i = b * lanes + l;
      if (i >= n) break;
      slots = std::max(slots, slab.nnz(i));
      layout_.nnz[static_cast<size_t>(i)] = slab.nnz(i);
    }
    layout_.block_slots[static_cast<size_t>(b)] = slots;
    layout_.block_offset[static_cast<size_t>(b)] =
        static_cast<int32_t>(total);
    total += static_cast<int64_t>(slots) * lanes;
  }
  // Slot padding {dim 0, count 0}: gathers dense_[0] and can never fail.
  layout_.dims.assign(static_cast<size_t>(total), 0);
  layout_.counts.assign(static_cast<size_t>(total), 0);
  for (int32_t i = 0; i < n; ++i) {
    const int32_t b = i / lanes;
    const int32_t lane = i % lanes;
    const int32_t base = layout_.block_offset[static_cast<size_t>(b)];
    const NpvEntry* e = slab.begin(i);
    for (int32_t s = 0; s < slab.nnz(i); ++s) {
      layout_.dims[static_cast<size_t>(base + s * lanes + lane)] = e[s].dim;
      layout_.counts[static_cast<size_t>(base + s * lanes + lane)] =
          e[s].count;
      GSPS_DCHECK(e[s].dim >= 0 && e[s].dim < num_dims);
    }
  }
  mask_words_.assign(
      (static_cast<size_t>(layout_.num_blocks) * lanes + 63) / 64, 0);
  counts_.assign(static_cast<size_t>(layout_.num_blocks) * lanes, 0);
}

void DominanceBatch::RefreshSlot(const NpvSlab& slab, int32_t num_dims,
                                 int32_t k) {
  if (slab_ != &slab || num_dims_ != num_dims || slab.size() != bound_n_) {
    Bind(slab, num_dims);
    return;
  }
  if (isa_ == DominanceIsa::kScalar) return;  // No mirror to patch.
  const int32_t nnz = slab.nnz(k);
  constexpr int32_t lanes = kDominanceLanes;
  const int32_t b = k / lanes;
  if (nnz > layout_.block_slots[static_cast<size_t>(b)]) {
    // The reused slot carries more entries than its block budgeted for;
    // only a full layout rebuild can widen the block.
    Bind(slab, num_dims);
    return;
  }
  const int32_t lane = k % lanes;
  const int32_t base = layout_.block_offset[static_cast<size_t>(b)];
  const NpvEntry* const e = slab.begin(k);
  for (int32_t s = 0; s < nnz; ++s) {
    layout_.dims[static_cast<size_t>(base + s * lanes + lane)] = e[s].dim;
    layout_.counts[static_cast<size_t>(base + s * lanes + lane)] = e[s].count;
    GSPS_DCHECK(e[s].dim >= 0 && e[s].dim < num_dims);
  }
  // Restore the {dim 0, count 0} padding over the lane's unused slots.
  for (int32_t s = nnz; s < layout_.block_slots[static_cast<size_t>(b)];
       ++s) {
    layout_.dims[static_cast<size_t>(base + s * lanes + lane)] = 0;
    layout_.counts[static_cast<size_t>(base + s * lanes + lane)] = 0;
  }
  layout_.nnz[static_cast<size_t>(k)] = nnz;
}

void DominanceBatch::Densify(const NpvEntry* begin, const NpvEntry* end) {
  for (const NpvEntry* e = begin; e != end; ++e) {
    GSPS_DCHECK(e->dim >= 0 && e->dim < num_dims_);
    dense_[static_cast<size_t>(e->dim)] = e->count;
  }
}

void DominanceBatch::Sparsify(const NpvEntry* begin, const NpvEntry* end) {
  for (const NpvEntry* e = begin; e != end; ++e) {
    dense_[static_cast<size_t>(e->dim)] = 0;
  }
}

void DominanceBatch::ClearPhantomBits(std::vector<uint64_t>* words) const {
  const int64_t n = bound_size();
  for (size_t w = 0; w < words->size(); ++w) {
    const int64_t base = static_cast<int64_t>(w) * 64;
    if (base >= n) {
      (*words)[w] = 0;
    } else if (base + 64 > n) {
      (*words)[w] &= ~uint64_t{0} >> (base + 64 - n);
    }
  }
}

void DominanceBatch::ComputeMask(const NpvEntry* hay_begin,
                                 const NpvEntry* hay_end,
                                 NpvSignature hay_sig,
                                 DominanceKernelStats* stats) {
  GSPS_DCHECK(slab_ != nullptr);
  Densify(hay_begin, hay_end);
  switch (isa_) {
    case DominanceIsa::kScalar:
      std::fill(accept_words_.begin(), accept_words_.end(), 0);
      std::fill(mask_words_.begin(), mask_words_.end(), 0);
      FusedMaskScalar(*slab_, dense_.data(), hay_sig, accept_words_.data(),
                      mask_words_.data());
      break;
#if defined(GSPS_DOMINANCE_HAVE_AVX2)
    case DominanceIsa::kAvx2:
      kernel_detail::SigPassAvx2(slab_->sig_data(), slab_->padded_sigs(),
                                 hay_sig, accept_words_.data());
      ClearPhantomBits(&accept_words_);
      kernel_detail::MaskPassAvx2(layout_, dense_.data(),
                                  accept_words_.data(), mask_words_.data());
      break;
#endif
    default:
      GSPS_CHECK_MSG(false, "DominanceBatch: ISA not compiled in");
  }
  ClearPhantomBits(&accept_words_);  // No-op for SIMD (already cleared).
  ClearPhantomBits(&mask_words_);
  // Freed slab slots carry the all-ones signature sentinel and no entries,
  // so an all-ones hay would accept and trivially dominate them: mask both
  // bitsets with the slab's liveness words. Bits past the live words'
  // extent are already phantom-cleared to zero.
  const std::vector<uint64_t>& live = slab_->live_words();
  for (size_t w = 0; w < accept_words_.size() && w < live.size(); ++w) {
    accept_words_[w] &= live[w];
  }
  for (size_t w = 0; w < mask_words_.size() && w < live.size(); ++w) {
    mask_words_[w] &= live[w];
  }
  Sparsify(hay_begin, hay_end);

  int64_t accepted = 0;
  for (const uint64_t word : accept_words_) {
    accepted += __builtin_popcountll(word);
  }
  stats->tests += accepted;
  stats->sig_rejects += bound_size() - accepted;
  stats->batches += 1;
}

void DominanceBatch::ComputeCounts(const NpvEntry* hay_begin,
                                   const NpvEntry* hay_end,
                                   DominanceKernelStats* stats) {
  GSPS_DCHECK(slab_ != nullptr);
  Densify(hay_begin, hay_end);
  switch (isa_) {
    case DominanceIsa::kScalar:
      CountPassScalar(*slab_, dense_.data(), counts_.data());
      break;
#if defined(GSPS_DOMINANCE_HAVE_AVX2)
    case DominanceIsa::kAvx2:
      kernel_detail::CountPassAvx2(layout_, dense_.data(), counts_.data());
      break;
#endif
    default:
      GSPS_CHECK_MSG(false, "DominanceBatch: ISA not compiled in");
  }
  Sparsify(hay_begin, hay_end);
  stats->tests += bound_size();
  stats->batches += 1;
}

}  // namespace gsps
