// Internal contract between the dominance kernel's dispatcher
// (dominance_kernel.cc) and its AVX2 translation unit
// (dominance_kernel_avx2.cc), which supplies three passes; definitions
// exist only when the build sets GSPS_DOMINANCE_HAVE_AVX2, and the
// dispatcher only references them under the same guard.
//
// Pass semantics (shared with the scalar fallback — outputs must be
// bit-identical):
//   * SigPass: accept bit i = hay_sig covers sigs[i], for i in
//     [0, n_padded); n_padded is a multiple of 8 and the sig array carries
//     all-ones sentinels past the real needles (see NpvSlab), which only an
//     all-covering hay accepts — the dispatcher clears phantom bits after.
//   * MaskPass: dominated bit k = every entry of needle k satisfied by
//     `dense` (dense[dim] >= count). Blocks with an all-zero accept group
//     are skipped (signature coverage is necessary for dominance, so their
//     bits are exactly 0); accepted-but-failing lanes still compute to 0.
//     Writes every block's bit group, so no pre-zeroing is needed.
//   * CountPass: counts[k] = number of needle k's entries satisfied by
//     `dense`, for all k (no signature skip).

#ifndef GSPS_JOIN_DOMINANCE_KERNEL_ISA_H_
#define GSPS_JOIN_DOMINANCE_KERNEL_ISA_H_

#include <cstdint>

#include "gsps/join/dominance_kernel.h"

namespace gsps::kernel_detail {

void SigPassAvx2(const NpvSignature* sigs, int32_t n_padded,
                 NpvSignature hay_sig, uint64_t* accept_words);
void MaskPassAvx2(const DominanceBlockLayout& layout, const int32_t* dense,
                  const uint64_t* accept_words, uint64_t* mask_words);
void CountPassAvx2(const DominanceBlockLayout& layout, const int32_t* dense,
                   int32_t* counts);

}  // namespace gsps::kernel_detail

#endif  // GSPS_JOIN_DOMINANCE_KERNEL_ISA_H_
