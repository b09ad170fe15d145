// AVX2 passes of the dominance kernel. Compiled with -mavx2 (see
// src/CMakeLists.txt); only ever called after the runtime dispatcher has
// confirmed CPU support. Layout contract: dominance_kernel_isa.h.

#include "gsps/join/dominance_kernel_isa.h"

#if defined(GSPS_DOMINANCE_HAVE_AVX2)

#include <immintrin.h>

namespace gsps::kernel_detail {

static_assert(kDominanceLanes == 8, "one block is one __m256i of int32");

void SigPassAvx2(const NpvSignature* sigs, int32_t n_padded,
                 NpvSignature hay_sig, uint64_t* accept_words) {
  uint8_t* out = reinterpret_cast<uint8_t*>(accept_words);
  const __m256i hay = _mm256_set1_epi64x(static_cast<long long>(hay_sig));
  const __m256i zero = _mm256_setzero_si256();
  for (int32_t i = 0; i < n_padded; i += 8) {
    const __m256i lo =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(sigs + i));
    const __m256i hi =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(sigs + i + 4));
    // Accept lane iff (sig & ~hay) == 0, i.e. the hay covers the needle.
    const __m256i rem_lo = _mm256_andnot_si256(hay, lo);
    const __m256i rem_hi = _mm256_andnot_si256(hay, hi);
    const int acc_lo = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(rem_lo, zero)));
    const int acc_hi = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(rem_hi, zero)));
    out[i / 8] = static_cast<uint8_t>(acc_lo | (acc_hi << 4));
  }
}

// Both passes read the layout's fields into locals first: their stores (a
// byte store, a vector store) may alias the layout object, so reading the
// fields in the loop would reload them after every block's store, and how
// those reloads collide with the store depends on where the object sits.

void MaskPassAvx2(const DominanceBlockLayout& layout, const int32_t* dense,
                  const uint64_t* accept_words, uint64_t* mask_words) {
  const uint8_t* accept = reinterpret_cast<const uint8_t*>(accept_words);
  uint8_t* mask = reinterpret_cast<uint8_t*>(mask_words);
  const int32_t num_blocks = layout.num_blocks;
  const int32_t* const block_offset = layout.block_offset.data();
  const int32_t* const block_slots = layout.block_slots.data();
  const int32_t* const dims = layout.dims.data();
  const int32_t* const counts = layout.counts.data();
  for (int32_t b = 0; b < num_blocks; ++b) {
    if (accept[b] == 0) {  // Whole block signature-rejected: not dominated.
      mask[b] = 0;
      continue;
    }
    const int32_t base = block_offset[b];
    const int32_t slots = block_slots[b];
    __m256i fail = _mm256_setzero_si256();
    for (int32_t s = 0; s < slots; ++s) {
      const int32_t off = base + s * 8;
      const __m256i d =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(dims + off));
      const __m256i c =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(counts + off));
      const __m256i v = _mm256_i32gather_epi32(dense, d, 4);
      fail = _mm256_or_si256(fail, _mm256_cmpgt_epi32(c, v));
    }
    const int failed = _mm256_movemask_ps(_mm256_castsi256_ps(fail));
    mask[b] = static_cast<uint8_t>(~failed & 0xFF);
  }
}

void CountPassAvx2(const DominanceBlockLayout& layout, const int32_t* dense,
                   int32_t* counts) {
  const int32_t num_blocks = layout.num_blocks;
  const int32_t* const block_offset = layout.block_offset.data();
  const int32_t* const block_slots = layout.block_slots.data();
  const int32_t* const dims = layout.dims.data();
  const int32_t* const needle_counts = layout.counts.data();
  const int32_t* const nnz_data = layout.nnz.data();
  for (int32_t b = 0; b < num_blocks; ++b) {
    const int32_t base = block_offset[b];
    const int32_t slots = block_slots[b];
    __m256i fails = _mm256_setzero_si256();
    for (int32_t s = 0; s < slots; ++s) {
      const int32_t off = base + s * 8;
      const __m256i d =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(dims + off));
      const __m256i c = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(needle_counts + off));
      const __m256i v = _mm256_i32gather_epi32(dense, d, 4);
      // cmpgt yields -1 per failing lane; subtracting accumulates +1.
      fails = _mm256_sub_epi32(fails, _mm256_cmpgt_epi32(c, v));
    }
    // Padding slots never fail, so satisfied = nnz - fails needs no
    // correction; phantom lanes have nnz 0 and 0 fails.
    const __m256i nnz = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(nnz_data + b * 8));
    _mm256_store_si256(reinterpret_cast<__m256i*>(counts + b * 8),
                       _mm256_sub_epi32(nnz, fails));
  }
}

}  // namespace gsps::kernel_detail

#endif  // GSPS_DOMINANCE_HAVE_AVX2
