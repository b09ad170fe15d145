// Tests for the batched dominance kernel (gsps/join/dominance_kernel.h):
// ISA name round-trips, the NpvSlab signature-array contract the vector
// path relies on, and — the load-bearing part — an exhaustive differential
// check that every compiled-and-supported ISA produces bit-identical masks,
// counts, and stats to both the scalar kernel and a brute-force oracle,
// across empty vectors, single-dim vectors, unaligned slab tails, multi-slot
// blocks, signature-reject boundaries, and dim universes past the 64-bit
// signature's aliasing point.

#include "gsps/join/dominance_kernel.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "gsps/nnt/npv.h"

namespace gsps {
namespace {

std::vector<DominanceIsa> SupportedIsas() {
  std::vector<DominanceIsa> isas;
  for (int i = 0; i < kNumDominanceIsas; ++i) {
    const DominanceIsa isa = static_cast<DominanceIsa>(i);
    if (DominanceIsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

// Sorted-by-dim entries with positive counts over [0, num_dims).
std::vector<NpvEntry> RandomVector(std::mt19937& rng, int32_t num_dims,
                                   int32_t max_nnz, int32_t max_count) {
  std::uniform_int_distribution<int32_t> nnz_dist(0, max_nnz);
  std::uniform_int_distribution<int32_t> dim_dist(0, num_dims - 1);
  std::uniform_int_distribution<int32_t> count_dist(1, max_count);
  std::vector<int32_t> dims;
  const int32_t want = std::min(nnz_dist(rng), num_dims);
  while (static_cast<int32_t>(dims.size()) < want) {
    const int32_t dim = dim_dist(rng);
    if (std::find(dims.begin(), dims.end(), dim) == dims.end()) {
      dims.push_back(dim);
    }
  }
  std::sort(dims.begin(), dims.end());
  std::vector<NpvEntry> entries;
  entries.reserve(dims.size());
  for (const int32_t dim : dims) {
    entries.push_back(NpvEntry{dim, count_dist(rng)});
  }
  return entries;
}

struct Oracle {
  std::vector<bool> dominated;
  std::vector<int32_t> satisfied;
  int64_t tests = 0;
  int64_t sig_rejects = 0;
};

Oracle BruteForce(const NpvSlab& slab, const std::vector<NpvEntry>& hay,
                  NpvSignature hay_sig, int32_t num_dims) {
  Oracle oracle;
  std::vector<int32_t> dense(static_cast<size_t>(std::max(num_dims, 1)), 0);
  for (const NpvEntry& e : hay) dense[static_cast<size_t>(e.dim)] = e.count;
  for (int32_t k = 0; k < slab.size(); ++k) {
    if (SignatureCovers(hay_sig, slab.signature(k))) {
      ++oracle.tests;
    } else {
      ++oracle.sig_rejects;
    }
    bool dominated = true;
    int32_t satisfied = 0;
    for (const NpvEntry* e = slab.begin(k); e != slab.end(k); ++e) {
      if (dense[static_cast<size_t>(e->dim)] >= e->count) {
        ++satisfied;
      } else {
        dominated = false;
      }
    }
    oracle.dominated.push_back(dominated);
    oracle.satisfied.push_back(satisfied);
  }
  return oracle;
}

TEST(DominanceIsaTest, NameParseRoundTrip) {
  for (int i = 0; i < kNumDominanceIsas; ++i) {
    const DominanceIsa isa = static_cast<DominanceIsa>(i);
    const auto parsed = ParseDominanceIsa(DominanceIsaName(isa));
    ASSERT_TRUE(parsed.has_value()) << DominanceIsaName(isa);
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(ParseDominanceIsa("").has_value());
  EXPECT_FALSE(ParseDominanceIsa("sse2").has_value());
  EXPECT_FALSE(ParseDominanceIsa("AVX2").has_value());
  EXPECT_FALSE(ParseDominanceIsa("avx512").has_value());
}

TEST(DominanceIsaTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(DominanceIsaCompiled(DominanceIsa::kScalar));
  EXPECT_TRUE(DominanceIsaSupported(DominanceIsa::kScalar));
  // The dispatch decision must itself be a supported ISA.
  EXPECT_TRUE(DominanceIsaSupported(ActiveDominanceIsa()));
}

TEST(DominanceIsaTest, BatchCountersAreDistinct) {
  EXPECT_NE(DominanceBatchCounter(DominanceIsa::kScalar),
            DominanceBatchCounter(DominanceIsa::kAvx2));
}

TEST(NpvSlabLayoutTest, AlignmentAndSentinelPadding) {
  NpvSlab slab;
  std::mt19937 rng(11);
  for (int append = 0; append < 23; ++append) {
    slab.Append(RandomVector(rng, 40, 9, 5));
    // The contract must hold after EVERY append, not just the last one.
    slab.CheckKernelLayout();
    EXPECT_EQ(reinterpret_cast<uintptr_t>(slab.sig_data()) % kNpvSlabAlignment,
              0u);
    EXPECT_EQ(slab.padded_sigs() % kNpvSlabSigPad, 0);
    EXPECT_GE(slab.padded_sigs(), slab.size());
    for (int32_t s = slab.size(); s < slab.padded_sigs(); ++s) {
      EXPECT_EQ(slab.sig_data()[s], ~NpvSignature{0});
    }
  }
}

TEST(DominanceBatchTest, EmptySlab) {
  NpvSlab slab;
  const std::vector<NpvEntry> hay = {NpvEntry{0, 3}};
  for (const DominanceIsa isa : SupportedIsas()) {
    DominanceBatch batch(isa);
    batch.Bind(slab, 4);
    DominanceKernelStats stats;
    batch.ComputeMask(hay.data(), hay.data() + hay.size(),
                      SignatureOf(hay.data(), hay.data() + hay.size()),
                      &stats);
    EXPECT_EQ(stats.tests, 0) << DominanceIsaName(isa);
    EXPECT_EQ(stats.sig_rejects, 0) << DominanceIsaName(isa);
    EXPECT_EQ(stats.batches, 1) << DominanceIsaName(isa);
  }
}

TEST(DominanceBatchTest, EmptyNeedleIsDominatedByAnything) {
  NpvSlab slab;
  slab.Append({});  // nnz == 0: vacuously dominated, even by an empty hay.
  slab.Append({NpvEntry{2, 1}});
  for (const DominanceIsa isa : SupportedIsas()) {
    DominanceBatch batch(isa);
    batch.Bind(slab, 3);
    DominanceKernelStats stats;
    batch.ComputeMask(nullptr, nullptr, 0, &stats);
    EXPECT_TRUE(batch.Dominated(0)) << DominanceIsaName(isa);
    EXPECT_FALSE(batch.Dominated(1)) << DominanceIsaName(isa);
    EXPECT_EQ(stats.tests, 1) << DominanceIsaName(isa);
    EXPECT_EQ(stats.sig_rejects, 1) << DominanceIsaName(isa);
  }
}

// Signature-reject boundaries: counts equal (dominates), count one higher
// (signature accepts, compare fails), disjoint dim (signature rejects).
TEST(DominanceBatchTest, SignatureAndCompareBoundaries) {
  NpvSlab slab;
  slab.Append({NpvEntry{1, 4}});              // Equal count: dominated.
  slab.Append({NpvEntry{1, 5}});              // count+1: accept, not dominated.
  slab.Append({NpvEntry{2, 1}});              // Disjoint dim: sig reject.
  slab.Append({NpvEntry{1, 4}, NpvEntry{2, 1}});  // Partially satisfied.
  const std::vector<NpvEntry> hay = {NpvEntry{1, 4}};
  const NpvSignature hay_sig = SignatureOf(hay.data(), hay.data() + 1);
  for (const DominanceIsa isa : SupportedIsas()) {
    DominanceBatch batch(isa);
    batch.Bind(slab, 3);
    DominanceKernelStats stats;
    batch.ComputeMask(hay.data(), hay.data() + 1, hay_sig, &stats);
    EXPECT_TRUE(batch.Dominated(0)) << DominanceIsaName(isa);
    EXPECT_FALSE(batch.Dominated(1)) << DominanceIsaName(isa);
    EXPECT_FALSE(batch.Dominated(2)) << DominanceIsaName(isa);
    EXPECT_FALSE(batch.Dominated(3)) << DominanceIsaName(isa);
    EXPECT_EQ(stats.tests, 2) << DominanceIsaName(isa);
    EXPECT_EQ(stats.sig_rejects, 2) << DominanceIsaName(isa);

    batch.ComputeCounts(hay.data(), hay.data() + 1, &stats);
    EXPECT_EQ(batch.SatisfiedCount(0), 1) << DominanceIsaName(isa);
    EXPECT_EQ(batch.SatisfiedCount(1), 0) << DominanceIsaName(isa);
    EXPECT_EQ(batch.SatisfiedCount(2), 0) << DominanceIsaName(isa);
    EXPECT_EQ(batch.SatisfiedCount(3), 1) << DominanceIsaName(isa);
  }
}

// The main property: every supported ISA agrees bit-for-bit with the brute
// oracle (and hence with scalar) on masks, counts, and stats. Slab sizes
// straddle 8-lane block boundaries to exercise unaligned tails and phantom
// lanes; dim universes straddle 64 to exercise signature
// aliasing; nnz up to 24 exercises multi-slot blocks.
TEST(DominanceBatchTest, DifferentialAgainstBruteForce) {
  const std::vector<DominanceIsa> isas = SupportedIsas();
  std::mt19937 rng(20260808);
  const int32_t slab_sizes[] = {1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65};
  const int32_t dim_universes[] = {1, 7, 64, 70, 130};
  for (const int32_t num_dims : dim_universes) {
    for (const int32_t slab_size : slab_sizes) {
      NpvSlab slab;
      for (int32_t k = 0; k < slab_size; ++k) {
        slab.Append(RandomVector(rng, num_dims, 24, 4));
      }
      std::vector<DominanceBatch> batches;
      batches.reserve(isas.size());
      for (const DominanceIsa isa : isas) {
        batches.emplace_back(isa);
        batches.back().Bind(slab, num_dims);
      }
      for (int hay_case = 0; hay_case < 12; ++hay_case) {
        // Mix sparse hays (reject-heavy) and near-dense hays (accept-heavy);
        // hay_case 0 is the empty hay.
        const int32_t hay_nnz =
            hay_case == 0 ? 0 : (hay_case % 2 == 0 ? 4 : num_dims);
        const std::vector<NpvEntry> hay =
            RandomVector(rng, num_dims, hay_nnz, 6);
        const NpvSignature hay_sig =
            SignatureOf(hay.data(), hay.data() + hay.size());
        const Oracle oracle = BruteForce(slab, hay, hay_sig, num_dims);
        for (size_t b = 0; b < batches.size(); ++b) {
          DominanceKernelStats stats;
          batches[b].ComputeMask(hay.data(), hay.data() + hay.size(), hay_sig,
                                 &stats);
          for (int32_t k = 0; k < slab_size; ++k) {
            ASSERT_EQ(batches[b].Dominated(k), oracle.dominated[k])
                << DominanceIsaName(isas[b]) << " dims=" << num_dims
                << " slab=" << slab_size << " hay_case=" << hay_case
                << " k=" << k;
          }
          // Bits past the slab must be zero in every exposed mask word.
          int64_t mask_pop = 0;
          for (const uint64_t word : batches[b].mask_words()) {
            mask_pop += __builtin_popcountll(word);
          }
          int64_t oracle_pop = 0;
          for (const bool d : oracle.dominated) oracle_pop += d ? 1 : 0;
          EXPECT_EQ(mask_pop, oracle_pop) << DominanceIsaName(isas[b]);
          EXPECT_EQ(stats.tests, oracle.tests) << DominanceIsaName(isas[b]);
          EXPECT_EQ(stats.sig_rejects, oracle.sig_rejects)
              << DominanceIsaName(isas[b]);
          EXPECT_EQ(stats.batches, 1) << DominanceIsaName(isas[b]);

          batches[b].ComputeCounts(hay.data(), hay.data() + hay.size(),
                                   &stats);
          for (int32_t k = 0; k < slab_size; ++k) {
            ASSERT_EQ(batches[b].SatisfiedCount(k), oracle.satisfied[k])
                << DominanceIsaName(isas[b]) << " dims=" << num_dims
                << " slab=" << slab_size << " hay_case=" << hay_case
                << " k=" << k;
          }
        }
      }
    }
  }
}

// Rebinding the same batch to a grown slab must not leak state from the
// previous binding (the strategies bind once, but the bench rebinds).
TEST(DominanceBatchTest, RebindResetsState) {
  std::mt19937 rng(5);
  NpvSlab slab;
  slab.Append({NpvEntry{0, 1}});
  for (const DominanceIsa isa : SupportedIsas()) {
    DominanceBatch batch(isa);
    batch.Bind(slab, 2);
    DominanceKernelStats stats;
    const std::vector<NpvEntry> hay = {NpvEntry{0, 2}, NpvEntry{1, 2}};
    batch.ComputeMask(hay.data(), hay.data() + 2,
                      SignatureOf(hay.data(), hay.data() + 2), &stats);
    EXPECT_TRUE(batch.Dominated(0));

    NpvSlab bigger;
    for (int32_t k = 0; k < 21; ++k) {
      bigger.Append(RandomVector(rng, 10, 6, 3));
    }
    batch.Bind(bigger, 10);
    EXPECT_EQ(batch.bound_size(), 21);
    const std::vector<NpvEntry> hay2 = RandomVector(rng, 10, 10, 6);
    const NpvSignature sig2 =
        SignatureOf(hay2.data(), hay2.data() + hay2.size());
    const Oracle oracle = BruteForce(bigger, hay2, sig2, 10);
    batch.ComputeMask(hay2.data(), hay2.data() + hay2.size(), sig2, &stats);
    for (int32_t k = 0; k < 21; ++k) {
      EXPECT_EQ(batch.Dominated(k), oracle.dominated[k])
          << DominanceIsaName(isa) << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace gsps
