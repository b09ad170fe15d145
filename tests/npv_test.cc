// Tests for the NPV dominance kernel: signatures, the dense dim remap, the
// contiguous slab, and the raw-range dominance merge.
//
// Key properties:
//   * SignatureCovers(sig(a), sig(b)) is a necessary condition for
//     a.Dominates(b) — no dominating pair is ever signature-rejected;
//   * NpvDimRemap::Translate preserves dominance outcomes against query
//     vectors even though it drops stream-only dimensions;
//   * translated signatures are exact (bit i == dense dim i non-zero) when
//     the query dim set fits in 64 dims.

#include "gsps/nnt/npv.h"

#include <gtest/gtest.h>

#include <iterator>
#include <unordered_map>
#include <vector>

#include "gsps/common/random.h"

namespace gsps {
namespace {

// Naive reference dominance: every coordinate of `needle` must be <= the
// matching coordinate of `hay`.
bool NaiveDominates(const Npv& hay, const Npv& needle) {
  for (const NpvEntry& e : needle.entries()) {
    if (hay.ValueAt(e.dim) < e.count) return false;
  }
  return true;
}

Npv RandomNpv(Rng& rng, int max_dim, int max_nnz, int max_count) {
  std::unordered_map<DimId, int32_t> counts;
  const int nnz = static_cast<int>(rng.UniformInt(0, max_nnz));
  for (int k = 0; k < nnz; ++k) {
    counts[static_cast<DimId>(rng.UniformInt(0, max_dim))] =
        static_cast<int32_t>(rng.UniformInt(1, max_count));
  }
  return Npv::FromMap(counts);
}

TEST(NpvSignatureTest, BitPerDimModulo64) {
  EXPECT_EQ(NpvSignatureBit(0), NpvSignature{1});
  EXPECT_EQ(NpvSignatureBit(63), NpvSignature{1} << 63);
  // Dims wrap modulo 64, so distant dims share bits (conservative, still a
  // necessary condition).
  EXPECT_EQ(NpvSignatureBit(64), NpvSignatureBit(0));
  EXPECT_EQ(NpvSignatureBit(130), NpvSignatureBit(2));
}

TEST(NpvSignatureTest, CoversIsSupersetTest) {
  EXPECT_TRUE(SignatureCovers(0b111, 0b101));
  EXPECT_TRUE(SignatureCovers(0b101, 0b101));
  EXPECT_FALSE(SignatureCovers(0b101, 0b111));
  // Anything covers the empty signature; the empty covers only itself.
  EXPECT_TRUE(SignatureCovers(0, 0));
  EXPECT_TRUE(SignatureCovers(0b1, 0));
  EXPECT_FALSE(SignatureCovers(0, 0b1));
}

TEST(NpvSignatureTest, MaintainedByConstructors) {
  const Npv a = Npv::FromMap({{3, 1}, {70, 2}});
  EXPECT_EQ(a.signature(), NpvSignatureBit(3) | NpvSignatureBit(70));

  const Npv b = Npv::FromSortedEntries({{1, 5}, {64, 1}});
  EXPECT_EQ(b.signature(), NpvSignatureBit(1) | NpvSignatureBit(64));

  const Npv c;
  EXPECT_EQ(c.signature(), NpvSignature{0});
}

TEST(NpvSignatureTest, SignatureOfRange) {
  const std::vector<NpvEntry> entries = {{0, 1}, {5, 2}, {66, 3}};
  EXPECT_EQ(SignatureOf(entries.data(), entries.data() + entries.size()),
            NpvSignatureBit(0) | NpvSignatureBit(5) | NpvSignatureBit(66));
  EXPECT_EQ(SignatureOf(entries.data(), entries.data()), NpvSignature{0});
}

TEST(NpvDominatesTest, RangeKernelMatchesNaive) {
  Rng rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    const Npv hay = RandomNpv(rng, 12, 5, 4);
    const Npv needle = RandomNpv(rng, 12, 5, 4);
    const bool expected = NaiveDominates(hay, needle);
    EXPECT_EQ(hay.Dominates(needle), expected);
    EXPECT_EQ(DominatesRange(hay.entries().data(),
                             hay.entries().data() + hay.entries().size(),
                             needle.entries().data(),
                             needle.entries().data() + needle.entries().size()),
              expected);
    // The fast path must never reject a dominating pair.
    if (expected) {
      EXPECT_TRUE(SignatureCovers(hay.signature(), needle.signature()));
    }
  }
}

TEST(NpvDimRemapTest, DenseIdsAreAscendingAndExact) {
  NpvDimRemap remap;
  remap.AddDims(Npv::FromMap({{7, 1}, {100, 2}}));
  remap.AddDims(Npv::FromMap({{3, 4}, {7, 1}}));
  EXPECT_FALSE(remap.sealed());
  remap.Seal();
  ASSERT_TRUE(remap.sealed());
  EXPECT_EQ(remap.num_dims(), 3);  // {3, 7, 100} -> {0, 1, 2}.

  std::vector<NpvEntry> out;
  // A vector over all three dims, plus a stream-only dim that is dropped.
  const NpvSignature sig =
      remap.Translate(Npv::FromMap({{3, 9}, {7, 8}, {42, 5}, {100, 7}}), &out);
  const std::vector<NpvEntry> expected = {{0, 9}, {1, 8}, {2, 7}};
  EXPECT_EQ(out, expected);
  EXPECT_EQ(sig,
            NpvSignatureBit(0) | NpvSignatureBit(1) | NpvSignatureBit(2));

  // A vector touching none of the query dims translates to nothing.
  EXPECT_EQ(remap.Translate(Npv::FromMap({{42, 5}}), &out), NpvSignature{0});
  EXPECT_TRUE(out.empty());
}

TEST(NpvDimRemapTest, TranslationPreservesDominanceAgainstQueryVectors) {
  // Dominance of a stream vector over a *query* vector only inspects the
  // query's non-zero dims, so dropping stream-only dims must not change the
  // verdict. Randomized cross-check.
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Npv> query_vectors;
    NpvDimRemap remap;
    const int nq = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < nq; ++i) {
      query_vectors.push_back(RandomNpv(rng, 20, 4, 3));
      remap.AddDims(query_vectors.back());
    }
    remap.Seal();

    std::vector<NpvEntry> translated_query;
    std::vector<NpvEntry> translated_stream;
    const Npv stream_vector = RandomNpv(rng, 25, 6, 4);
    const NpvSignature stream_sig =
        remap.Translate(stream_vector, &translated_stream);
    for (const Npv& q : query_vectors) {
      const NpvSignature query_sig = remap.Translate(q, &translated_query);
      const bool expected = NaiveDominates(stream_vector, q);
      // The signature reject composed with the range merge — exactly the
      // strategies' hot-path sequence — must reproduce full dominance.
      const bool fast =
          SignatureCovers(stream_sig, query_sig) &&
          DominatesRange(
              translated_stream.data(),
              translated_stream.data() + translated_stream.size(),
              translated_query.data(),
              translated_query.data() + translated_query.size());
      EXPECT_EQ(fast, expected) << "trial " << trial;
    }
  }
}

TEST(NpvDimRemapTest, GrowDimsExtendsTheDimSetAfterSeal) {
  NpvDimRemap remap;
  remap.AddDims(Npv::FromMap({{3, 1}, {7, 1}, {100, 1}}));
  remap.Seal();
  ASSERT_EQ(remap.num_dims(), 3);  // {3, 7, 100}.

  // Dim 50 is new; 7 is already mapped.
  std::vector<DimId> old_to_new;
  ASSERT_TRUE(remap.GrowDims(Npv::FromMap({{7, 2}, {50, 1}}), &old_to_new));
  EXPECT_EQ(remap.num_dims(), 4);  // {3, 7, 50, 100}.
  const std::vector<DimId> expected_map = {0, 1, 3};
  EXPECT_EQ(old_to_new, expected_map);

  // A vector over only known dims does not grow and leaves the map alone.
  old_to_new = {42};
  EXPECT_FALSE(remap.GrowDims(Npv::FromMap({{3, 5}, {50, 5}}), &old_to_new));
  EXPECT_EQ(remap.num_dims(), 4);
  EXPECT_EQ(old_to_new, std::vector<DimId>{42});
  EXPECT_FALSE(remap.GrowDims(Npv{}, &old_to_new));
}

// Translate looks each entry up in a table indexed by global dim. A dim
// past the largest registered one falls off the table and is dropped (and
// ends the scan: entries ascend). After GrowDims the same call maps
// through the new dense ids, and the returned signature is the one over
// them.
TEST(NpvDimRemapTest, TranslateDropsDimsPastTheTableAndFollowsGrowth) {
  NpvDimRemap remap;
  remap.AddDims(Npv::FromMap({{3, 1}, {7, 1}, {100, 1}}));
  remap.Seal();
  std::vector<NpvEntry> out;

  const Npv probe = Npv::FromMap({{3, 9}, {7, 8}, {100, 7}, {500, 5}});
  NpvSignature sig = remap.Translate(probe, &out);
  EXPECT_EQ(out, (std::vector<NpvEntry>{{0, 9}, {1, 8}, {2, 7}}));
  EXPECT_EQ(sig, SignatureOf(out.data(), out.data() + out.size()));
  EXPECT_EQ(remap.Translate(Npv::FromMap({{101, 1}, {500, 5}}), &out),
            NpvSignature{0});
  EXPECT_TRUE(out.empty());

  // 50 lands between registered dims, 600 past every one; 500 stays
  // unregistered inside the grown table.
  std::vector<DimId> old_to_new;
  ASSERT_TRUE(remap.GrowDims(Npv::FromMap({{50, 1}, {600, 1}}), &old_to_new));
  EXPECT_EQ(old_to_new, (std::vector<DimId>{0, 1, 3}));
  ASSERT_EQ(remap.num_dims(), 5);  // {3, 7, 50, 100, 600}.
  sig = remap.Translate(probe, &out);
  EXPECT_EQ(out, (std::vector<NpvEntry>{{0, 9}, {1, 8}, {3, 7}}));
  EXPECT_EQ(sig, NpvSignatureBit(0) | NpvSignatureBit(1) | NpvSignatureBit(3));
  sig = remap.Translate(Npv::FromMap({{50, 2}, {500, 5}, {600, 4}, {601, 1}}),
                        &out);
  EXPECT_EQ(out, (std::vector<NpvEntry>{{2, 2}, {4, 4}}));
  EXPECT_EQ(sig, NpvSignatureBit(2) | NpvSignatureBit(4));
}

TEST(NpvDimRemapTest, GrowDimsMapIsStrictlyIncreasing) {
  Rng rng(20260808);
  for (int trial = 0; trial < 300; ++trial) {
    NpvDimRemap remap;
    const Npv base = RandomNpv(rng, 30, 6, 3);
    remap.AddDims(base);
    remap.Seal();
    const int32_t before = remap.num_dims();
    std::vector<DimId> old_to_new;
    if (!remap.GrowDims(RandomNpv(rng, 40, 6, 3), &old_to_new)) continue;
    ASSERT_EQ(static_cast<int32_t>(old_to_new.size()), before);
    for (size_t k = 0; k < old_to_new.size(); ++k) {
      if (k > 0) {
        EXPECT_GT(old_to_new[k], old_to_new[k - 1]);
      }
      EXPECT_GE(old_to_new[k], static_cast<DimId>(k));
      EXPECT_LT(old_to_new[k], remap.num_dims());
    }
  }
}

TEST(NpvDimRemapTest, GrowthMatchesARemapBuiltFromScratch) {
  // After any sequence of growths, Translate must agree with a fresh remap
  // that saw every vector up front — growth only renumbers, never changes
  // which dims map or their relative order.
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Npv> all;
    all.push_back(RandomNpv(rng, 25, 5, 3));
    NpvDimRemap grown;
    grown.AddDims(all.back());
    grown.Seal();
    std::vector<DimId> old_to_new;
    const int extra = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < extra; ++k) {
      all.push_back(RandomNpv(rng, 25, 5, 3));
      grown.GrowDims(all.back(), &old_to_new);
    }
    NpvDimRemap fresh;
    for (const Npv& v : all) fresh.AddDims(v);
    fresh.Seal();
    ASSERT_EQ(grown.num_dims(), fresh.num_dims());

    std::vector<NpvEntry> got;
    std::vector<NpvEntry> want;
    const Npv probe = RandomNpv(rng, 30, 8, 4);
    const NpvSignature got_sig = grown.Translate(probe, &got);
    const NpvSignature want_sig = fresh.Translate(probe, &want);
    EXPECT_EQ(got, want) << "trial " << trial;
    EXPECT_EQ(got_sig, want_sig) << "trial " << trial;
  }
}

TEST(NpvDimRemapTest, OldTranslationsStayValidUnderTheGrowthMap) {
  // The contract that lets strategies rewrite already-translated entries in
  // place: dense id d before growth refers to the same source dim as
  // old_to_new[d] after.
  NpvDimRemap remap;
  const Npv q0 = Npv::FromMap({{2, 4}, {9, 1}, {17, 6}});
  remap.AddDims(q0);
  remap.Seal();
  std::vector<NpvEntry> before;
  remap.Translate(q0, &before);

  std::vector<DimId> old_to_new;
  ASSERT_TRUE(remap.GrowDims(Npv::FromMap({{1, 1}, {12, 1}}), &old_to_new));

  std::vector<NpvEntry> after;
  remap.Translate(q0, &after);
  ASSERT_EQ(before.size(), after.size());
  for (size_t k = 0; k < before.size(); ++k) {
    EXPECT_EQ(old_to_new[static_cast<size_t>(before[k].dim)], after[k].dim);
    EXPECT_EQ(before[k].count, after[k].count);
  }
}

TEST(NpvSlabTest, StoresVectorsContiguouslyWithSignatures) {
  NpvSlab slab;
  EXPECT_EQ(slab.size(), 0);
  const std::vector<NpvEntry> v0 = {{0, 1}, {2, 3}};
  const std::vector<NpvEntry> v1 = {};
  const std::vector<NpvEntry> v2 = {{1, 7}};
  EXPECT_EQ(slab.Append(v0), 0);
  EXPECT_EQ(slab.Append(v1), 1);
  EXPECT_EQ(slab.Append(v2), 2);
  ASSERT_EQ(slab.size(), 3);

  EXPECT_EQ(slab.nnz(0), 2);
  EXPECT_EQ(slab.nnz(1), 0);
  EXPECT_EQ(slab.nnz(2), 1);
  EXPECT_EQ(std::vector<NpvEntry>(slab.begin(0), slab.end(0)), v0);
  EXPECT_EQ(slab.begin(1), slab.end(1));
  EXPECT_EQ(std::vector<NpvEntry>(slab.begin(2), slab.end(2)), v2);
  EXPECT_EQ(slab.signature(0), NpvSignatureBit(0) | NpvSignatureBit(2));
  EXPECT_EQ(slab.signature(1), NpvSignature{0});
  EXPECT_EQ(slab.signature(2), NpvSignatureBit(1));
}

TEST(NpvSlabTest, RemoveFreesTheSlotAndAppendReusesIt) {
  NpvSlab slab;
  const std::vector<NpvEntry> v0 = {{0, 1}, {2, 3}};
  const std::vector<NpvEntry> v1 = {{1, 7}, {3, 2}};
  const std::vector<NpvEntry> v2 = {{4, 5}};
  slab.Append(v0);
  slab.Append(v1);
  slab.Append(v2);
  slab.CheckKernelLayout();
  ASSERT_EQ(slab.num_live(), 3);

  slab.Remove(1);
  slab.CheckKernelLayout();
  EXPECT_EQ(slab.size(), 3);  // Slot indices stay valid.
  EXPECT_EQ(slab.num_live(), 2);
  EXPECT_FALSE(slab.live(1));
  EXPECT_EQ(slab.nnz(1), 0);
  // Freed slot: all-ones signature sentinel, live bit cleared; its
  // neighbours are untouched.
  EXPECT_EQ(slab.signature(1), ~NpvSignature{0});
  EXPECT_EQ(slab.live_words()[0] & 0b111u, 0b101u);
  EXPECT_EQ(std::vector<NpvEntry>(slab.begin(0), slab.end(0)), v0);
  EXPECT_EQ(std::vector<NpvEntry>(slab.begin(2), slab.end(2)), v2);

  // A vector that fits the freed capacity reuses the slot in place.
  const std::vector<NpvEntry> v3 = {{5, 9}};
  EXPECT_EQ(slab.Append(v3), 1);
  slab.CheckKernelLayout();
  EXPECT_EQ(slab.size(), 3);
  EXPECT_EQ(slab.num_live(), 3);
  EXPECT_TRUE(slab.live(1));
  EXPECT_EQ(std::vector<NpvEntry>(slab.begin(1), slab.end(1)), v3);
  EXPECT_EQ(slab.signature(1), NpvSignatureBit(5));
}

TEST(NpvSlabTest, AppendTooWideForAnyFreeSlotGrowsTheTail) {
  NpvSlab slab;
  slab.Append({{0, 1}, {1, 1}});  // Capacity 2.
  slab.Append({{2, 1}});
  slab.Remove(0);
  // Three entries cannot live in the freed two-entry region.
  const std::vector<NpvEntry> wide = {{0, 1}, {1, 1}, {2, 1}};
  EXPECT_EQ(slab.Append(wide), 2);
  slab.CheckKernelLayout();
  EXPECT_EQ(slab.size(), 3);
  EXPECT_FALSE(slab.live(0));  // Slot 0 is still free for a narrow vector.
  EXPECT_EQ(std::vector<NpvEntry>(slab.begin(2), slab.end(2)), wide);
  EXPECT_EQ(slab.Append({{7, 2}}), 0);
  slab.CheckKernelLayout();
}

TEST(NpvSlabTest, RemapDimsRewritesLiveSlotsOnly) {
  NpvSlab slab;
  slab.Append({{0, 4}, {2, 1}});
  slab.Append({{1, 6}});
  slab.Remove(1);
  // Growth inserted a dim between old dense ids 1 and 2: {0->0, 1->1, 2->3}.
  const std::vector<DimId> old_to_new = {0, 1, 3};
  slab.RemapDims(old_to_new);
  slab.CheckKernelLayout();
  const std::vector<NpvEntry> expected = {{0, 4}, {3, 1}};
  EXPECT_EQ(std::vector<NpvEntry>(slab.begin(0), slab.end(0)), expected);
  EXPECT_EQ(slab.signature(0), NpvSignatureBit(0) | NpvSignatureBit(3));
  EXPECT_EQ(slab.signature(1), ~NpvSignature{0});  // Freed sentinel intact.
}

TEST(NpvSlabTest, ClearKeepsNothingButPassesLayout) {
  NpvSlab slab;
  slab.Append({{0, 1}});
  slab.Append({{1, 2}});
  slab.Remove(0);
  slab.Clear();
  slab.CheckKernelLayout();
  EXPECT_EQ(slab.size(), 0);
  EXPECT_EQ(slab.num_live(), 0);
  EXPECT_EQ(slab.Append({{2, 3}}), 0);
  slab.CheckKernelLayout();
}

TEST(NpvSlabTest, RandomChurnAgainstAShadowModel) {
  // Interleaved append/remove churn cross-checked against a plain map of
  // what should be live, with the kernel-layout contract asserted after
  // every operation.
  Rng rng(20260809);
  NpvSlab slab;
  std::unordered_map<int32_t, std::vector<NpvEntry>> shadow;
  for (int op = 0; op < 800; ++op) {
    slab.CheckKernelLayout();
    const bool remove = !shadow.empty() && rng.UniformInt(0, 2) == 0;
    if (remove) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<int>(shadow.size()) - 1)));
      slab.Remove(it->first);
      shadow.erase(it);
    } else {
      const Npv v = RandomNpv(rng, 12, 6, 5);
      const int32_t slot = slab.Append(v.entries());
      ASSERT_TRUE(shadow.emplace(slot, v.entries()).second);
    }
    ASSERT_EQ(slab.num_live(), static_cast<int32_t>(shadow.size()));
    for (const auto& [slot, entries] : shadow) {
      ASSERT_TRUE(slab.live(slot));
      ASSERT_EQ(std::vector<NpvEntry>(slab.begin(slot), slab.end(slot)),
                entries);
      ASSERT_EQ(slab.signature(slot),
                SignatureOf(entries.data(), entries.data() + entries.size()));
    }
  }
  slab.CheckKernelLayout();
}

}  // namespace
}  // namespace gsps
