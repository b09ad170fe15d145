// Tests for the NPV dominance kernel: signatures, the query-dim filter, the
// contiguous slab, and the raw-range dominance merge.
//
// Key properties:
//   * SignatureCovers(sig(a), sig(b)) is a necessary condition for
//     a.Dominates(b) — no dominating pair is ever signature-rejected;
//   * NpvDimRemap::Translate preserves dominance outcomes against query
//     vectors even though it drops stream-only dimensions;
//   * translation keeps every query dim under its own id, so signatures
//     are exact (bit i == dim i non-zero) when every query dim is below 64.

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

TEST(NpvDimRemapTest, TranslateKeepsFlaggedDimsUnderTheirIds) {
  NpvDimRemap remap;
  EXPECT_TRUE(remap.AddDims(Npv::FromMap({{7, 1}, {100, 2}})));
  EXPECT_TRUE(remap.AddDims(Npv::FromMap({{3, 4}, {7, 1}})));
  EXPECT_EQ(remap.num_dims(), 101);  // One past the largest flagged dim.

  std::vector<NpvEntry> out;
  // A vector over all three dims, plus a stream-only dim that is dropped.
  const NpvSignature sig =
      remap.Translate(Npv::FromMap({{3, 9}, {7, 8}, {42, 5}, {100, 7}}), &out);
  const std::vector<NpvEntry> expected = {{3, 9}, {7, 8}, {100, 7}};
  EXPECT_EQ(out, expected);
  EXPECT_EQ(sig,
            NpvSignatureBit(3) | NpvSignatureBit(7) | NpvSignatureBit(100));

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

TEST(NpvDimRemapTest, AddDimsReportsOnlyNewDims) {
  NpvDimRemap remap;
  ASSERT_TRUE(remap.AddDims(Npv::FromMap({{3, 1}, {7, 1}, {100, 1}})));
  ASSERT_EQ(remap.num_dims(), 101);

  // Dim 50 is new; 7 is already flagged. The extent holds: 50 < 100.
  EXPECT_TRUE(remap.AddDims(Npv::FromMap({{7, 2}, {50, 1}})));
  EXPECT_EQ(remap.num_dims(), 101);
  // A vector over only known dims, or over none, adds nothing.
  EXPECT_FALSE(remap.AddDims(Npv::FromMap({{3, 5}, {50, 5}})));
  EXPECT_FALSE(remap.AddDims(Npv{}));
  EXPECT_EQ(remap.num_dims(), 101);
  // A dim past the extent widens it.
  EXPECT_TRUE(remap.AddDims(Npv::FromMap({{200, 1}})));
  EXPECT_EQ(remap.num_dims(), 201);
}

// Translate looks each entry up in a table indexed by global dim. A dim
// past the largest flagged one falls off the table and is dropped (and
// ends the scan: entries ascend). After AddDims flags more dims the same
// call keeps those too, and no earlier entry changes.
TEST(NpvDimRemapTest, TranslateDropsDimsPastTheTableAndFollowsGrowth) {
  NpvDimRemap remap;
  remap.AddDims(Npv::FromMap({{3, 1}, {7, 1}, {100, 1}}));
  std::vector<NpvEntry> out;

  const Npv probe = Npv::FromMap({{3, 9}, {7, 8}, {100, 7}, {500, 5}});
  NpvSignature sig = remap.Translate(probe, &out);
  const std::vector<NpvEntry> kept = {{3, 9}, {7, 8}, {100, 7}};
  EXPECT_EQ(out, kept);
  EXPECT_EQ(sig, SignatureOf(out.data(), out.data() + out.size()));
  EXPECT_EQ(remap.Translate(Npv::FromMap({{101, 1}, {500, 5}}), &out),
            NpvSignature{0});
  EXPECT_TRUE(out.empty());

  // 50 lands between flagged dims, 600 past every one; 500 stays
  // unflagged inside the grown table.
  ASSERT_TRUE(remap.AddDims(Npv::FromMap({{50, 1}, {600, 1}})));
  ASSERT_EQ(remap.num_dims(), 601);
  sig = remap.Translate(probe, &out);
  EXPECT_EQ(out, kept);
  EXPECT_EQ(sig,
            NpvSignatureBit(3) | NpvSignatureBit(7) | NpvSignatureBit(100));
  sig = remap.Translate(Npv::FromMap({{50, 2}, {500, 5}, {600, 4}, {601, 1}}),
                        &out);
  EXPECT_EQ(out, (std::vector<NpvEntry>{{50, 2}, {600, 4}}));
  EXPECT_EQ(sig, NpvSignatureBit(50) | NpvSignatureBit(600));
}

TEST(NpvDimRemapTest, GrowthMatchesARemapBuiltFromScratch) {
  // After any sequence of growths, Translate must agree with a fresh remap
  // that saw every vector up front — growth only flags dims, never moves
  // an id.
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Npv> all;
    all.push_back(RandomNpv(rng, 25, 5, 3));
    NpvDimRemap grown;
    grown.AddDims(all.back());
    const int extra = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < extra; ++k) {
      all.push_back(RandomNpv(rng, 25, 5, 3));
      grown.AddDims(all.back());
    }
    NpvDimRemap fresh;
    for (const Npv& v : all) fresh.AddDims(v);
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
