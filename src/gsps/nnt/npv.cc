#include "gsps/nnt/npv.h"

#include <algorithm>

#include "gsps/common/check.h"

namespace gsps {

NpvSignature SignatureOf(const NpvEntry* begin, const NpvEntry* end) {
  NpvSignature sig = 0;
  for (const NpvEntry* e = begin; e != end; ++e) sig |= NpvSignatureBit(e->dim);
  return sig;
}

bool DominatesRange(const NpvEntry* hay_begin, const NpvEntry* hay_end,
                    const NpvEntry* needle_begin, const NpvEntry* needle_end) {
  const NpvEntry* hay = hay_begin;
  for (const NpvEntry* needle = needle_begin; needle != needle_end; ++needle) {
    while (hay != hay_end && hay->dim < needle->dim) ++hay;
    if (hay == hay_end || hay->dim != needle->dim ||
        hay->count < needle->count) {
      return false;
    }
  }
  return true;
}

Npv Npv::FromMap(const std::unordered_map<DimId, int32_t>& counts) {
  std::vector<NpvEntry> entries;
  entries.reserve(counts.size());
  for (const auto& [dim, count] : counts) {
    GSPS_DCHECK(count >= 0);
    if (count > 0) entries.push_back(NpvEntry{dim, count});
  }
  std::sort(entries.begin(), entries.end(),
            [](const NpvEntry& a, const NpvEntry& b) { return a.dim < b.dim; });
  return FromSortedEntries(std::move(entries));
}

Npv Npv::FromSortedEntries(std::vector<NpvEntry> entries) {
  Npv npv;
  npv.entries_ = std::move(entries);
#ifndef NDEBUG
  for (size_t i = 0; i < npv.entries_.size(); ++i) {
    GSPS_DCHECK(npv.entries_[i].count > 0);
    if (i > 0) GSPS_DCHECK(npv.entries_[i - 1].dim < npv.entries_[i].dim);
  }
#endif
  npv.signature_ =
      SignatureOf(npv.entries_.data(), npv.entries_.data() + npv.entries_.size());
  return npv;
}

int32_t Npv::ValueAt(DimId dim) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), dim,
      [](const NpvEntry& e, DimId d) { return e.dim < d; });
  if (it == entries_.end() || it->dim != dim) return 0;
  return it->count;
}

bool Npv::Dominates(const Npv& other) const {
  if (!SignatureCovers(signature_, other.signature_)) return false;
  return DominatesRange(entries_.data(), entries_.data() + entries_.size(),
                        other.entries_.data(),
                        other.entries_.data() + other.entries_.size());
}

bool NpvDimRemap::AddDims(const Npv& npv) {
  bool added = false;
  for (const NpvEntry& e : npv.entries()) {
    const size_t d = static_cast<size_t>(e.dim);
    if (d >= flagged_.size()) flagged_.resize(d + 1, 0);
    if (flagged_[d] == 0) {
      flagged_[d] = 1;
      added = true;
    }
  }
  return added;
}

NpvSignature NpvDimRemap::Translate(const Npv& npv,
                                    std::vector<NpvEntry>* out) const {
  out->clear();
  NpvSignature sig = 0;
  const size_t table_size = flagged_.size();
  for (const NpvEntry& e : npv.entries()) {
    const size_t d = static_cast<size_t>(e.dim);
    if (d >= table_size) break;
    if (flagged_[d] == 0) continue;
    out->push_back(e);
    sig |= NpvSignatureBit(e.dim);
  }
  return sig;
}

int32_t NpvSlab::Append(const std::vector<NpvEntry>& entries) {
  const int32_t n = static_cast<int32_t>(entries.size());
  // Best-fit reuse of a freed slot wide enough for the new vector: the
  // first n entries of its region are overwritten in place. No array
  // resize, no allocation. Best-fit (not first-fit) so removing a query and
  // re-adding its identical vectors lands each one back in an
  // exact-capacity slot — first-fit would let a narrow vector squat in a
  // wide slot and push the wide vector to tail growth, creeping the slab
  // under steady churn.
  size_t best = free_slots_.size();
  for (size_t f = 0; f < free_slots_.size(); ++f) {
    const Ref& ref = refs_[static_cast<size_t>(free_slots_[f])];
    if (ref.capacity < n) continue;
    if (best == free_slots_.size() ||
        ref.capacity < refs_[static_cast<size_t>(free_slots_[best])].capacity) {
      best = f;
      if (ref.capacity == n) break;
    }
  }
  if (best != free_slots_.size()) {
    const int32_t slot = free_slots_[best];
    Ref& ref = refs_[static_cast<size_t>(slot)];
    std::copy(entries.begin(), entries.end(),
              entries_.begin() + ref.offset);
    ref.size = n;
    ref.live = true;
    sigs_[static_cast<size_t>(slot)] = SignatureOf(
        entries_.data() + ref.offset, entries_.data() + ref.offset + n);
    free_slots_[best] = free_slots_.back();
    free_slots_.pop_back();
    live_words_[static_cast<size_t>(slot) / 64] |=
        uint64_t{1} << (static_cast<uint32_t>(slot) % 64);
    ++num_live_;
    return slot;
  }

  // Tail growth: drop the previous signature padding so real signatures
  // stay indexed by slot, then re-pad with all-ones sentinels.
  sigs_.resize(refs_.size());
  Ref ref;
  ref.offset = static_cast<int32_t>(entries_.size());
  ref.size = n;
  ref.capacity = n;
  ref.live = true;
  entries_.insert(entries_.end(), entries.begin(), entries.end());
  sigs_.push_back(SignatureOf(entries_.data() + ref.offset,
                              entries_.data() + ref.offset + ref.size));
  refs_.push_back(ref);
  const size_t padded_sigs =
      (sigs_.size() + kNpvSlabSigPad - 1) / kNpvSlabSigPad * kNpvSlabSigPad;
  sigs_.resize(padded_sigs, ~NpvSignature{0});
  live_words_.resize((padded_sigs + 63) / 64, 0);
  const int32_t slot = static_cast<int32_t>(refs_.size()) - 1;
  live_words_[static_cast<size_t>(slot) / 64] |=
      uint64_t{1} << (static_cast<uint32_t>(slot) % 64);
  ++num_live_;
  return slot;
}

void NpvSlab::Remove(int32_t i) {
  Ref& ref = refs_[static_cast<size_t>(i)];
  GSPS_CHECK_MSG(ref.live, "NpvSlab::Remove on a freed slot");
  sigs_[static_cast<size_t>(i)] = ~NpvSignature{0};
  ref.size = 0;
  ref.live = false;
  free_slots_.push_back(i);
  live_words_[static_cast<size_t>(i) / 64] &=
      ~(uint64_t{1} << (static_cast<uint32_t>(i) % 64));
  --num_live_;
}

void NpvSlab::Clear() {
  entries_.clear();
  sigs_.clear();
  refs_.clear();
  free_slots_.clear();
  live_words_.clear();
  num_live_ = 0;
}

void NpvSlab::CheckKernelLayout() const {
  GSPS_CHECK(reinterpret_cast<uintptr_t>(sigs_.data()) % kNpvSlabAlignment ==
             0);
  GSPS_CHECK(sigs_.size() % kNpvSlabSigPad == 0);
  GSPS_CHECK(live_words_.size() >= (sigs_.size() + 63) / 64);
  // Slot regions are back-to-back by construction and cover the entry
  // array exactly.
  size_t covered = 0;
  int32_t live_count = 0;
  for (size_t i = 0; i < refs_.size(); ++i) {
    const Ref& ref = refs_[i];
    GSPS_CHECK(static_cast<size_t>(ref.offset) == covered);
    GSPS_CHECK(ref.size >= 0 && ref.size <= ref.capacity);
    GSPS_CHECK(ref.live || ref.size == 0);
    if (ref.live) {
      ++live_count;
    } else {
      GSPS_CHECK(sigs_[i] == ~NpvSignature{0});
    }
    const bool bit = (live_words_[i / 64] >> (i % 64)) & 1u;
    GSPS_CHECK(bit == ref.live);
    covered += static_cast<size_t>(ref.capacity);
  }
  GSPS_CHECK(covered == entries_.size());
  GSPS_CHECK(live_count == num_live_);
  for (size_t i = refs_.size(); i < sigs_.size(); ++i) {
    GSPS_CHECK(sigs_[i] == ~NpvSignature{0});
  }
  for (size_t i = refs_.size(); i < live_words_.size() * 64; ++i) {
    const bool bit = (live_words_[i / 64] >> (i % 64)) & 1u;
    GSPS_CHECK(!bit);
  }
}

}  // namespace gsps
