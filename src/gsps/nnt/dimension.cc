#include "gsps/nnt/dimension.h"

#include "gsps/common/check.h"

namespace gsps {

DimId DimensionTable::Intern(int32_t level, VertexLabel parent_label,
                             VertexLabel child_label) {
  GSPS_DCHECK(level >= 1);
  const size_t index = static_cast<size_t>(level) - 1;
  if (index >= index_by_level_.size()) index_by_level_.resize(index + 1);
  auto [it, inserted] = index_by_level_[index].try_emplace(
      LabelKey(parent_label, child_label),
      static_cast<DimId>(dimensions_.size()));
  if (inserted) {
    dimensions_.push_back(Dimension{level, parent_label, child_label});
  }
  return it->second;
}

std::optional<DimId> DimensionTable::Find(int32_t level,
                                          VertexLabel parent_label,
                                          VertexLabel child_label) const {
  if (level < 1 || static_cast<size_t>(level) > index_by_level_.size()) {
    return std::nullopt;
  }
  const auto& index = index_by_level_[static_cast<size_t>(level) - 1];
  auto it = index.find(LabelKey(parent_label, child_label));
  if (it == index.end()) return std::nullopt;
  return it->second;
}

const Dimension& DimensionTable::Get(DimId id) const {
  GSPS_CHECK(id >= 0 && id < size());
  return dimensions_[static_cast<size_t>(id)];
}

uint64_t DimensionTable::LabelKey(VertexLabel parent_label,
                                  VertexLabel child_label) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(parent_label)) << 32) |
         static_cast<uint32_t>(child_label);
}

}  // namespace gsps
