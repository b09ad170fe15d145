#include "gsps/nnt/dimension.h"

#include <algorithm>
#include <utility>

#include "gsps/common/check.h"

namespace gsps {
namespace {

// Smallest row: holds two children before it doubles.
constexpr size_t kMinRowSlots = 4;

// Places `slot` at the first free probe position of `slots`.
void Place(std::vector<DimSlot>& slots, const DimSlot& slot) {
  const size_t mask = slots.size() - 1;
  size_t i = static_cast<uint32_t>(slot.child_id) & mask;
  while (slots[i].child_id >= 0) i = (i + 1) & mask;
  slots[i] = slot;
}

}  // namespace

int32_t DimensionTable::LabelId(VertexLabel label) {
  auto [it, inserted] =
      label_ids_.try_emplace(label, static_cast<int32_t>(labels_.size()));
  if (inserted) labels_.push_back(label);
  return it->second;
}

VertexLabel DimensionTable::Label(int32_t label_id) const {
  GSPS_CHECK(label_id >= 0 &&
             static_cast<size_t>(label_id) < labels_.size());
  return labels_[static_cast<size_t>(label_id)];
}

DimId DimensionTable::InternIds(int32_t level, int32_t parent_id,
                                int32_t child_id) {
  const DimId found = Row(level, parent_id).Find(child_id);
  if (found != kInvalidDim) return found;
  GSPS_CHECK(level >= 1);
  const VertexLabel parent_label = Label(parent_id);
  const VertexLabel child_label = Label(child_id);
  const size_t index = static_cast<size_t>(level) - 1;
  if (index >= rows_.size()) rows_.resize(index + 1);
  std::vector<ChildRow>& level_rows = rows_[index];
  if (static_cast<size_t>(parent_id) >= level_rows.size()) {
    level_rows.resize(labels_.size());
  }
  ChildRow& row = level_rows[static_cast<size_t>(parent_id)];
  if (2 * static_cast<size_t>(row.used + 1) > row.slots.size()) {
    std::vector<DimSlot> grown(std::max(kMinRowSlots, 2 * row.slots.size()));
    for (const DimSlot& slot : row.slots) {
      if (slot.child_id >= 0) Place(grown, slot);
    }
    row.slots = std::move(grown);
  }
  const DimId dim = size();
  Place(row.slots, DimSlot{child_id, dim});
  ++row.used;
  dimensions_.push_back(Dimension{level, parent_label, child_label});
  return dim;
}

DimId DimensionTable::Intern(int32_t level, VertexLabel parent_label,
                             VertexLabel child_label) {
  const int32_t parent_id = LabelId(parent_label);
  return InternIds(level, parent_id, LabelId(child_label));
}

std::optional<DimId> DimensionTable::Find(int32_t level,
                                          VertexLabel parent_label,
                                          VertexLabel child_label) const {
  const auto parent = label_ids_.find(parent_label);
  const auto child = label_ids_.find(child_label);
  if (parent == label_ids_.end() || child == label_ids_.end()) {
    return std::nullopt;
  }
  const DimId dim = Row(level, parent->second).Find(child->second);
  if (dim == kInvalidDim) return std::nullopt;
  return dim;
}

const Dimension& DimensionTable::Get(DimId id) const {
  GSPS_CHECK(id >= 0 && id < size());
  return dimensions_[static_cast<size_t>(id)];
}

int64_t DimensionTable::StorageBytes() const {
  // A label-map node holds its next pointer and the (label, id) pair.
  size_t bytes =
      label_ids_.bucket_count() * sizeof(void*) +
      label_ids_.size() *
          (sizeof(void*) + sizeof(std::pair<const VertexLabel, int32_t>)) +
      labels_.capacity() * sizeof(VertexLabel) +
      rows_.capacity() * sizeof(std::vector<ChildRow>) +
      dimensions_.capacity() * sizeof(Dimension);
  for (const std::vector<ChildRow>& level_rows : rows_) {
    bytes += level_rows.capacity() * sizeof(ChildRow);
    for (const ChildRow& row : level_rows) {
      bytes += row.slots.capacity() * sizeof(DimSlot);
    }
  }
  return static_cast<int64_t>(bytes);
}

}  // namespace gsps
