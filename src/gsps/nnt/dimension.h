// Projection dimensions (paper Definition 4.1).
//
// A dimension is the triple (level, parent_vertex_label, child_vertex_label)
// of a tree edge: a tree edge whose child sits at depth `level` of an NNT
// contributes one count to that dimension. The DimensionTable interns
// triples to dense ids shared across all queries and streams so that node
// projected vectors are directly comparable.
//
// The full space has |labels|^2 * depth dimensions; only the ones actually
// observed are interned, which keeps vectors sparse (§IV.A).
//
// Layout: each vertex label gets a dense label id on first sight (one hash
// per new label). Each (level, parent label id) owns a row of child slots,
// open-addressed on child_id & mask and doubled when half full, so memory
// stays linear in the interned dims for any alphabet. Label ids are handed
// out in first-seen order, so a row with child ids below its capacity keeps
// each child at slot = child id and a lookup is a single load. Counting
// resolves a row once (Row) and looks children up in it (RowView::Find);
// Intern and Find hash both labels and serve queries, tests and Validate.

#ifndef GSPS_NNT_DIMENSION_H_
#define GSPS_NNT_DIMENSION_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gsps/graph/graph.h"

namespace gsps {

// Dense dimension id assigned by a DimensionTable.
using DimId = int32_t;

constexpr DimId kInvalidDim = -1;

// A projection dimension triple.
struct Dimension {
  int32_t level = 0;            // Depth of the tree edge's child (>= 1).
  VertexLabel parent_label = 0;  // Label of the tree edge's parent vertex.
  VertexLabel child_label = 0;   // Label of the tree edge's child vertex.

  friend bool operator==(const Dimension&, const Dimension&) = default;
};

// One child slot of a DimensionTable row: the child label id (-1 when
// empty) and its dim.
struct DimSlot {
  int32_t child_id = -1;
  DimId dim = kInvalidDim;
};

// Interns dimension triples to dense ids.
//
// One table is shared by every NntSet participating in a join (queries and
// streams alike); it is append-only, so existing ids stay valid as streams
// reveal new label combinations. Dimension ids follow first-intern order
// whichever entry point interns them.
class DimensionTable {
 public:
  // A resolved (level, parent label id) row. Stays valid until the next
  // insert into the same row (InternIds of that level and parent).
  class RowView {
   public:
    // The dim of (level, parent, child_id), or kInvalidDim if not interned.
    // A row is at most half full, so the probe always meets an empty slot.
    DimId Find(int32_t child_id) const {
      for (uint32_t i = static_cast<uint32_t>(child_id) & mask_;;
           i = (i + 1) & mask_) {
        if (slots_[i].child_id == child_id) return slots_[i].dim;
        if (slots_[i].child_id < 0) return kInvalidDim;
      }
    }

   private:
    friend class DimensionTable;
    RowView(const DimSlot* slots, uint32_t mask)
        : slots_(slots), mask_(mask) {}

    const DimSlot* slots_;
    uint32_t mask_;
  };

  DimensionTable() = default;

  // Not copyable: every NntSet holds a pointer to one shared table.
  DimensionTable(const DimensionTable&) = delete;
  DimensionTable& operator=(const DimensionTable&) = delete;

  // The dense id of `label`, given on first sight. One hash lookup.
  int32_t LabelId(VertexLabel label);

  // The label behind a label id. `label_id` must be valid.
  VertexLabel Label(int32_t label_id) const;

  // The row of (level, parent label id); an empty view when nothing is
  // interned there yet.
  RowView Row(int32_t level, int32_t parent_id) const {
    const size_t index = static_cast<size_t>(level) - 1;
    if (index < rows_.size() &&
        static_cast<size_t>(parent_id) < rows_[index].size()) {
      const std::vector<DimSlot>& slots =
          rows_[index][static_cast<size_t>(parent_id)].slots;
      if (!slots.empty()) {
        return RowView(slots.data(), static_cast<uint32_t>(slots.size() - 1));
      }
    }
    return RowView(&kNoSlot, 0);
  }

  // Returns the id for (level, label of parent_id, label of child_id),
  // interning it if new. Both label ids must be valid.
  DimId InternIds(int32_t level, int32_t parent_id, int32_t child_id);

  // Returns the id for the triple, interning it (and its labels) if new.
  DimId Intern(int32_t level, VertexLabel parent_label,
               VertexLabel child_label);

  // Returns the id for the triple if already interned.
  std::optional<DimId> Find(int32_t level, VertexLabel parent_label,
                            VertexLabel child_label) const;

  // The triple behind an id. `id` must be valid.
  const Dimension& Get(DimId id) const;

  // Number of interned dimensions.
  int32_t size() const { return static_cast<int32_t>(dimensions_.size()); }

  // Heap bytes of the label map, the label list, the rows and the dimension
  // list, by capacity.
  int64_t StorageBytes() const;

 private:
  // Child slots of one (level, parent label id) and how many are used.
  struct ChildRow {
    std::vector<DimSlot> slots;
    int32_t used = 0;
  };

  static constexpr DimSlot kNoSlot{};

  std::vector<Dimension> dimensions_;
  // label_ids_[label] is the label's id; labels_[id] the label.
  std::unordered_map<VertexLabel, int32_t> label_ids_;
  std::vector<VertexLabel> labels_;
  // rows_[level - 1][parent_id]: grown when a dim at a new (level, parent)
  // is interned.
  std::vector<std::vector<ChildRow>> rows_;
};

}  // namespace gsps

#endif  // GSPS_NNT_DIMENSION_H_
