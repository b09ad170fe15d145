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

// Interns dimension triples to dense ids.
//
// One table is shared by every NntSet participating in a join (queries and
// streams alike); it is append-only, so existing ids stay valid as streams
// reveal new label combinations.
class DimensionTable {
 public:
  DimensionTable() = default;

  // Not copyable: every NntSet holds a pointer to one shared table.
  DimensionTable(const DimensionTable&) = delete;
  DimensionTable& operator=(const DimensionTable&) = delete;

  // Returns the id for the triple, interning it if new.
  DimId Intern(int32_t level, VertexLabel parent_label,
               VertexLabel child_label);

  // Returns the id for the triple if already interned.
  std::optional<DimId> Find(int32_t level, VertexLabel parent_label,
                            VertexLabel child_label) const;

  // The triple behind an id. `id` must be valid.
  const Dimension& Get(DimId id) const;

  // Number of interned dimensions.
  int32_t size() const { return static_cast<int32_t>(dimensions_.size()); }

 private:
  // The two labels packed exactly, for any int32 values.
  static uint64_t LabelKey(VertexLabel parent_label, VertexLabel child_label);

  std::vector<Dimension> dimensions_;
  // One map per level (index level - 1), keyed by LabelKey: one hash
  // lookup per Intern.
  std::vector<std::unordered_map<uint64_t, DimId>> index_by_level_;
};

}  // namespace gsps

#endif  // GSPS_NNT_DIMENSION_H_
