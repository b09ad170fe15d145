#include "gsps/graph/graph_change.h"

namespace gsps {

bool ApplyInsert(const EdgeOp& op, Graph& graph) {
  const auto label_fits = [&graph](VertexId id, VertexLabel label) {
    return !graph.HasVertex(id) || graph.GetVertexLabel(id) == label;
  };
  if (op.u == op.v || !label_fits(op.u, op.u_label) ||
      !label_fits(op.v, op.v_label)) {
    return false;
  }
  // An edge already present has both endpoints, so AddEdge refusing it
  // leaves nothing created.
  graph.EnsureVertex(op.u, op.u_label);
  graph.EnsureVertex(op.v, op.v_label);
  return graph.AddEdge(op.u, op.v, op.edge_label);
}

int ApplyChange(const GraphChange& change, Graph& graph) {
  int applied = 0;
  for (const EdgeOp& op : change.ops) {
    if (op.kind != EdgeOp::Kind::kDelete) continue;
    if (graph.RemoveEdge(op.u, op.v)) ++applied;
  }
  for (const EdgeOp& op : change.ops) {
    if (op.kind == EdgeOp::Kind::kInsert && ApplyInsert(op, graph)) {
      ++applied;
    }
  }
  return applied;
}

GraphChange DiffGraphs(const Graph& from, const Graph& to) {
  GraphChange change;
  for (const VertexId u : from.VertexIds()) {
    for (const HalfEdge& half : from.Neighbors(u)) {
      if (half.to < u) continue;  // Visit each undirected edge once.
      const bool kept = to.HasVertex(u) && to.HasVertex(half.to) &&
                        to.HasEdge(u, half.to) &&
                        to.GetEdgeLabel(u, half.to) == half.label;
      if (!kept) change.ops.push_back(EdgeOp::Delete(u, half.to));
    }
  }
  for (const VertexId u : to.VertexIds()) {
    for (const HalfEdge& half : to.Neighbors(u)) {
      if (half.to < u) continue;
      const bool existed = from.HasVertex(u) && from.HasVertex(half.to) &&
                           from.HasEdge(u, half.to) &&
                           from.GetEdgeLabel(u, half.to) == half.label;
      if (!existed) {
        change.ops.push_back(EdgeOp::Insert(u, half.to, half.label,
                                            to.GetVertexLabel(u),
                                            to.GetVertexLabel(half.to)));
      }
    }
  }
  return change;
}

}  // namespace gsps
