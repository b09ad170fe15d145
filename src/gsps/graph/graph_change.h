// Graph change operations (paper Definition 2.4).
//
// A change operation is a batch of edge insertions/deletions applied
// atomically at one timestamp. Vertex insertion is modeled as the edge
// insertions touching the new vertex (each edge op carries the endpoint
// labels so a previously unseen vertex can be materialized); vertex deletion
// is the deletion of all its incident edges.

#ifndef GSPS_GRAPH_GRAPH_CHANGE_H_
#define GSPS_GRAPH_GRAPH_CHANGE_H_

#include <vector>

#include "gsps/graph/graph.h"

namespace gsps {

// One edge insertion or deletion.
struct EdgeOp {
  enum class Kind { kInsert, kDelete };

  Kind kind = Kind::kInsert;
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  // Used by insertions only.
  EdgeLabel edge_label = 0;
  VertexLabel u_label = 0;  // Label for `u` if it does not exist yet.
  VertexLabel v_label = 0;  // Label for `v` if it does not exist yet.

  static EdgeOp Insert(VertexId u, VertexId v, EdgeLabel edge_label,
                       VertexLabel u_label, VertexLabel v_label) {
    return EdgeOp{Kind::kInsert, u, v, edge_label, u_label, v_label};
  }
  static EdgeOp Delete(VertexId u, VertexId v) {
    return EdgeOp{Kind::kDelete, u, v, 0, 0, 0};
  }

  friend bool operator==(const EdgeOp&, const EdgeOp&) = default;
};

// A batch of edge operations applied at one timestamp (GC in the paper).
struct GraphChange {
  std::vector<EdgeOp> ops;

  bool empty() const { return ops.empty(); }

  friend bool operator==(const GraphChange&, const GraphChange&) = default;
};

// Applies one insertion all-or-nothing: adds the edge {u, v}, creating
// missing endpoints with the op's labels, or changes nothing — on a self
// loop, an edge already present, or an existing endpoint with another
// label. Returns true when the edge was added.
bool ApplyInsert(const EdgeOp& op, Graph& graph);

// Applies `change` to `graph`: all deletions first, then all insertions
// (the sequentialization order §III.B prescribes). Ops that do not apply
// (deleting an absent edge, an insertion ApplyInsert refuses) are skipped;
// returns the number of ops that took effect.
int ApplyChange(const GraphChange& change, Graph& graph);

// Computes a change operation that transforms `from` into `to`:
// deletions for edges only in `from`, insertions for edges only in `to`.
// Vertices present only in `to` are introduced by their incident
// insertions. Used by stream generators and by tests as a diff oracle.
GraphChange DiffGraphs(const Graph& from, const Graph& to);

}  // namespace gsps

#endif  // GSPS_GRAPH_GRAPH_CHANGE_H_
