// Labeled undirected graph (paper Definition 2.1).
//
// Vertices carry integer labels and are identified by dense non-negative
// ids; edges are unordered pairs with an integer edge label. Graphs in this
// library are small (tens to hundreds of vertices — chemical compounds,
// proximity snapshots, traffic patterns), change frequently, and are scanned
// constantly, so the representation is a dense vertex table with sorted
// adjacency vectors: cache-friendly scans, O(log degree) edge lookups, and
// cheap copies.

#ifndef GSPS_GRAPH_GRAPH_H_
#define GSPS_GRAPH_GRAPH_H_

#include <cstdint>
#include <vector>

namespace gsps {

// Vertex identifier. Dense and non-negative within a graph.
using VertexId = int32_t;
// Vertex label (e.g. atom type, device class).
using VertexLabel = int32_t;
// Edge label (e.g. bond type). Streams in the paper use a single edge label.
using EdgeLabel = int32_t;

constexpr VertexId kInvalidVertex = -1;

// One directed half of an undirected edge, as stored in adjacency lists.
struct HalfEdge {
  VertexId to = kInvalidVertex;
  EdgeLabel label = 0;

  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
};

// An undirected labeled graph.
//
// Vertex ids index a dense table; removed vertices leave tombstones so that
// ids stay stable across stream updates (NntSet keys its rows by vertex id).
// All mutators keep the adjacency lists sorted by neighbor id.
class Graph {
 public:
  Graph() = default;

  // Copyable and movable: experiment harnesses snapshot stream graphs.
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  // Adds a vertex with the given label and returns its id.
  VertexId AddVertex(VertexLabel label);

  // Ensures a vertex with id `id` exists with the given label. Grows the
  // vertex table if needed. Returns false if the vertex already exists with
  // a different label (labels are immutable, Definition 2.1).
  bool EnsureVertex(VertexId id, VertexLabel label);

  // Removes a vertex and all incident edges. Returns false if absent.
  bool RemoveVertex(VertexId id);

  // Adds the undirected edge {u, v} with the given label. Returns false and
  // leaves the graph unchanged if either endpoint is absent, u == v, or the
  // edge already exists.
  bool AddEdge(VertexId u, VertexId v, EdgeLabel label);

  // Removes the undirected edge {u, v}. Returns false if absent.
  bool RemoveEdge(VertexId u, VertexId v);

  // True if vertex `id` exists.
  bool HasVertex(VertexId id) const;

  // True if the undirected edge {u, v} exists.
  bool HasEdge(VertexId u, VertexId v) const;

  // Returns the label of the edge {u, v}; the edge must exist.
  EdgeLabel GetEdgeLabel(VertexId u, VertexId v) const;

  // Returns the label of vertex `id`; the vertex must exist.
  VertexLabel GetVertexLabel(VertexId id) const;

  // Sorted adjacency list of `id`; the vertex must exist.
  const std::vector<HalfEdge>& Neighbors(VertexId id) const;

  // Degree of `id`; the vertex must exist.
  int Degree(VertexId id) const;

  // Number of live vertices.
  int NumVertices() const { return num_vertices_; }

  // Number of undirected edges.
  int NumEdges() const { return num_edges_; }

  // One past the largest vertex id ever allocated (table size). Iterate ids
  // in [0, VertexIdBound()) and filter with HasVertex().
  VertexId VertexIdBound() const {
    return static_cast<VertexId>(vertices_.size());
  }

  // Ids of all live vertices, ascending.
  std::vector<VertexId> VertexIds() const;

  // Maximum degree over live vertices (0 for an empty graph).
  int MaxDegree() const;

  // True if the live vertices form a single connected component. An empty
  // graph is considered connected.
  bool IsConnected() const;

  // Structural equality: same live vertex ids, labels, and labeled edges.
  friend bool operator==(const Graph& a, const Graph& b);

 private:
  struct VertexSlot {
    bool present = false;
    VertexLabel label = 0;
    std::vector<HalfEdge> adjacency;
  };

  // Returns the adjacency position of `v` in `u`'s list, or -1.
  int FindHalfEdge(VertexId u, VertexId v) const;

  std::vector<VertexSlot> vertices_;
  int num_vertices_ = 0;
  int num_edges_ = 0;
};

}  // namespace gsps

#endif  // GSPS_GRAPH_GRAPH_H_
