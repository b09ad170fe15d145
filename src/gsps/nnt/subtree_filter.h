// Rooted subtree embedding between Node-Neighbor Trees — the filtering tier
// the paper introduces NNTs for (§III) and then relaxes because "subtree
// isomorphism verification is still expensive" (§IV).
//
// A query NNT embeds into a data NNT when there is an injective mapping of
// tree nodes that maps root to root, preserves parent/child edges, vertex
// labels, and edge labels. Implemented with the classic recursive scheme:
// a query node can sit at a data node iff their labels match and the query
// node's child subtrees admit a left-perfect bipartite matching into the
// data node's child subtrees (memoized per node pair).
//
// This tier is the only consumer of materialized trees: the streaming
// engine reads only NPVs, which NntSet counts without storing any tree. So
// the tree here is built once from a graph and never changes.
//
// Implementing the full tier completes the filter hierarchy the test suite
// verifies end-to-end:
//
//   subgraph isomorphic  =>  NNT subtree-embeddable  =>  branch compatible
//                        =>  NPV dominated,
//
// and lets the ablation bench quantify exactly how much pruning each
// relaxation gives up for how much speed (bench/ablation_filters).

#ifndef GSPS_NNT_SUBTREE_FILTER_H_
#define GSPS_NNT_SUBTREE_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gsps/graph/graph.h"

namespace gsps {

// Index of a node within one tree; the root is node 0.
using TreeNodeId = int32_t;

// One tree node: the endpoint of one edge-simple path from the root.
struct TreeNode {
  VertexId vertex = kInvalidVertex;  // Graph vertex the path ends at.
  VertexLabel vertex_label = 0;
  EdgeLabel edge_label = 0;  // Label of the edge from the parent.
  TreeNodeId parent = -1;
  // The children are the nodes [first_child, first_child + num_children).
  TreeNodeId first_child = 0;
  int32_t num_children = 0;
  int32_t depth = 0;  // Edges from the root.
};

// NNT(root) of a graph up to `depth` (paper Definition 3.1): every
// edge-simple path of 1..depth edges from the root is one node. Nodes are
// appended in breadth-first build order, so each node's children are
// contiguous.
class NodeNeighborTree {
 public:
  NodeNeighborTree(const Graph& graph, VertexId root, int depth);

  const TreeNode& node(TreeNodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }
  int32_t size() const { return static_cast<int32_t>(nodes_.size()); }

 private:
  // True if the undirected graph edge {a, b} lies on the path from the root
  // to `id`. O(depth).
  bool EdgeOnRootPath(TreeNodeId id, VertexId a, VertexId b) const;

  std::vector<TreeNode> nodes_;
};

// The trees of every vertex of `graph`, in ascending vertex id order.
std::vector<NodeNeighborTree> BuildNodeNeighborTrees(const Graph& graph,
                                                     int depth);

// True iff `query_tree` embeds into `data_tree` (root at root).
bool NntSubtreeEmbeddable(const NodeNeighborTree& query_tree,
                          const NodeNeighborTree& data_tree);

// Graph-level filter: true iff every query tree embeds into some data tree.
// Both sets must be built at the same depth. A necessary condition for
// subgraph isomorphism (each vertex's simple-path tree maps injectively
// under any embedding).
bool NntSubtreeFilter(const std::vector<NodeNeighborTree>& query_trees,
                      const std::vector<NodeNeighborTree>& data_trees);

}  // namespace gsps

#endif  // GSPS_NNT_SUBTREE_FILTER_H_
