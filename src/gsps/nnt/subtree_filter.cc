#include "gsps/nnt/subtree_filter.h"

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "gsps/iso/bipartite_matching.h"

namespace gsps {
namespace {

// Memoized embeddability of query subtree `q` at data subtree `d`.
class SubtreeMatcher {
 public:
  SubtreeMatcher(const NodeNeighborTree& query_tree,
                 const NodeNeighborTree& data_tree)
      : query_tree_(query_tree), data_tree_(data_tree) {}

  bool EmbeddableAt(TreeNodeId q, TreeNodeId d) {
    const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(q))
                          << 32) |
                         static_cast<uint32_t>(d);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    const TreeNode& query_node = query_tree_.node(q);
    const TreeNode& data_node = data_tree_.node(d);
    bool result = false;
    if (query_node.vertex_label == data_node.vertex_label &&
        query_node.num_children <= data_node.num_children) {
      // Left-perfect matching of query children into data children, where
      // child qc may match child dc iff edge labels agree and qc's subtree
      // embeds at dc (recursively).
      BipartiteAdjacency adjacency(
          static_cast<size_t>(query_node.num_children));
      bool some_child_unmatchable = false;
      for (int i = 0; i < query_node.num_children; ++i) {
        const TreeNodeId qc = query_node.first_child + i;
        const EdgeLabel edge_label = query_tree_.node(qc).edge_label;
        for (int k = 0; k < data_node.num_children; ++k) {
          const TreeNodeId dc = data_node.first_child + k;
          if (data_tree_.node(dc).edge_label == edge_label &&
              EmbeddableAt(qc, dc)) {
            adjacency[static_cast<size_t>(i)].push_back(k);
          }
        }
        if (adjacency[static_cast<size_t>(i)].empty()) {
          some_child_unmatchable = true;
          break;
        }
      }
      result = !some_child_unmatchable &&
               HasLeftPerfectMatching(adjacency, data_node.num_children);
    }
    memo_.emplace(key, result);
    return result;
  }

 private:
  const NodeNeighborTree& query_tree_;
  const NodeNeighborTree& data_tree_;
  std::unordered_map<uint64_t, bool> memo_;
};

}  // namespace

NodeNeighborTree::NodeNeighborTree(const Graph& graph, VertexId root,
                                   int depth) {
  TreeNode root_node;
  root_node.vertex = root;
  root_node.vertex_label = graph.GetVertexLabel(root);
  nodes_.push_back(root_node);
  // Breadth-first: a node's children are appended together when it is
  // reached, after every node appended before it.
  for (size_t at = 0; at < nodes_.size(); ++at) {
    const TreeNode parent = nodes_[at];
    if (parent.depth >= depth) continue;
    const TreeNodeId first_child = size();
    for (const HalfEdge& half : graph.Neighbors(parent.vertex)) {
      if (EdgeOnRootPath(static_cast<TreeNodeId>(at), parent.vertex,
                         half.to)) {
        continue;
      }
      TreeNode child;
      child.vertex = half.to;
      child.vertex_label = graph.GetVertexLabel(half.to);
      child.edge_label = half.label;
      child.parent = static_cast<TreeNodeId>(at);
      child.depth = parent.depth + 1;
      nodes_.push_back(child);
    }
    nodes_[at].first_child = first_child;
    nodes_[at].num_children = size() - first_child;
  }
}

bool NodeNeighborTree::EdgeOnRootPath(TreeNodeId id, VertexId a,
                                      VertexId b) const {
  for (TreeNodeId at = id; at != 0; at = node(at).parent) {
    const VertexId x = node(at).vertex;
    const VertexId y = node(node(at).parent).vertex;
    if ((x == a && y == b) || (x == b && y == a)) return true;
  }
  return false;
}

std::vector<NodeNeighborTree> BuildNodeNeighborTrees(const Graph& graph,
                                                     int depth) {
  std::vector<NodeNeighborTree> trees;
  for (const VertexId v : graph.VertexIds()) trees.emplace_back(graph, v, depth);
  return trees;
}

bool NntSubtreeEmbeddable(const NodeNeighborTree& query_tree,
                          const NodeNeighborTree& data_tree) {
  SubtreeMatcher matcher(query_tree, data_tree);
  return matcher.EmbeddableAt(0, 0);
}

bool NntSubtreeFilter(const std::vector<NodeNeighborTree>& query_trees,
                      const std::vector<NodeNeighborTree>& data_trees) {
  for (const NodeNeighborTree& query_tree : query_trees) {
    bool matched = false;
    for (const NodeNeighborTree& data_tree : data_trees) {
      if (NntSubtreeEmbeddable(query_tree, data_tree)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

}  // namespace gsps
