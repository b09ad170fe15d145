// The Node-Neighbor Trees of one (possibly changing) graph, kept as the
// only thing the join reads from them: each root's NPV (§IV.A), i.e. its
// tree edges counted per projection dimension.
//
// A tree node of NNT(r) at level k is an edge-simple path of k edges from r
// (Definition 3.1), and it counts once at (k, label of its parent, label of
// its own vertex). Nothing else of a tree is stored. An edge insertion
// creates exactly the tree nodes whose path crosses the new edge (paper
// Fig. 5), and a deletion frees exactly the nodes whose path crosses the
// removed one (Fig. 4). So maintenance counts the paths of length <= depth
// through the changed edge {u, v} and adds them, +1 or -1 each, to their
// roots' rows. A path crosses {u, v} exactly once, in one orientation
// (a, b): i backward edges from its root r to a, the crossing, and j
// forward edges from b. So each changed node is counted once — Lemma 3.2's
// per-edge bound without any index.
//
// Depth <= 3 (Fig. 12's default): forward histograms. With i + 1 + j <= 3
// a path is edge-simple exactly when neither half uses {a, b} and neither
// half steps straight back along the edge it just used: inside a half of
// <= 2 edges a step back is the only possible repeat, and across halves
// only i = j = 1 leaves room for a shared edge, where {r, a} = {b, c}
// would force both to be {a, b}. So the forward extensions from b do not
// depend on the root, and per orientation:
//   * root a gets the crossing at (1, la, lb), (2, lb, lc) for each
//     c in N(b)\{a}, and (3, lc, ld) for each d in N(c)\{b} of each such c;
//   * each r1 in N(a)\{b} gets one list built once: (2, la, lb) plus
//     (3, lb, lc) for each c in N(b)\{a};
//   * each r2 at the end of a 2-walk a->r1->r2 (r1 != b, r2 != a) gets
//     (3, la, lb) times the number of such walks ending at it.
// Depths 1 and 2 truncate the same lists.
//
// Depth >= 4 and Build: the walk. Walk backward from a over edge-simple
// walks of i = 0..depth-1 edges that avoid {u, v}; the far end of each is
// a root r, and the path r..a-b is a level-(i+1) node of NNT(r). Then walk
// forward from b, avoiding {u, v}, the backward walk's edges and its own;
// every step prev->cur is one more node of NNT(r). Build runs the forward
// walk from every vertex.
//
// Row updates: a root's paths are first summed per dimension in member
// scratch (a dim -> slot index into a short (dim, count) list), then the
// few touched dims are sorted and merged into the root's sorted row in one
// pass, inserting dims that appear and erasing those that reach zero. So
// each list above, each walk endpoint and each Build root costs one merge,
// not one row lookup per path.
//
// Graph binding: DeleteEdge takes no graph, so Build(graph) binds the set
// to `graph`, which must stay at a fixed address for the set's lifetime.
// InsertEdge checks it is passed that graph. The engine protocol is
//   * deletion of edge {u,v}:  nnts.DeleteEdge(u, v);  graph.RemoveEdge(u, v);
//   * insertion of edge {u,v}: graph.AddEdge(u, v, l); nnts.InsertEdge(graph, u, v);
// i.e. both run while the graph holds the edge.
//
// Storage is one sorted count row per root plus a cached Npv and a dirty
// flag, all flat vectors indexed by VertexId. Maintenance reuses member
// scratch, so an ApplyChange cycle performs zero heap allocations once
// capacities reach their high-water marks.

#ifndef GSPS_NNT_NNT_SET_H_
#define GSPS_NNT_NNT_SET_H_

#include <cstdint>
#include <vector>

#include "gsps/graph/graph.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/npv.h"

namespace gsps {

class NntSet {
 public:
  // `dimensions` is the shared interner; it must outlive the set.
  NntSet(int depth, DimensionTable* dimensions);

  NntSet(const NntSet&) = delete;
  NntSet& operator=(const NntSet&) = delete;
  NntSet(NntSet&&) = default;
  NntSet& operator=(NntSet&&) = default;

  // Counts the trees of every vertex of `graph` from scratch, replacing any
  // existing state, and binds the set to `graph` (see above).
  void Build(const Graph& graph);

  int depth() const { return depth_; }

  // --- Incremental maintenance -------------------------------------------

  // Applies the insertion of edge {u, v}, which must already be present in
  // `graph`, the bound graph. Creates rows for endpoints that have none yet
  // (new vertices). Paper Fig. 5.
  void InsertEdge(const Graph& graph, VertexId u, VertexId v);

  // Applies the deletion of edge {u, v}, which the bound graph must still
  // hold; does nothing when it does not. Paper Fig. 4.
  void DeleteEdge(VertexId u, VertexId v);

  // --- Queries -------------------------------------------------------------

  // The dimension-count row of `root`'s tree (sorted by dim, positive
  // counts), or nullptr if `root` has no tree.
  const std::vector<NpvEntry>* TreeOf(VertexId root) const;

  // Vertices that currently have a tree, ascending.
  std::vector<VertexId> Roots() const;

  // The NPV of `root`'s tree. The vertex must have a tree. Served from a
  // per-root cache invalidated by dimension-count changes, so repeated
  // reads are O(1). The reference is valid until the next mutating call.
  const Npv& NpvOf(VertexId root) const;

  // Fills `out` with the vertices whose NPV changed since the previous
  // drain, ascending, and clears the dirty set; reuses `out`'s capacity.
  // After Build() every root is dirty.
  void TakeDirtyRoots(std::vector<VertexId>* out);

  // Convenience overload returning a fresh vector.
  std::vector<VertexId> TakeDirtyRoots();

  // --- Test / debugging hooks ---------------------------------------------

  // Checks the state against `graph`: every root is a graph vertex, each
  // root's row equals the projection of EnumerateBranches(graph, root,
  // depth) (and so does its NPV cache where valid), and the dirty flags
  // agree with the dirty list. Returns false and prints a diagnostic on the
  // first violation. O(large); tests only.
  bool Validate(const Graph& graph) const;

  // Tree nodes across all trees, roots included: the sum over roots of
  // 1 + the row's counts (size metric for benches).
  int64_t TotalTreeNodes() const;

  // Heap bytes held by the rows, caches, flags and scratch (capacities, not
  // sizes — what the process actually pays).
  int64_t StorageBytes() const;

 private:
  // Crossing edge of one orientation: paths cross it from `a` to `b`.
  struct Crossing {
    VertexId a;
    VertexId b;
    VertexLabel a_label;
    VertexLabel b_label;
    int32_t sign;
  };

  // Adds `sign` at each root for every path of length <= depth_ that
  // crosses {u, v}, which the bound graph holds.
  void CountPathsThrough(VertexId u, VertexId v, int32_t sign);

  // Depth <= 3: counts the paths that cross from crossing.a to crossing.b
  // with the forward histograms described above.
  void CountShallow(const Crossing& crossing);

  // Depth >= 4: `root` is the far end of a backward walk of `length` edges
  // from crossing.a, whose edges (and {a, b}) are on walk_. Counts the
  // paths of `root` that cross {a, b} after that walk, then walks one edge
  // further.
  void WalkBack(const Crossing& crossing, VertexId root, int32_t length);

  // Adds to the pending deltas every edge-simple extension of the walk
  // ending at `at` (label `at_label`); its first edge is at `level`.
  void WalkForward(VertexId at, VertexLabel at_label, int32_t level);

  bool OnWalk(uint64_t edge_key) const;

  // Creates an empty row for `v` if it has none, marking it dirty.
  void EnsureRoot(VertexId v);

  // Adds one path at dimension (level, parent_label, child_label) to the
  // pending deltas.
  void AddPath(int32_t level, VertexLabel parent_label,
               VertexLabel child_label);

  // Sorts the pending deltas by dim and resets their index slots.
  void SortPending();

  // Merges the pending deltas into `root`'s row with `sign` and clears them.
  void FlushPending(VertexId root, int32_t sign);

  // Adds `sign` times each delta of [begin, end) — sorted by dim, positive
  // counts — to `root`'s row in one merge pass.
  void MergeIntoRow(VertexId root, const NpvEntry* begin, const NpvEntry* end,
                    int32_t sign);

  // Flags `root`'s NPV as changed since the last TakeDirtyRoots drain.
  void MarkDirty(VertexId root);

  int depth_;
  DimensionTable* dimensions_;
  const Graph* graph_ = nullptr;

  // Per-root state, dense by vertex id. is_root_[v] says whether v has a
  // tree; rows_[v] holds its dimension counts sorted by dim with strictly
  // positive counts — the invariant Npv requires, so the cache refill below
  // never sorts.
  std::vector<uint8_t> is_root_;
  std::vector<std::vector<NpvEntry>> rows_;

  // Per-root NPV cache: npv_cache_[v] mirrors rows_[v] whenever
  // npv_cache_valid_[v] is set; a row merge clears the flag, NpvOf refills
  // lazily. Mutable because NpvOf is logically const.
  mutable std::vector<Npv> npv_cache_;
  mutable std::vector<uint8_t> npv_cache_valid_;

  // Dirty set as flag-plus-list so marking is O(1) without hashing and the
  // drain is a sort of only the dirty roots.
  std::vector<uint8_t> dirty_flag_;
  std::vector<VertexId> dirty_list_;

  // Packed edge keys of the walk being enumerated: at most depth_ + 1
  // entries, so membership is a linear scan.
  std::vector<uint64_t> walk_;
  // The pending (dim, count) deltas of the next row merge, in first-touch
  // order, and pending_slot_[dim]: dim's index in pending_, or -1. Only the
  // touched slots are reset, so a merge costs its own dims, not the table.
  std::vector<NpvEntry> pending_;
  std::vector<int32_t> pending_slot_;
  // Depth 3: walks_to_[r2] counts the 2-walks a->r1->r2 of the current
  // orientation (all zero between calls); walk_ends_ lists the non-zero r2.
  std::vector<int32_t> walks_to_;
  std::vector<VertexId> walk_ends_;
  // Obs tallies of the current Build/CountPathsThrough call.
  int64_t walks_back_ = 0;
  int64_t paths_counted_ = 0;
};

}  // namespace gsps

#endif  // GSPS_NNT_NNT_SET_H_
