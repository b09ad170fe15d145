#include "gsps/nnt/nnt_set.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "gsps/common/check.h"
#include "gsps/iso/branch_compatibility.h"
#include "gsps/obs/obs.h"

namespace gsps {
namespace {

bool DimLess(const NpvEntry& x, const NpvEntry& y) { return x.dim < y.dim; }

uint64_t EdgeKey(VertexId a, VertexId b) {
  const uint32_t lo = static_cast<uint32_t>(std::min(a, b));
  const uint32_t hi = static_cast<uint32_t>(std::max(a, b));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

}  // namespace

NntSet::NntSet(int depth, DimensionTable* dimensions)
    : depth_(depth), dimensions_(dimensions) {
  GSPS_CHECK(depth >= 1);
  GSPS_CHECK(dimensions != nullptr);
}

void NntSet::Build(const Graph& graph) {
  GSPS_OBS_STAGE(Stage::kNntMaintain);
  graph_ = &graph;
  is_root_.clear();
  rows_.clear();
  npv_cache_.clear();
  npv_cache_valid_.clear();
  dirty_flag_.clear();
  dirty_list_.clear();
  walks_to_.clear();
  paths_counted_ = 0;
  for (const VertexId v : graph.VertexIds()) {
    EnsureRoot(v);
    walk_.clear();
    WalkForward(v, graph.GetVertexLabel(v), /*level=*/1);
    FlushPending(v, +1);
  }
  GSPS_OBS_COUNT(Counter::kNntTreeNodesCreated, paths_counted_);
}

void NntSet::InsertEdge(const Graph& graph, VertexId u, VertexId v) {
  GSPS_CHECK_MSG(&graph == graph_, "InsertEdge needs the graph bound by Build");
  GSPS_CHECK(graph.HasEdge(u, v));
  EnsureRoot(u);
  EnsureRoot(v);
  GSPS_OBS_COUNT(Counter::kNntInsertEdges, 1);
  CountPathsThrough(u, v, +1);
}

void NntSet::DeleteEdge(VertexId u, VertexId v) {
  if (graph_ == nullptr || !graph_->HasEdge(u, v)) return;
  GSPS_OBS_COUNT(Counter::kNntDeleteEdges, 1);
  CountPathsThrough(u, v, -1);
}

void NntSet::CountPathsThrough(VertexId u, VertexId v, int32_t sign) {
  walks_back_ = 0;
  paths_counted_ = 0;
  const VertexLabel u_label = graph_->GetVertexLabel(u);
  const VertexLabel v_label = graph_->GetVertexLabel(v);
  const Crossing uv{u, v, u_label, v_label, sign};
  const Crossing vu{v, u, v_label, u_label, sign};
  if (depth_ <= 3) {
    CountShallow(uv);
    CountShallow(vu);
  } else {
    walk_.assign(1, EdgeKey(u, v));
    WalkBack(uv, u, 0);
    WalkBack(vu, v, 0);
  }
  GSPS_OBS_COUNT(Counter::kNntPathsTouched, walks_back_);
  if (sign > 0) {
    GSPS_OBS_COUNT(Counter::kNntTreeNodesCreated, paths_counted_);
  } else {
    GSPS_OBS_COUNT(Counter::kNntTreeNodesFreed, paths_counted_);
  }
}

void NntSet::CountShallow(const Crossing& crossing) {
  const VertexId a = crossing.a;
  const VertexId b = crossing.b;
  const VertexLabel a_label = crossing.a_label;
  const VertexLabel b_label = crossing.b_label;
  // Root a: the crossing, then every forward extension from b.
  ++walks_back_;
  AddPath(1, a_label, b_label);
  if (depth_ >= 2) {
    for (const HalfEdge& bc : graph_->Neighbors(b)) {
      if (bc.to == a) continue;
      const VertexLabel c_label = graph_->GetVertexLabel(bc.to);
      AddPath(2, b_label, c_label);
      if (depth_ < 3) continue;
      for (const HalfEdge& cd : graph_->Neighbors(bc.to)) {
        if (cd.to != b) AddPath(3, c_label, graph_->GetVertexLabel(cd.to));
      }
    }
  }
  FlushPending(a, crossing.sign);

  // Distance 1: every r1 in N(a)\{b} gets the same list. N(a) holds b, so
  // a lone neighbour means there is no r1 (and no 2-walk).
  const std::vector<HalfEdge>& a_neighbors = graph_->Neighbors(a);
  if (depth_ < 2 || a_neighbors.size() < 2) return;
  AddPath(2, a_label, b_label);
  if (depth_ >= 3) {
    for (const HalfEdge& bc : graph_->Neighbors(b)) {
      if (bc.to != a) AddPath(3, b_label, graph_->GetVertexLabel(bc.to));
    }
  }
  SortPending();
  for (const HalfEdge& ar : a_neighbors) {
    if (ar.to == b) continue;
    ++walks_back_;
    MergeIntoRow(ar.to, pending_.data(), pending_.data() + pending_.size(),
                 crossing.sign);
  }
  pending_.clear();
  if (depth_ < 3) return;

  // Distance 2: each 2-walk a->r1->r2 is one path r2-r1-a-b; count the
  // walks per r2, then add them in one entry.
  for (const HalfEdge& ar : a_neighbors) {
    if (ar.to == b) continue;
    for (const HalfEdge& rr : graph_->Neighbors(ar.to)) {
      if (rr.to == a) continue;
      ++walks_back_;
      if (walks_to_[static_cast<size_t>(rr.to)]++ == 0) {
        walk_ends_.push_back(rr.to);
      }
    }
  }
  if (walk_ends_.empty()) return;
  NpvEntry crossing_at_3{dimensions_->Intern(3, a_label, b_label), 0};
  for (const VertexId r2 : walk_ends_) {
    int32_t& walks = walks_to_[static_cast<size_t>(r2)];
    crossing_at_3.count = walks;
    walks = 0;
    MergeIntoRow(r2, &crossing_at_3, &crossing_at_3 + 1, crossing.sign);
  }
  walk_ends_.clear();
}

void NntSet::WalkBack(const Crossing& crossing, VertexId root,
                      int32_t length) {
  ++walks_back_;
  AddPath(length + 1, crossing.a_label, crossing.b_label);
  if (length + 1 < depth_) {
    WalkForward(crossing.b, crossing.b_label, length + 2);
  }
  FlushPending(root, crossing.sign);
  if (length + 1 >= depth_) return;
  for (const HalfEdge& half : graph_->Neighbors(root)) {
    const uint64_t key = EdgeKey(root, half.to);
    if (OnWalk(key)) continue;
    walk_.push_back(key);
    WalkBack(crossing, half.to, length + 1);
    walk_.pop_back();
  }
}

void NntSet::WalkForward(VertexId at, VertexLabel at_label, int32_t level) {
  for (const HalfEdge& half : graph_->Neighbors(at)) {
    const uint64_t key = EdgeKey(at, half.to);
    if (OnWalk(key)) continue;
    const VertexLabel to_label = graph_->GetVertexLabel(half.to);
    AddPath(level, at_label, to_label);
    if (level < depth_) {
      walk_.push_back(key);
      WalkForward(half.to, to_label, level + 1);
      walk_.pop_back();
    }
  }
}

bool NntSet::OnWalk(uint64_t edge_key) const {
  return std::find(walk_.begin(), walk_.end(), edge_key) != walk_.end();
}

const std::vector<NpvEntry>* NntSet::TreeOf(VertexId root) const {
  if (root < 0 || root >= static_cast<VertexId>(is_root_.size()) ||
      !is_root_[static_cast<size_t>(root)]) {
    return nullptr;
  }
  return &rows_[static_cast<size_t>(root)];
}

std::vector<VertexId> NntSet::Roots() const {
  std::vector<VertexId> roots;
  for (size_t i = 0; i < is_root_.size(); ++i) {
    if (is_root_[i]) roots.push_back(static_cast<VertexId>(i));
  }
  return roots;
}

const Npv& NntSet::NpvOf(VertexId root) const {
  GSPS_CHECK(TreeOf(root) != nullptr);
  const size_t r = static_cast<size_t>(root);
  if (!npv_cache_valid_[r]) {
    npv_cache_[r].AssignSortedEntries(rows_[r]);
    npv_cache_valid_[r] = 1;
    GSPS_OBS_COUNT(Counter::kNntNpvCacheRebuilds, 1);
  }
#if defined(GSPS_SANITIZE_ENABLED)
  // The invalidation protocol must keep the cache an exact mirror of the
  // live counts; recompute and compare under sanitizer builds.
  GSPS_CHECK(npv_cache_[r].entries() == rows_[r]);
#endif
  return npv_cache_[r];
}

void NntSet::TakeDirtyRoots(std::vector<VertexId>* out) {
  std::sort(dirty_list_.begin(), dirty_list_.end());
  out->assign(dirty_list_.begin(), dirty_list_.end());
  for (const VertexId root : dirty_list_) {
    dirty_flag_[static_cast<size_t>(root)] = 0;
  }
  dirty_list_.clear();
}

std::vector<VertexId> NntSet::TakeDirtyRoots() {
  std::vector<VertexId> result;
  TakeDirtyRoots(&result);
  return result;
}

int64_t NntSet::TotalTreeNodes() const {
  int64_t total = 0;
  for (size_t v = 0; v < is_root_.size(); ++v) {
    if (!is_root_[v]) continue;
    ++total;
    for (const NpvEntry& entry : rows_[v]) total += entry.count;
  }
  return total;
}

int64_t NntSet::StorageBytes() const {
  int64_t bytes = static_cast<int64_t>(
      is_root_.capacity() + npv_cache_valid_.capacity() +
      dirty_flag_.capacity() + dirty_list_.capacity() * sizeof(VertexId) +
      walk_.capacity() * sizeof(uint64_t) +
      pending_.capacity() * sizeof(NpvEntry) +
      pending_slot_.capacity() * sizeof(int32_t) +
      walks_to_.capacity() * sizeof(int32_t) +
      walk_ends_.capacity() * sizeof(VertexId));
  bytes += static_cast<int64_t>(rows_.capacity() *
                                sizeof(std::vector<NpvEntry>));
  for (const std::vector<NpvEntry>& row : rows_) {
    bytes += static_cast<int64_t>(row.capacity() * sizeof(NpvEntry));
  }
  bytes += static_cast<int64_t>(npv_cache_.capacity() * sizeof(Npv));
  for (const Npv& npv : npv_cache_) {
    bytes += static_cast<int64_t>(npv.entries().capacity() * sizeof(NpvEntry));
  }
  return bytes;
}

void NntSet::EnsureRoot(VertexId v) {
  GSPS_CHECK(v >= 0);
  const size_t r = static_cast<size_t>(v);
  if (is_root_.size() <= r) {
    is_root_.resize(r + 1, 0);
    rows_.resize(r + 1);
    npv_cache_.resize(r + 1);
    npv_cache_valid_.resize(r + 1, 0);
    dirty_flag_.resize(r + 1, 0);
    walks_to_.resize(r + 1, 0);
  }
  if (is_root_[r]) return;
  is_root_[r] = 1;
  npv_cache_valid_[r] = 0;
  MarkDirty(v);
}

void NntSet::AddPath(int32_t level, VertexLabel parent_label,
                     VertexLabel child_label) {
  const DimId dim = dimensions_->Intern(level, parent_label, child_label);
  if (static_cast<size_t>(dim) >= pending_slot_.size()) {
    pending_slot_.resize(static_cast<size_t>(dimensions_->size()), -1);
  }
  int32_t& slot = pending_slot_[static_cast<size_t>(dim)];
  if (slot < 0) {
    slot = static_cast<int32_t>(pending_.size());
    pending_.push_back(NpvEntry{dim, 1});
  } else {
    ++pending_[static_cast<size_t>(slot)].count;
  }
}

void NntSet::SortPending() {
  for (const NpvEntry& entry : pending_) {
    pending_slot_[static_cast<size_t>(entry.dim)] = -1;
  }
  std::sort(pending_.begin(), pending_.end(), DimLess);
}

void NntSet::FlushPending(VertexId root, int32_t sign) {
  if (pending_.empty()) return;
  SortPending();
  MergeIntoRow(root, pending_.data(), pending_.data() + pending_.size(), sign);
  pending_.clear();
}

void NntSet::MergeIntoRow(VertexId root, const NpvEntry* begin,
                          const NpvEntry* end, int32_t sign) {
  const size_t r = static_cast<size_t>(root);
  std::vector<NpvEntry>& row = rows_[r];
  // Front to back: apply each delta whose dim the row has, in place, and
  // count the dims it lacks. Only an insertion may bring a new dim.
  size_t missing = 0;
  bool emptied = false;
  auto at = row.begin();
  for (const NpvEntry* delta = begin; delta != end; ++delta) {
    paths_counted_ += delta->count;
    at = std::lower_bound(at, row.end(), *delta, DimLess);
    if (at != row.end() && at->dim == delta->dim) {
      at->count += sign * delta->count;
      GSPS_CHECK(at->count >= 0);
      emptied |= at->count == 0;
    } else {
      GSPS_CHECK(sign > 0);
      ++missing;
    }
  }
  if (missing > 0) {
    // Back to front: widen the row and slot the new dims in, moving each
    // old entry at most once.
    size_t read = row.size();
    row.resize(read + missing);
    size_t write = row.size();
    for (const NpvEntry* delta = end; write != read;) {
      --delta;
      while (read > 0 && row[read - 1].dim > delta->dim) {
        row[--write] = row[--read];
      }
      if (read > 0 && row[read - 1].dim == delta->dim) continue;
      row[--write] = *delta;
    }
  } else if (emptied) {
    row.erase(std::remove_if(row.begin(), row.end(),
                             [](const NpvEntry& e) { return e.count == 0; }),
              row.end());
  }
  npv_cache_valid_[r] = 0;
  MarkDirty(root);
}

void NntSet::MarkDirty(VertexId root) {
  uint8_t& flag = dirty_flag_[static_cast<size_t>(root)];
  if (flag) return;
  flag = 1;
  dirty_list_.push_back(root);
  GSPS_OBS_COUNT(Counter::kNntRootsDirtied, 1);
}

bool NntSet::Validate(const Graph& graph) const {
  auto fail = [](const char* what) {
    std::fprintf(stderr, "NntSet::Validate failed: %s\n", what);
    return false;
  };

  // Dirty bookkeeping: the list holds exactly the flagged roots, once each.
  int64_t flagged = 0;
  for (const uint8_t flag : dirty_flag_) flagged += flag;
  if (flagged != static_cast<int64_t>(dirty_list_.size())) {
    return fail("dirty list out of sync with dirty flags");
  }
  for (const VertexId root : dirty_list_) {
    if (!dirty_flag_[static_cast<size_t>(root)]) {
      return fail("dirty list entry not flagged");
    }
  }

  for (const VertexId root : Roots()) {
    if (!graph.HasVertex(root)) return fail("root is not a graph vertex");
    // A branch of k edges is one level-k tree node: it counts at (k, label
    // of vertex k-1, label of vertex k), which sit at signature positions
    // 2k-2 and 2k.
    std::map<DimId, int64_t> expected;
    for (const auto& [branch, count] : EnumerateBranches(graph, root, depth_)) {
      const size_t k = (branch.size() - 1) / 2;
      const std::optional<DimId> dim = dimensions_->Find(
          static_cast<int32_t>(k), branch[2 * k - 2], branch[2 * k]);
      if (!dim.has_value()) return fail("dimension not interned");
      expected[*dim] += count;
    }
    const std::vector<NpvEntry>& row = rows_[static_cast<size_t>(root)];
    if (expected.size() != row.size()) {
      return fail("row cardinality differs from a fresh enumeration");
    }
    size_t at = 0;
    for (const auto& [dim, count] : expected) {
      if (row[at].dim != dim || row[at].count != count) {
        return fail("row differs from a fresh enumeration");
      }
      ++at;
    }
    if (npv_cache_valid_[static_cast<size_t>(root)] &&
        npv_cache_[static_cast<size_t>(root)].entries() != row) {
      return fail("NPV cache diverged from the row");
    }
  }
  return true;
}

}  // namespace gsps
