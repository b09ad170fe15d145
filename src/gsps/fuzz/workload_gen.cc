#include "gsps/fuzz/workload_gen.h"

#include <algorithm>
#include <climits>
#include <iterator>
#include <utility>
#include <vector>

#include "gsps/gen/query_extractor.h"
#include "gsps/graph/graph_change.h"

namespace gsps {
namespace {

// Scattered int32 labels, extremes included. A scattered Labeler maps its
// i-th label to kScatteredLabels[i], so label ids and dimension rows meet
// negative, extreme and far-apart values, not only [0, alphabet).
constexpr VertexLabel kScatteredLabels[] = {
    INT32_MIN, INT32_MAX, -1, 1 << 30, 0, 7919, -2, 1, 1 << 20, -(1 << 30),
    65536, INT32_MIN + 1, -7919, INT32_MAX - 1, 12, -100000, 1 << 16, 3,
    -(1 << 20), 999983, -65537, 1 << 24, -999983, 42};

// Vertex alphabet of about one case in eight: wide enough that a
// (level, label) dimension row outgrows its first capacity.
constexpr int kWideAlphabet = 24;

// Label sampler: uniform, or Zipf-skewed so one label dominates (the
// adversarial regime for dominance filtering — most dimensions collapse),
// optionally mapped to scattered values.
struct Labeler {
  int alphabet = 1;
  bool skewed = false;
  bool scattered = false;

  VertexLabel Draw(Rng& rng) const {
    int label = 0;
    if (alphabet > 1) {
      label = skewed ? rng.Zipf(alphabet, 1.2)
                     : static_cast<int>(rng.UniformInt(0, alphabet - 1));
    }
    return scattered ? kScatteredLabels[label] : label;
  }
};

// Random graph with up to `max_edges` edges: grown edge-by-edge, sometimes
// closing cycles, sometimes sprouting new vertices, plus occasional
// isolated vertices. Not necessarily connected — the matcher and the
// filters must cope with disconnected stream graphs.
Graph RandomGraph(int max_edges, const Labeler& vertex_labels,
                  const Labeler& edge_labels, Rng& rng) {
  Graph g;
  if (rng.Bernoulli(0.08)) return g;  // Empty graph (no vertices at all).
  g.AddVertex(vertex_labels.Draw(rng));
  const int target_edges = static_cast<int>(rng.UniformInt(0, max_edges));
  int attempts = 0;
  while (g.NumEdges() < target_edges && attempts < 8 * max_edges + 16) {
    ++attempts;
    const VertexId u =
        static_cast<VertexId>(rng.UniformInt(0, g.VertexIdBound() - 1));
    VertexId v;
    if (g.NumVertices() >= 2 && rng.Bernoulli(0.3)) {
      v = static_cast<VertexId>(rng.UniformInt(0, g.VertexIdBound() - 1));
      if (u == v || g.HasEdge(u, v)) continue;
    } else {
      v = g.AddVertex(vertex_labels.Draw(rng));
    }
    g.AddEdge(u, v, edge_labels.Draw(rng));
  }
  while (rng.Bernoulli(0.15)) g.AddVertex(vertex_labels.Draw(rng));
  return g;
}

// All live edges of `g` as (u, v) with u < v.
std::vector<std::pair<VertexId, VertexId>> EdgeList(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (const VertexId u : g.VertexIds()) {
    for (const HalfEdge& half : g.Neighbors(u)) {
      if (half.to > u) edges.emplace_back(u, half.to);
    }
  }
  return edges;
}

// The label EnsureVertex must see for an op touching `id` to apply: the
// live vertex's label when it exists, a fresh draw otherwise.
VertexLabel EndpointLabel(const Graph& g, VertexId id,
                          const Labeler& vertex_labels, Rng& rng) {
  if (g.HasVertex(id)) return g.GetVertexLabel(id);
  return vertex_labels.Draw(rng);
}

// One change batch against the current replica `cur`. Ops are generated
// against the live graph so most apply, with deliberate no-ops mixed in.
GraphChange RandomBatch(const Graph& cur, int max_ops,
                        const Labeler& vertex_labels,
                        const Labeler& edge_labels, Rng& rng) {
  GraphChange batch;
  if (rng.Bernoulli(0.12)) return batch;  // Empty batch.
  const int num_ops = static_cast<int>(rng.UniformInt(1, max_ops));
  // Track deletions staged in this batch so re-insertions of just-deleted
  // edges (the delete-then-insert pattern of paper §III.B) can be emitted.
  std::vector<std::pair<VertexId, VertexId>> staged_deletes;
  for (int k = 0; k < num_ops; ++k) {
    const std::vector<std::pair<VertexId, VertexId>> edges = EdgeList(cur);
    const double roll = rng.UniformDouble();
    if (roll < 0.36) {
      // Insert a fresh edge: existing-to-existing (cycle) or to a brand-new
      // vertex, occasionally at a gap id (tombstone territory).
      VertexId u, v;
      if (cur.NumVertices() == 0) {
        u = 0;
        v = 1;
      } else {
        const std::vector<VertexId> ids = cur.VertexIds();
        u = ids[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(ids.size()) - 1))];
        if (cur.NumVertices() >= 2 && rng.Bernoulli(0.45)) {
          v = ids[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(ids.size()) - 1))];
          if (u == v || cur.HasEdge(u, v)) {
            v = cur.VertexIdBound() +
                static_cast<VertexId>(rng.UniformInt(0, 2));
          }
        } else {
          v = cur.VertexIdBound() +
              static_cast<VertexId>(rng.UniformInt(0, 2));
        }
      }
      VertexLabel u_label = EndpointLabel(cur, u, vertex_labels, rng);
      VertexLabel v_label = EndpointLabel(cur, v, vertex_labels, rng);
      if (rng.Bernoulli(0.06)) {
        // Conflicting label: op skipped. Wraps, since labels reach INT32_MAX.
        u_label = static_cast<VertexLabel>(static_cast<uint32_t>(u_label) + 1);
      }
      batch.ops.push_back(
          EdgeOp::Insert(u, v, edge_labels.Draw(rng), u_label, v_label));
    } else if (roll < 0.56) {
      // Delete a random live edge.
      if (edges.empty()) {
        batch.ops.push_back(EdgeOp::Delete(0, 1));  // No-op delete.
      } else {
        const auto [u, v] = edges[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(edges.size()) - 1))];
        batch.ops.push_back(EdgeOp::Delete(u, v));
        staged_deletes.emplace_back(u, v);
      }
    } else if (roll < 0.64) {
      // Delete an absent edge (must be skipped cleanly).
      const VertexId bound = std::max<VertexId>(cur.VertexIdBound(), 2);
      batch.ops.push_back(EdgeOp::Delete(
          static_cast<VertexId>(rng.UniformInt(0, bound - 1)),
          static_cast<VertexId>(rng.UniformInt(0, bound + 1))));
    } else if (roll < 0.72) {
      // Duplicate insertion of a live edge (skipped by AddEdge).
      if (edges.empty()) continue;
      const auto [u, v] = edges[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(edges.size()) - 1))];
      batch.ops.push_back(EdgeOp::Insert(u, v, edge_labels.Draw(rng),
                                         cur.GetVertexLabel(u),
                                         cur.GetVertexLabel(v)));
    } else if (roll < 0.82) {
      // Re-insert an edge staged for deletion in this same batch (deletions
      // apply first, so this lands on a freshly cleared slot).
      if (staged_deletes.empty()) continue;
      const auto [u, v] = staged_deletes[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(staged_deletes.size()) - 1))];
      batch.ops.push_back(EdgeOp::Insert(u, v, edge_labels.Draw(rng),
                                         cur.GetVertexLabel(u),
                                         cur.GetVertexLabel(v)));
    } else {
      // Vertex wipe: delete every incident edge of one vertex.
      const std::vector<VertexId> ids = cur.VertexIds();
      if (ids.empty()) continue;
      const VertexId victim = ids[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(ids.size()) - 1))];
      for (const HalfEdge& half : cur.Neighbors(victim)) {
        batch.ops.push_back(EdgeOp::Delete(victim, half.to));
      }
    }
  }
  return batch;
}

// One query graph: either a planted subgraph of some stream state (so the
// no-false-negative oracle sees true positives, not just absences), a
// degenerate single vertex, or an independent random connected graph.
Graph RandomQuery(const GenParams& params,
                  const std::vector<GraphStream>& streams,
                  const Labeler& vertex_labels, const Labeler& edge_labels,
                  Rng& rng) {
  const double roll = rng.UniformDouble();
  if (roll < 0.45 && !streams.empty()) {
    const GraphStream& stream = streams[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(streams.size()) - 1))];
    const int t = static_cast<int>(
        rng.UniformInt(0, stream.NumTimestamps() - 1));
    const Graph snapshot = stream.MaterializeAt(t);
    if (snapshot.NumEdges() > 0) {
      const int num_edges = static_cast<int>(rng.UniformInt(
          1, std::min(params.max_query_edges, snapshot.NumEdges())));
      std::optional<Graph> extracted =
          ExtractConnectedSubgraph(snapshot, num_edges, rng);
      if (extracted) return *std::move(extracted);
    }
  }
  if (roll < 0.60) {
    Graph q;
    q.AddVertex(vertex_labels.Draw(rng));
    return q;
  }
  Graph q = RandomGraph(params.max_query_edges, vertex_labels, edge_labels,
                        rng);
  if (q.NumVertices() == 0) q.AddVertex(vertex_labels.Draw(rng));
  return q;
}

}  // namespace

FuzzCase GenerateCase(const GenParams& params, Rng& rng) {
  FuzzCase c;
  c.nnt_depth = params.nnt_depth > 0
                    ? params.nnt_depth
                    : static_cast<int>(rng.UniformInt(1, 3));
  // About one case in eight draws from a wide alphabet, and about a quarter
  // scatter their labels (when the table covers the alphabet).
  const int max_vertex_labels = rng.Bernoulli(0.125)
                                    ? std::max(kWideAlphabet,
                                               params.max_vertex_labels)
                                    : params.max_vertex_labels;
  Labeler vertex_labels;
  vertex_labels.alphabet =
      static_cast<int>(rng.UniformInt(1, max_vertex_labels));
  vertex_labels.skewed = rng.Bernoulli(0.5);
  vertex_labels.scattered =
      rng.Bernoulli(0.25) &&
      vertex_labels.alphabet <= static_cast<int>(std::size(kScatteredLabels));
  Labeler edge_labels{
      static_cast<int>(rng.UniformInt(1, params.max_edge_labels)), false};

  const int num_streams =
      static_cast<int>(rng.UniformInt(1, params.max_streams));
  for (int i = 0; i < num_streams; ++i) {
    Graph start =
        RandomGraph(params.max_start_edges, vertex_labels, edge_labels, rng);
    GraphStream stream(start);
    Graph cur = start;  // Replica advanced with engine semantics.
    const int num_timestamps =
        static_cast<int>(rng.UniformInt(1, params.max_timestamps));
    for (int t = 1; t < num_timestamps; ++t) {
      GraphChange batch = RandomBatch(cur, params.max_batch_ops,
                                      vertex_labels, edge_labels, rng);
      ApplyChange(batch, cur);
      stream.AppendChange(std::move(batch));
    }
    c.workload.streams.push_back(std::move(stream));
  }

  const int num_queries =
      static_cast<int>(rng.UniformInt(1, params.max_queries));
  for (int q = 0; q < num_queries; ++q) {
    c.workload.queries.push_back(RandomQuery(
        params, c.workload.streams, vertex_labels, edge_labels, rng));
  }

  // Query lifecycle schedule (oracle 6). Fully random (timestamp, verb,
  // query) triples: the skip-safe ChurnOp contract makes every combination
  // legal, including double adds/removes and a query whose first op is an
  // add (it then starts unregistered and enters mid-run).
  if (params.max_churn_ops > 0 && rng.Bernoulli(0.5)) {
    const int horizon = Horizon(c);
    const int num_ops =
        static_cast<int>(rng.UniformInt(1, params.max_churn_ops));
    for (int k = 0; k < num_ops; ++k) {
      c.churn.push_back(ChurnOp{
          static_cast<int>(rng.UniformInt(0, horizon - 1)),
          rng.Bernoulli(0.5),
          static_cast<int>(rng.UniformInt(0, num_queries - 1))});
    }
  }
  return c;
}

}  // namespace gsps
