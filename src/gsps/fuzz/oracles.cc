#include "gsps/fuzz/oracles.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "gsps/baselines/gindex/gindex_filter.h"
#include "gsps/baselines/graphgrep/graphgrep_filter.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/fuzz/replay.h"
#include "gsps/graph/graph_io.h"
#include "gsps/graph/stream_io.h"
#include "gsps/iso/subgraph_isomorphism.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"

namespace gsps {
namespace {

// Oracle 8's worker counts: one shard holding every stream, and several
// shards (capped at the stream count, so small cases get one stream per
// shard).
constexpr int kPipelinedWorkerCounts[] = {1, 3};

std::string At(int timestamp, int stream) {
  return "t=" + std::to_string(timestamp) + " stream=" +
         std::to_string(stream);
}

// Structural stream equality (GraphStream has no operator==).
bool StreamsEqual(const GraphStream& a, const GraphStream& b) {
  if (a.NumTimestamps() != b.NumTimestamps()) return false;
  if (!(a.StartGraph() == b.StartGraph())) return false;
  for (int t = 1; t < a.NumTimestamps(); ++t) {
    if (!(a.ChangeAt(t) == b.ChangeAt(t))) return false;
  }
  return true;
}

// Oracle 4: every text format must reproduce its input exactly.
std::optional<std::string> CheckRoundTrips(const FuzzCase& c) {
  for (size_t i = 0; i < c.workload.streams.size(); ++i) {
    const GraphStream& stream = c.workload.streams[i];
    const std::string text = FormatStream(stream);
    IoError error;
    std::optional<GraphStream> parsed = ParseStream(text, &error);
    if (!parsed) {
      return "roundtrip: stream " + std::to_string(i) +
             " failed to re-parse (" + error.ToString() + ")";
    }
    if (!StreamsEqual(stream, *parsed)) {
      return "roundtrip: stream " + std::to_string(i) +
             " changed across Format/Parse";
    }
    if (FormatStream(*parsed) != text) {
      return "roundtrip: stream " + std::to_string(i) +
             " format is not a fixed point";
    }
  }
  {
    const std::string text = FormatGraphs(c.workload.queries);
    IoError error;
    std::optional<std::vector<Graph>> parsed = ParseGraphs(text, &error);
    if (!parsed) {
      return "roundtrip: query set failed to re-parse (" + error.ToString() +
             ")";
    }
    if (parsed->size() != c.workload.queries.size()) {
      return "roundtrip: query set changed size across Format/Parse";
    }
    for (size_t q = 0; q < parsed->size(); ++q) {
      if (!((*parsed)[q] == c.workload.queries[q])) {
        return "roundtrip: query " + std::to_string(q) +
               " changed across Format/Parse";
      }
    }
  }
  {
    const std::string text = FormatReplay(c);
    IoError error;
    std::optional<FuzzCase> parsed = ParseReplay(text, &error);
    if (!parsed) {
      return "roundtrip: replay failed to re-parse (" + error.ToString() +
             ")";
    }
    if (FormatReplay(*parsed) != text) {
      return "roundtrip: replay format is not a fixed point";
    }
    if (parsed->nnt_depth != c.nnt_depth) {
      return "roundtrip: replay depth changed across Format/Parse";
    }
  }
  return std::nullopt;
}

// Oracle 2: the incrementally maintained NntSet must hold, root by root,
// the counts of a fresh enumeration of the current graph's paths
// (Validate), and exactly the roots of a from-scratch rebuild. The root set
// is dimension-table independent, so a private table for the rebuild is
// fine.
std::optional<std::string> CheckNntRebuild(const NntSet& maintained,
                                           const Graph& graph, int depth,
                                           int timestamp, int stream) {
  if (!maintained.Validate(graph)) {
    return "nnt-validate: internal invariants violated, " +
           At(timestamp, stream);
  }
  DimensionTable table;
  NntSet fresh(depth, &table);
  fresh.Build(graph);
  const std::vector<VertexId> maintained_roots = maintained.Roots();
  const std::vector<VertexId> fresh_roots = fresh.Roots();
  if (maintained_roots != fresh_roots) {
    return "nnt-rebuild: root sets differ, " + At(timestamp, stream) +
           " (maintained " + std::to_string(maintained_roots.size()) +
           " roots, rebuild " + std::to_string(fresh_roots.size()) + ")";
  }
  return std::nullopt;
}

}  // namespace

std::vector<int> MissingCandidates(const std::vector<int>& candidates,
                                   const std::vector<int>& required) {
  std::vector<int> missing;
  for (const int value : required) {
    if (!std::binary_search(candidates.begin(), candidates.end(), value)) {
      missing.push_back(value);
    }
  }
  return missing;
}

std::string DescribeSet(const std::vector<int>& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  out += "}";
  return out;
}

std::optional<std::string> CheckNoFalseNegatives(
    const std::string& filter_name, int timestamp, int stream,
    const std::vector<int>& candidates, const std::vector<int>& truth) {
  const std::vector<int> missing = MissingCandidates(candidates, truth);
  if (missing.empty()) return std::nullopt;
  return "false-negative: filter=" + filter_name + " " +
         At(timestamp, stream) + " missing=" + DescribeSet(missing) +
         " candidates=" + DescribeSet(candidates) +
         " truth=" + DescribeSet(truth);
}

std::optional<std::string> CheckStrategiesAgree(
    const std::string& name_a, const std::vector<int>& candidates_a,
    const std::string& name_b, const std::vector<int>& candidates_b,
    int timestamp, int stream) {
  if (candidates_a == candidates_b) return std::nullopt;
  return "strategy-disagreement: " + name_a + "=" +
         DescribeSet(candidates_a) + " vs " + name_b + "=" +
         DescribeSet(candidates_b) + ", " + At(timestamp, stream);
}

std::optional<std::string> RunOracles(const FuzzCase& c,
                                      const OracleOptions& options) {
  const std::vector<Graph>& queries = c.workload.queries;
  const std::vector<GraphStream>& streams = c.workload.streams;
  const int num_streams = static_cast<int>(streams.size());
  const int num_queries = static_cast<int>(queries.size());

  if (auto failure = CheckRoundTrips(c)) return failure;

  // Churn bookkeeping (oracle 6): which workload queries are currently
  // registered, and the engine-slot <-> workload-query maps. Without a
  // schedule every query is registered up front and the maps stay the
  // identity, so every check below degenerates to its pre-churn form.
  const bool churn_active = options.check_churn && !c.churn.empty();
  std::vector<char> registered(static_cast<size_t>(num_queries), 1);
  if (churn_active) {
    for (int q = 0; q < num_queries; ++q) {
      registered[static_cast<size_t>(q)] = StartsRegistered(c, q) ? 1 : 0;
    }
  }
  std::vector<int> query_to_engine(static_cast<size_t>(num_queries), -1);
  std::vector<int> engine_to_query;
  for (int q = 0; q < num_queries; ++q) {
    if (registered[static_cast<size_t>(q)] == 0) continue;
    query_to_engine[static_cast<size_t>(q)] =
        static_cast<int>(engine_to_query.size());
    engine_to_query.push_back(q);
  }
  // Engine-slot-space candidate list -> ascending workload-query ids
  // (retired slots cannot appear in candidate lists, but tolerate them).
  const auto to_query_space = [&engine_to_query](
                                  const std::vector<int>& slots) {
    std::vector<int> out;
    out.reserve(slots.size());
    for (const int slot : slots) {
      const int q = engine_to_query[static_cast<size_t>(slot)];
      if (q >= 0) out.push_back(q);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  // One sequential engine per join strategy.
  struct NamedEngine {
    std::string name;
    std::unique_ptr<ContinuousQueryEngine> engine;
  };
  std::vector<NamedEngine> engines;
  const std::pair<JoinKind, const char*> kinds[] = {
      {JoinKind::kNestedLoop, "NL"},
      {JoinKind::kDominatedSetCover, "DSC"},
      {JoinKind::kSkylineEarlyStop, "Skyline"},
  };
  for (const auto& [kind, name] : kinds) {
    EngineOptions engine_options;
    engine_options.nnt_depth = c.nnt_depth;
    engine_options.join_kind = kind;
    NamedEngine named{name, std::make_unique<ContinuousQueryEngine>(
                                engine_options)};
    for (const int q : engine_to_query) {
      named.engine->AddQuery(queries[static_cast<size_t>(q)]);
    }
    for (const GraphStream& s : streams) named.engine->AddStream(s.StartGraph());
    named.engine->Start();
    engines.push_back(std::move(named));
  }
  ContinuousQueryEngine& reference = *engines[1].engine;  // DSC.

  // Oracle 8: the threaded engine at each worker count, deliberately
  // configured to stress its concurrency machinery — tiny lanes (router
  // backpressure on nearly every forward) and fragmented batches
  // (worker-side coalescing).
  std::vector<std::unique_ptr<PipelinedQueryEngine>> pipelined;
  if (options.check_pipelined) {
    for (const int workers : kPipelinedWorkerCounts) {
      PipelinedEngineOptions pipelined_options;
      pipelined_options.engine.nnt_depth = c.nnt_depth;
      pipelined_options.engine.join_kind = JoinKind::kDominatedSetCover;
      pipelined_options.num_threads = workers;
      pipelined_options.lane_capacity = 8;
      auto engine = std::make_unique<PipelinedQueryEngine>(pipelined_options);
      for (const int q : engine_to_query) {
        engine->AddQuery(queries[static_cast<size_t>(q)]);
      }
      for (const GraphStream& s : streams) engine->AddStream(s.StartGraph());
      engine->Start();
      pipelined.push_back(std::move(engine));
    }
  }
  // "workers=N " for the diagnostics of pipelined engine p.
  const auto workers_of = [](size_t p) {
    return "workers=" + std::to_string(kPipelinedWorkerCounts[p]) + " ";
  };

  GraphGrepFilter graphgrep;
  if (options.check_baselines) graphgrep.SetQueries(queries);

  // Materialized per-stream graphs (the VF2 ground truth substrate).
  std::vector<Graph> current;
  current.reserve(static_cast<size_t>(num_streams));
  for (const GraphStream& s : streams) current.push_back(s.StartGraph());

  // Churn at t=0 lands after the pipelined engine's epoch-0 snapshot and
  // before any further marker, so that snapshot is legitimately stale; the
  // t=0 comparison is skipped then (t>=1 re-snapshots at AdvanceEpoch).
  bool churned_at_epoch0 = false;
  const int horizon = Horizon(c);
  for (int t = 0; t < horizon; ++t) {
    if (t > 0) {
      std::vector<GraphChange> batches(static_cast<size_t>(num_streams));
      for (int i = 0; i < num_streams; ++i) {
        const GraphStream& s = streams[static_cast<size_t>(i)];
        if (t < s.NumTimestamps()) batches[static_cast<size_t>(i)] = s.ChangeAt(t);
      }
      for (NamedEngine& named : engines) {
        for (int i = 0; i < num_streams; ++i) {
          named.engine->ApplyChange(i, batches[static_cast<size_t>(i)]);
        }
      }
      // Two fragments per (stream, timestamp): the worker must merge them
      // back into one batch before NNT maintenance or the deletions-first
      // protocol (and so the results) would diverge.
      for (size_t p = 0; p < pipelined.size(); ++p) {
        for (int i = 0; i < num_streams; ++i) {
          const std::vector<EdgeOp>& ops =
              batches[static_cast<size_t>(i)].ops;
          const auto half =
              ops.begin() + static_cast<std::ptrdiff_t>(ops.size() / 2);
          IngestEvent first;
          first.stream = i;
          first.timestamp = t;
          first.change.ops.assign(ops.begin(), half);
          IngestEvent second;
          second.stream = i;
          second.timestamp = t;
          second.change.ops.assign(half, ops.end());
          if (!pipelined[p]->Ingest(std::move(first)) ||
              !pipelined[p]->Ingest(std::move(second))) {
            return "pipelined: " + workers_of(p) + "ingest rejected at t=" +
                   std::to_string(t);
          }
        }
      }
      for (int i = 0; i < num_streams; ++i) {
        ApplyChange(batches[static_cast<size_t>(i)],
                    current[static_cast<size_t>(i)]);
      }
    }

    if (churn_active) {
      // Apply this timestamp's lifecycle ops to every engine in lock-step;
      // skip-safe per the ChurnOp contract.
      for (const ChurnOp& op : c.churn) {
        if (op.timestamp != t) continue;
        if (op.query < 0 || op.query >= num_queries) continue;
        const size_t q = static_cast<size_t>(op.query);
        if (op.add == (registered[q] != 0)) continue;
        if (op.add) {
          int slot = -1;
          bool agree = true;
          for (NamedEngine& named : engines) {
            const int id =
                named.engine->AddQueryDynamic(queries[q]);
            if (slot < 0) slot = id;
            agree = agree && id == slot;
          }
          for (auto& engine : pipelined) {
            agree = agree && engine->AddQueryDynamic(queries[q]) == slot;
          }
          if (!agree) {
            return "churn: engines disagree on the slot for query " +
                   std::to_string(op.query) + " at t=" + std::to_string(t);
          }
          if (slot == static_cast<int>(engine_to_query.size())) {
            engine_to_query.push_back(op.query);
          } else {
            engine_to_query[static_cast<size_t>(slot)] = op.query;
          }
          query_to_engine[q] = slot;
          registered[q] = 1;
          if (t == 0) churned_at_epoch0 = true;
        } else {
          const int slot = query_to_engine[q];
          for (NamedEngine& named : engines) {
            named.engine->RemoveQueryDynamic(slot);
          }
          for (auto& engine : pipelined) engine->RemoveQueryDynamic(slot);
          engine_to_query[static_cast<size_t>(slot)] = -1;
          query_to_engine[q] = -1;
          registered[q] = 0;
          if (t == 0) churned_at_epoch0 = true;
        }
      }
    }

    std::vector<std::vector<int>> truth(static_cast<size_t>(num_streams));
    for (int i = 0; i < num_streams; ++i) {
      for (int q = 0; q < num_queries; ++q) {
        if (IsSubgraphIsomorphic(queries[static_cast<size_t>(q)],
                                 current[static_cast<size_t>(i)])) {
          truth[static_cast<size_t>(i)].push_back(q);
        }
      }
    }
    // Engines only know about registered queries, so their false-negative
    // obligation is the VF2 truth restricted to those (the baselines below
    // keep the full truth — they never churn).
    std::vector<std::vector<int>> engine_truth = truth;
    if (churn_active) {
      for (std::vector<int>& t_i : engine_truth) {
        t_i.erase(std::remove_if(t_i.begin(), t_i.end(),
                                 [&registered](int q) {
                                   return registered[static_cast<size_t>(
                                              q)] == 0;
                                 }),
                  t_i.end());
      }
    }

    for (int i = 0; i < num_streams; ++i) {
      std::vector<std::vector<int>> candidate_sets;
      for (NamedEngine& named : engines) {
        candidate_sets.push_back(named.engine->CandidatesForStream(i));
      }
      for (size_t k = 0; k < engines.size(); ++k) {
        if (auto failure = CheckNoFalseNegatives(
                engines[k].name, t, i, to_query_space(candidate_sets[k]),
                engine_truth[static_cast<size_t>(i)])) {
          return failure;
        }
        if (k > 0) {
          if (auto failure = CheckStrategiesAgree(
                  engines[0].name, candidate_sets[0], engines[k].name,
                  candidate_sets[k], t, i)) {
            return failure;
          }
        }
      }
    }

    if (options.check_incremental) {
      // Oracle 5: the delta-maintained verdicts of every strategy engine
      // must equal a from-scratch strategy rebuild on the same NPVs.
      for (NamedEngine& named : engines) {
        for (int i = 0; i < num_streams; ++i) {
          const std::vector<int> cached = named.engine->CandidatesForStream(i);
          const std::vector<int> scratch =
              named.engine->RecomputeCandidatesFromScratch(i);
          if (cached != scratch) {
            return "incremental-divergence: strategy=" + named.name + " " +
                   At(t, i) + " cached=" + DescribeSet(cached) +
                   " scratch=" + DescribeSet(scratch);
          }
        }
      }
    }

    if (churn_active) {
      // Oracle 6: each churned engine must be indistinguishable from a
      // freshly built engine holding only the currently registered queries,
      // replayed from the start graphs to this timestamp.
      for (size_t k = 0; k < engines.size(); ++k) {
        EngineOptions engine_options;
        engine_options.nnt_depth = c.nnt_depth;
        engine_options.join_kind = kinds[k].first;
        ContinuousQueryEngine fresh(engine_options);
        std::vector<int> fresh_to_query;
        for (int q = 0; q < num_queries; ++q) {
          if (registered[static_cast<size_t>(q)] == 0) continue;
          fresh.AddQuery(queries[static_cast<size_t>(q)]);
          fresh_to_query.push_back(q);
        }
        for (const GraphStream& s : streams) fresh.AddStream(s.StartGraph());
        fresh.Start();
        for (int tt = 1; tt <= t; ++tt) {
          for (int i = 0; i < num_streams; ++i) {
            const GraphStream& s = streams[static_cast<size_t>(i)];
            if (tt < s.NumTimestamps()) fresh.ApplyChange(i, s.ChangeAt(tt));
          }
        }
        for (int i = 0; i < num_streams; ++i) {
          const std::vector<int> churned =
              to_query_space(engines[k].engine->CandidatesForStream(i));
          // Fresh ids are 0..m-1 in ascending registered-query order, so
          // the mapped list is already sorted.
          std::vector<int> fresh_candidates;
          for (const int id : fresh.CandidatesForStream(i)) {
            fresh_candidates.push_back(
                fresh_to_query[static_cast<size_t>(id)]);
          }
          if (churned != fresh_candidates) {
            return "churn-divergence: strategy=" + engines[k].name + " " +
                   At(t, i) + " churned=" + DescribeSet(churned) +
                   " fresh=" + DescribeSet(fresh_candidates);
          }
        }
      }
    }

    if (!pipelined.empty() && (t > 0 || !churned_at_epoch0)) {
      // Oracle 8: close the epoch at t and compare the snapshot reads —
      // pairs byte-for-byte, and transitions stream by stream — against
      // the sequential reference.
      const std::vector<std::pair<int, int>> sequential_pairs =
          reference.AllCandidatePairs();
      for (size_t p = 0; p < pipelined.size(); ++p) {
        if (t > 0) pipelined[p]->AdvanceEpoch(t);
        const std::vector<std::pair<int, int>> pipelined_pairs =
            pipelined[p]->AllCandidatePairs();
        if (pipelined_pairs != sequential_pairs) {
          return "pipelined-divergence: " + workers_of(p) + "reported " +
                 std::to_string(pipelined_pairs.size()) +
                 " pairs vs sequential " +
                 std::to_string(sequential_pairs.size()) +
                 " at t=" + std::to_string(t);
        }
      }
      for (int i = 0; i < num_streams; ++i) {
        std::vector<int> seq_current = reference.CandidatesForStream(i);
        CandidateTransitions seq_tr;
        reference.ObserveTransitions(i, &seq_current, &seq_tr);
        for (size_t p = 0; p < pipelined.size(); ++p) {
          std::vector<int> pipe_current = pipelined[p]->CandidatesForStream(i);
          CandidateTransitions pipe_tr;
          pipelined[p]->ObserveTransitions(i, &pipe_current, &pipe_tr);
          if (pipe_tr.appeared != seq_tr.appeared ||
              pipe_tr.disappeared != seq_tr.disappeared) {
            return "pipelined-transition-divergence: " + workers_of(p) +
                   At(t, i) + " appeared=" + DescribeSet(pipe_tr.appeared) +
                   " vs " + DescribeSet(seq_tr.appeared) +
                   " disappeared=" + DescribeSet(pipe_tr.disappeared) +
                   " vs " + DescribeSet(seq_tr.disappeared);
          }
        }
      }
    }

    for (int i = 0; i < num_streams; ++i) {
      if (auto failure = CheckNntRebuild(reference.StreamNnts(i),
                                         current[static_cast<size_t>(i)],
                                         c.nnt_depth, t, i)) {
        return failure;
      }
    }

    if (options.check_baselines) {
      for (int i = 0; i < num_streams; ++i) {
        if (auto failure = CheckNoFalseNegatives(
                "GraphGrep", t, i,
                graphgrep.CandidateQueries(current[static_cast<size_t>(i)]),
                truth[static_cast<size_t>(i)])) {
          return failure;
        }
      }
      if (num_streams > 0) {
        // Re-mined from the live snapshots each timestamp, as the paper's
        // stream experiments do.
        GindexFilter gindex(GindexFilter::Gindex2Options());
        gindex.BuildIndex(current);
        for (int q = 0; q < num_queries; ++q) {
          std::vector<int> required;
          for (int i = 0; i < num_streams; ++i) {
            const std::vector<int>& t_i = truth[static_cast<size_t>(i)];
            if (std::binary_search(t_i.begin(), t_i.end(), q)) {
              required.push_back(i);
            }
          }
          const std::vector<int> candidates = gindex.CandidateGraphsFor(
              queries[static_cast<size_t>(q)]);
          const std::vector<int> missing =
              MissingCandidates(candidates, required);
          if (!missing.empty()) {
            return "false-negative: filter=gIndex2 t=" + std::to_string(t) +
                   " query=" + std::to_string(q) +
                   " missing streams=" + DescribeSet(missing) +
                   " candidates=" + DescribeSet(candidates);
          }
        }
      }
    }
  }

  // Oracle 8 wrap-up: every routed event must have been delivered and
  // applied in per-stream timestamp order on its lane.
  for (size_t p = 0; p < pipelined.size(); ++p) {
    PipelinedQueryEngine& engine = *pipelined[p];
    engine.Shutdown();
    for (int s = 0; s < engine.num_shards(); ++s) {
      const PipelinedQueryEngine::LaneReport report = engine.ReportLane(s);
      if (report.lane.accepted != report.lane.delivered) {
        return "pipelined-lost-events: " + workers_of(p) +
               "shard=" + std::to_string(s) +
               " accepted=" + std::to_string(report.lane.accepted) +
               " delivered=" + std::to_string(report.lane.delivered);
      }
      if (report.order_violations != 0) {
        return "pipelined-reordered: " + workers_of(p) +
               "shard=" + std::to_string(s) +
               " violations=" + std::to_string(report.order_violations);
      }
    }
  }
  return std::nullopt;
}

}  // namespace gsps
