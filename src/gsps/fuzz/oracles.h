// The pluggable invariant-oracle set the fuzzer checks at every timestamp
// of every case:
//
//   1. No false negatives (Theorem 4.1 / Lemma 4.2): for each of the three
//      join strategies (NL, DSC, Skyline) and both baselines (GraphGrep,
//      gIndex2), every (stream, query) pair the exact VF2 matcher accepts
//      must be in the reported candidate set. The three strategies must
//      also report *identical* candidate sets (they implement one
//      definition three ways).
//   2. Incremental NNT maintenance (paper Figs. 4-5): the maintained
//      NntSet must pass Validate() against the live graph (every root's
//      counts equal a fresh enumeration of its paths) and hold exactly the
//      roots of a from-scratch rebuild of the materialized graph.
//   3. (Merged into 8: the threaded engine runs at one and at several
//      workers there. The number stays reserved so diagnostics and docs
//      keep their oracle numbering.)
//   4. Serialization: streams, queries, and the whole replay file must
//      round-trip exactly through their text formats.
//   5. Incremental join: after every batch, each strategy's delta-maintained
//      cached verdicts must equal a freshly constructed strategy of the
//      same kind fed the stream's current NPVs from scratch
//      (ContinuousQueryEngine::RecomputeCandidatesFromScratch).
//   6. Query churn: when the case carries a churn schedule, every engine
//      applies it live (AddQueryDynamic/RemoveQueryDynamic, after each
//      timestamp's batches) and must then report — per strategy, per
//      timestamp — exactly the candidates of a freshly built engine holding
//      only the currently registered queries, replayed from scratch. All
//      engines must also agree on the reused slot every re-add lands in,
//      and oracles 1/5/8 keep holding on the churned engines with the VF2
//      truth restricted to registered queries.
//   7. (Retired with the binary delta format it checked. The number stays
//      reserved, as 3's does.)
//   8. Threaded engine: PipelinedQueryEngine at 1 worker (one shard holding
//      every stream) and at 3 workers (multi-shard placement), each with
//      capacity-8 SPSC lanes so the router actually hits backpressure and
//      every timestamp batch split into two fragments the worker must
//      coalesce, must report exactly the sequential engine's candidate
//      pairs AND candidate transitions at every epoch boundary, apply the
//      churn schedule in lock-step through its in-band control channel
//      (agreeing on reused slots), and finish with lossless, in-order
//      per-lane delivery audits.
//
// RunOracles is deterministic and returns a diagnostic naming the oracle,
// timestamp, stream, and query on the first violation — the string the
// minimizer preserves while shrinking.

#ifndef GSPS_FUZZ_ORACLES_H_
#define GSPS_FUZZ_ORACLES_H_

#include <optional>
#include <string>
#include <vector>

#include "gsps/fuzz/fuzz_case.h"

namespace gsps {

// The oracles a caller may switch off; the engine side of oracle 1 and
// oracles 2 and 4 always run.
struct OracleOptions {
  bool check_baselines = true;    // Oracle 1, GraphGrep + gIndex2.
  bool check_incremental = true;  // Oracle 5.
  bool check_churn = true;        // Oracle 6 (no-op without a schedule).
  bool check_pipelined = true;    // Oracle 8 (oracle 3 merged into it).
};

// Runs every enabled oracle over the whole case, timestamp by timestamp.
// Returns nullopt when all hold, or a one-line diagnostic on the first
// violation.
std::optional<std::string> RunOracles(const FuzzCase& c,
                                      const OracleOptions& options = {});

// --- Pure helpers (unit-testable without triggering a real engine bug) ---

// Elements of `required` missing from `candidates` (both ascending).
std::vector<int> MissingCandidates(const std::vector<int>& candidates,
                                   const std::vector<int>& required);

// "{1, 3, 7}" for logging.
std::string DescribeSet(const std::vector<int>& values);

// Diagnostic for a filter reporting `candidates` when `truth` holds, or
// nullopt when no false negative occurred. `filter_name` names the
// offender ("Skyline", "gIndex2", ...).
std::optional<std::string> CheckNoFalseNegatives(
    const std::string& filter_name, int timestamp, int stream,
    const std::vector<int>& candidates, const std::vector<int>& truth);

// Diagnostic when two strategies disagree on a candidate set, else nullopt.
std::optional<std::string> CheckStrategiesAgree(
    const std::string& name_a, const std::vector<int>& candidates_a,
    const std::string& name_b, const std::vector<int>& candidates_b,
    int timestamp, int stream);

}  // namespace gsps

#endif  // GSPS_FUZZ_ORACLES_H_
