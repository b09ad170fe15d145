// gsps_fuzz — differential fuzzing of the continuous pattern-search stack
// against its invariant oracles (no false negatives vs exact VF2 across all
// join strategies and baselines, incremental-NNT == from-scratch rebuild,
// threaded == sequential engine output, serialization round-trips).
//
// Fuzz mode (default): run `--iterations` randomized cases derived from
// `--seed`. On the first oracle violation the case is auto-minimized and
// written as a replay file; rerunning that file reproduces the failure
// exactly. Output is deterministic for a given flag set — identical seeds
// produce identical logs.
//
//   gsps_fuzz --seed=1 --iterations=100 [--depth=0] [--max_streams=3]
//       [--max_queries=4] [--max_timestamps=8] [--max_churn_ops=5]
//       [--out=FILE] [--minimize_attempts=4000] [--no-baselines]
//       [--no-incremental] [--no-churn] [--no-pipelined] [--quiet]
//
// Replay mode: re-run the oracle set over one committed replay file.
//
//   gsps_fuzz --replay=FILE [--quiet]
//
// Corpus tooling: write the generated (unfuzzed) case of one iteration.
//
//   gsps_fuzz --emit=FILE --seed=S [--iteration=K]
//
// Exit status: 0 all oracles hold; 1 an oracle violation was found (fuzz
// mode writes the minimized replay first); 2 usage or file errors.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "gsps/common/file_io.h"
#include "gsps/common/flags.h"
#include "gsps/fuzz/fuzzer.h"
#include "gsps/fuzz/replay.h"

namespace {

using namespace gsps;

int Usage() {
  std::fprintf(
      stderr,
      "usage: gsps_fuzz --seed=1 --iterations=100 [--depth=0] [--out=FILE]\n"
      "           [--max_streams=3] [--max_queries=4] [--max_timestamps=8]\n"
      "           [--max_churn_ops=5] [--minimize_attempts=4000]\n"
      "           [--no-baselines] [--no-incremental] [--no-churn]\n"
      "           [--no-pipelined] [--quiet]\n"
      "       gsps_fuzz --replay=FILE [--quiet]\n"
      "       gsps_fuzz --emit=FILE --seed=S [--iteration=K]\n");
  return 2;
}

int RunReplayMode(const std::string& path, const OracleOptions& oracles,
                  bool quiet) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  IoError error;
  const std::optional<FuzzCase> c = ParseReplay(buffer.str(), &error);
  if (!c) {
    std::fprintf(stderr, "malformed replay %s: %s\n", path.c_str(),
                 error.ToString().c_str());
    return 2;
  }
  const std::optional<std::string> failure = RunOracles(*c, oracles);
  if (failure) {
    std::printf("replay %s FAIL (%s): %s\n", path.c_str(),
                DescribeCase(*c).c_str(), failure->c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("replay %s ok (%s)\n", path.c_str(),
                DescribeCase(*c).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  FuzzOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed", 1));
  options.iterations = flags.GetInt("iterations", 100);
  options.gen.nnt_depth = flags.GetInt("depth", 0);
  options.gen.max_streams = flags.GetInt("max_streams", 3);
  options.gen.max_queries = flags.GetInt("max_queries", 4);
  options.gen.max_timestamps = flags.GetInt("max_timestamps", 8);
  options.gen.max_churn_ops = flags.GetInt("max_churn_ops", 5);
  options.minimize_attempts = flags.GetInt("minimize_attempts", 4000);
  options.oracles.check_baselines = !flags.GetBool("no-baselines");
  options.oracles.check_incremental = !flags.GetBool("no-incremental");
  options.oracles.check_pipelined = !flags.GetBool("no-pipelined");
  if (flags.GetBool("no-churn")) {
    options.oracles.check_churn = false;
    options.gen.max_churn_ops = 0;  // Generate churn-free cases too.
  }
  const bool quiet = flags.GetBool("quiet");
  options.verbose = !quiet;
  const std::string replay_path = flags.GetString("replay", "");
  const std::string emit_path = flags.GetString("emit", "");
  const int iteration = flags.GetInt("iteration", 0);
  const std::string out_flag = flags.GetString("out", "");
  if (!flags.UnrecognizedArgs().empty()) {
    std::fprintf(stderr, "gsps_fuzz: %s\n", flags.ErrorMessage().c_str());
    return Usage();
  }

  if (options.iterations <= 0 || options.gen.max_streams <= 0 ||
      options.gen.max_queries <= 0 || options.gen.max_timestamps <= 0 ||
      options.gen.nnt_depth < 0 || options.gen.max_churn_ops < 0) {
    return Usage();
  }

  if (!replay_path.empty()) {
    return RunReplayMode(replay_path, options.oracles, quiet);
  }

  if (!emit_path.empty()) {
    Rng rng(CaseSeed(options.seed, iteration));
    const FuzzCase c = GenerateCase(options.gen, rng);
    if (!WriteWholeFile(emit_path, FormatReplay(c))) {
      std::fprintf(stderr, "cannot write %s\n", emit_path.c_str());
      return 2;
    }
    std::printf("emitted %s (%s)\n", emit_path.c_str(),
                DescribeCase(c).c_str());
    return 0;
  }

  const FuzzOutcome outcome =
      RunFuzz(options, [](const std::string& line) {
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
      });
  if (outcome.ok) return 0;

  std::string out_path = out_flag;
  if (out_path.empty()) {
    out_path = "gsps_fuzz_seed" + std::to_string(options.seed) + "_iter" +
               std::to_string(outcome.failing_iteration) + ".replay";
  }
  std::string replay = "# gsps_fuzz minimized replay\n";
  replay += "# seed=" + std::to_string(options.seed) +
            " iteration=" + std::to_string(outcome.failing_iteration) +
            " case_seed=" + std::to_string(outcome.case_seed) + "\n";
  replay += "# failure: " + outcome.minimized_failure + "\n";
  replay += FormatReplay(outcome.minimized);
  if (!WriteWholeFile(out_path, replay)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("replay written to %s\n", out_path.c_str());
  return 1;
}
