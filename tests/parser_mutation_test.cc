// Deterministic mutation sweep over the text parsers: hostile input must be
// rejected with a diagnostic or, when it parses, run through every engine
// without a false negative, a crash or a CHECK abort.
//
// A fixed-seed byte mutator edits every committed replay (tests/corpus/)
// and one generated monitor workload (query file + stream file, the
// gsps_monitor path) a fixed number of times: replace, insert or delete a
// byte, duplicate a line, or swap a number for an extreme value. Each
// mutant must either fail to parse or pass RunOracles with the baselines
// off (they test the GraphGrep/gIndex filters, not the parsers).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gsps/common/random.h"
#include "gsps/fuzz/oracles.h"
#include "gsps/fuzz/replay.h"
#include "gsps/gen/reality_like.h"
#include "gsps/graph/graph_io.h"
#include "gsps/graph/stream_io.h"

namespace gsps {
namespace {

constexpr int kMutantsPerReplay = 60;
constexpr int kWorkloadMutants = 200;

// The bytes a replacement or insertion draws from: the format's digits,
// separators and record letters, plus a few it never uses.
constexpr std::string_view kAlphabet = "0123456789 -+\nvetqsgd#x\t";
constexpr std::array<std::string_view, 5> kExtremes = {
    "0", "-1", "2147483647", "-2147483648", "99999999999"};

size_t Pick(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

// Applies one random edit to `text` (non-empty).
std::string Mutate(std::string text, Rng& rng) {
  const size_t pos = Pick(rng, text.size());
  const char byte = kAlphabet[Pick(rng, kAlphabet.size())];
  switch (rng.UniformInt(0, 4)) {
    case 0:
      text[pos] = byte;
      break;
    case 1:
      text.insert(pos, 1, byte);
      break;
    case 2:
      text.erase(pos, 1);
      break;
    case 3: {
      // Duplicate the line holding `pos`.
      const size_t begin = text.rfind('\n', pos) == std::string::npos
                               ? 0
                               : text.rfind('\n', pos) + 1;
      const size_t end = std::min(text.find('\n', begin), text.size());
      text.insert(begin, text.substr(begin, end - begin) + "\n");
      break;
    }
    default: {
      // Swap the number nearest after `pos` for an extreme value.
      size_t begin = pos;
      while (begin < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[begin])) == 0) {
        ++begin;
      }
      if (begin == text.size()) break;
      size_t end = begin;
      while (end < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[end])) != 0) {
        ++end;
      }
      if (begin > 0 && text[begin - 1] == '-') --begin;
      text.replace(begin, end - begin,
                   kExtremes[Pick(rng, kExtremes.size())]);
      break;
    }
  }
  return text;
}

OracleOptions NoBaselines() {
  OracleOptions options;
  options.check_baselines = false;
  return options;
}

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ParserMutationTest, ReplayMutantsAreRejectedOrPassAllOracles) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(GSPS_CORPUS_DIR)) {
    if (entry.path().extension() == ".replay") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  int parsed = 0;
  for (size_t f = 0; f < files.size(); ++f) {
    const std::string original = ReadFileOrDie(files[f]);
    Rng rng(1000 + f);
    for (int m = 0; m < kMutantsPerReplay; ++m) {
      const std::string mutant = Mutate(original, rng);
      const std::optional<FuzzCase> c = ParseReplay(mutant);
      if (!c.has_value()) continue;
      ++parsed;
      EXPECT_EQ(RunOracles(*c, NoBaselines()), std::nullopt)
          << files[f].filename() << " mutant " << m << ":\n"
          << mutant;
    }
  }
  // Some mutants must get past the parser, or the sweep checks nothing
  // downstream of it.
  EXPECT_GT(parsed, 0);
}

TEST(ParserMutationTest, MonitorInputMutantsAreRejectedOrPassAllOracles) {
  RealityLikeParams params;
  params.num_streams = 1;
  params.num_queries = 3;
  params.num_timestamps = 6;
  params.seed = 7;
  const StreamDataset dataset = MakeRealityLikeStreams(params);
  const std::string queries = FormatGraphs(dataset.queries);
  const std::string stream = FormatStream(dataset.streams.front());
  Rng rng(2024);
  int parsed = 0;
  for (int m = 0; m < kWorkloadMutants; ++m) {
    const bool mutate_queries = rng.Bernoulli(0.5);
    const std::string query_text =
        mutate_queries ? Mutate(queries, rng) : queries;
    const std::string stream_text =
        mutate_queries ? stream : Mutate(stream, rng);
    std::optional<std::vector<Graph>> parsed_queries = ParseGraphs(query_text);
    std::optional<GraphStream> parsed_stream = ParseStream(stream_text);
    if (!parsed_queries.has_value() || !parsed_stream.has_value()) continue;
    ++parsed;
    FuzzCase c;
    c.workload.queries = std::move(*parsed_queries);
    c.workload.streams.push_back(std::move(*parsed_stream));
    EXPECT_EQ(RunOracles(c, NoBaselines()), std::nullopt)
        << "mutant " << m << " of the "
        << (mutate_queries ? "query" : "stream") << " file:\n"
        << (mutate_queries ? query_text : stream_text);
  }
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace gsps
