// Tests for the flight recorder (gsps/obs/flight_recorder.h): ring
// round-trip through a dump file (including overwrite past the ring
// capacity), seqlock-published window/cumulative sections, the SIGUSR1
// dump-and-continue handler, and Disarm. The recorder is exercised through
// its public API (direct RecordSpan/Publish calls), which works in both
// build modes — only the engine instrumentation that would feed it is
// compiled out under GSPS_OBS_DISABLED.

#include "gsps/obs/flight_recorder.h"

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gsps/obs/metrics.h"
#include "gsps/obs/window.h"
#include "test_json.h"

namespace gsps {
namespace {

using obs::Counter;
using obs::FlightRecorder;
using obs::MetricSink;
using obs::Span;
using ::gsps::testing::CountOccurrences;
using ::gsps::testing::JsonParser;
using ::gsps::testing::ReadWholeFile;

std::string DumpPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

Span MakeSpan(uint64_t span_id) {
  Span span;
  span.name = "unit_span";
  span.category = "test";
  span.stage = obs::Stage::kJoinRefresh;
  span.stream = 1;
  span.ts_micros = static_cast<int64_t>(span_id) * 10;
  span.dur_micros = 7;
  span.span_id = span_id;
  return span;
}

// Every test leaves the recorder disarmed and empty so the rest of the
// test binary (and ctest siblings sharing the process) see the default.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FlightRecorder::Global().Disarm();
    FlightRecorder::Global().Reset();
  }
};

TEST_F(FlightRecorderTest, DumpRoundTripParsesBack) {
  const std::string path = DumpPath("fr_roundtrip.json");
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Arm(path.c_str());
  recorder.Reset();
  for (uint64_t id = 1; id <= 5; ++id) recorder.RecordSpan(MakeSpan(id));

  ASSERT_TRUE(recorder.DumpNow());
  const std::string text = ReadWholeFile(path);
  JsonParser parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
  EXPECT_EQ(CountOccurrences(text, "\"name\":\"unit_span\""), 5);
  EXPECT_EQ(CountOccurrences(text, "\"torn_spans\":0"), 1);
  // Nothing published yet: both aggregate sections are null.
  EXPECT_NE(text.find("\"window\":null"), std::string::npos);
  EXPECT_NE(text.find("\"cumulative\":null"), std::string::npos);
  // Spans dump oldest first with their recorded identity intact.
  EXPECT_LT(text.find("\"span_id\":1"), text.find("\"span_id\":5"));
  EXPECT_NE(text.find("\"stage\":2"), std::string::npos);
  EXPECT_NE(text.find("\"stream\":1"), std::string::npos);
}

TEST_F(FlightRecorderTest, RingOverwritesOldestPastCapacity) {
  const std::string path = DumpPath("fr_overwrite.json");
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Arm(path.c_str());
  recorder.Reset();
  const int total = obs::kFlightRingSize + 10;
  for (int id = 1; id <= total; ++id) {
    recorder.RecordSpan(MakeSpan(static_cast<uint64_t>(id)));
  }

  ASSERT_TRUE(recorder.DumpNow());
  const std::string text = ReadWholeFile(path);
  JsonParser parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
  EXPECT_EQ(CountOccurrences(text, "\"name\":\"unit_span\""),
            obs::kFlightRingSize);
  // The ten oldest spans were overwritten; the newest survive.
  EXPECT_EQ(text.find("\"span_id\":10}"), std::string::npos);
  EXPECT_NE(text.find("\"span_id\":11}"), std::string::npos);
  EXPECT_NE(text.find("\"span_id\":" + std::to_string(total) + "}"),
            std::string::npos);
}

TEST_F(FlightRecorderTest, PublishedWindowAndCumulativeAppearInDump) {
  const std::string path = DumpPath("fr_published.json");
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Arm(path.c_str());
  recorder.Reset();

  obs::WindowSnapshot window;
  window.seq = 42;
  window.duration_micros = 1000;
  window.delta.Add(Counter::kNntInsertEdges, 17);
  recorder.PublishWindow(window);
  MetricSink cumulative;
  cumulative.Add(Counter::kNntInsertEdges, 99);
  recorder.PublishCumulative(cumulative);

  ASSERT_TRUE(recorder.DumpNow());
  const std::string text = ReadWholeFile(path);
  JsonParser parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
  EXPECT_NE(text.find("\"window\":{\"seq\":42"), std::string::npos);
  EXPECT_NE(text.find("\"duration_micros\":1000"), std::string::npos);
  EXPECT_EQ(text.find("\"window\":null"), std::string::npos);
  EXPECT_EQ(text.find("\"cumulative\":null"), std::string::npos);
  // The cumulative section carries the published counter value.
  const size_t cumulative_at = text.find("\"cumulative\":{");
  ASSERT_NE(cumulative_at, std::string::npos);
  EXPECT_NE(text.find("\"gsps_nnt_insert_edges\":99", cumulative_at),
            std::string::npos);
}

TEST_F(FlightRecorderTest, RegistryBarrierPublishesWhileArmed) {
  // MergeAndReset publishes the cumulative aggregate and
  // WindowedTelemetry::Advance the closed window — the live wiring the
  // monitor's final dump depends on.
  const std::string path = DumpPath("fr_registry.json");
  obs::MetricsRegistry::Global().Reset();
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Arm(path.c_str());
  recorder.Reset();

  MetricSink sink;
  sink.Add(Counter::kNntInsertEdges, 13);
  obs::MetricsRegistry::Global().MergeAndReset(sink);
  obs::WindowedTelemetry::Global().Advance();

  ASSERT_TRUE(recorder.DumpNow());
  const std::string text = ReadWholeFile(path);
  JsonParser parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
  EXPECT_NE(text.find("\"window\":{\"seq\":1"), std::string::npos);
  const size_t cumulative_at = text.find("\"cumulative\":{");
  ASSERT_NE(cumulative_at, std::string::npos);
  EXPECT_NE(text.find("\"gsps_nnt_insert_edges\":13", cumulative_at),
            std::string::npos);
  obs::MetricsRegistry::Global().Reset();
}

TEST_F(FlightRecorderTest, SigUsr1DumpsAndContinues) {
  const std::string path = DumpPath("fr_sigusr1.json");
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Arm(path.c_str());
  recorder.Reset();
  for (uint64_t id = 1; id <= 3; ++id) recorder.RecordSpan(MakeSpan(id));

  ASSERT_EQ(std::raise(SIGUSR1), 0);
  // The handler returned (we are still running) and wrote a parseable dump.
  const std::string text = ReadWholeFile(path);
  ASSERT_FALSE(text.empty());
  JsonParser parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
  EXPECT_EQ(CountOccurrences(text, "\"name\":\"unit_span\""), 3);

  // Recording keeps working after the signal dump.
  recorder.RecordSpan(MakeSpan(4));
  ASSERT_TRUE(recorder.DumpNow());
  EXPECT_EQ(CountOccurrences(ReadWholeFile(path), "\"name\":\"unit_span\""),
            4);
}

TEST_F(FlightRecorderTest, DisarmStopsRecordingAndArmedReadsFalse) {
  const std::string path = DumpPath("fr_disarm.json");
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Arm(path.c_str());
  EXPECT_TRUE(obs::FlightRecorderArmed());
  recorder.Reset();
  recorder.Disarm();
  EXPECT_FALSE(obs::FlightRecorderArmed());
  recorder.RecordSpan(MakeSpan(1));  // No-op while disarmed.

  // DumpNow from normal code still works while disarmed; the ring is empty.
  ASSERT_TRUE(recorder.DumpNow());
  const std::string text = ReadWholeFile(path);
  JsonParser parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
  EXPECT_NE(text.find("\"spans\":[]"), std::string::npos);
}

}  // namespace
}  // namespace gsps
