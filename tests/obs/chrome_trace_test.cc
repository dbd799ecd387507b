#include "obs/chrome_trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "obs/op.h"
#include "obs/trace.h"

namespace rq {
namespace obs {
namespace {

class ChromeTraceTest : public ::testing::Test {
 protected:
  void TearDown() override { SetTraceMode(TraceMode::kDisabled); }
};

// Structural golden check: the export must be the Trace Event "JSON Object
// Format" — parseable, a "traceEvents" array of "X" complete events with
// microsecond ts/dur, plus "M" thread_name metadata. This is what Perfetto
// and chrome://tracing validate on load.
TEST_F(ChromeTraceTest, ExportIsValidTraceEventJson) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope op("containment.check");
    { OpScope span("fold.construct"); span.Attr("states", 12); }
  }
  auto parsed = JsonValue::Parse(ChromeTraceJson().Dump(1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("displayTimeUnit")->string_value(), "ns");

  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t complete = 0, metadata = 0;
  for (const JsonValue& e : events->items()) {
    const std::string& ph = e.Find("ph")->string_value();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.Find("name")->string_value(), "thread_name");
      ASSERT_NE(e.Find("args"), nullptr);
      EXPECT_FALSE(e.Find("args")->Find("name")->string_value().empty());
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_FALSE(e.Find("name")->string_value().empty());
    EXPECT_FALSE(e.Find("cat")->string_value().empty());
    EXPECT_NE(e.Find("pid"), nullptr);
    EXPECT_NE(e.Find("tid"), nullptr);
    EXPECT_GE(e.Find("ts")->number_value(), 0.0);
    EXPECT_GE(e.Find("dur")->number_value(), 0.0);
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(metadata, 1u);  // one lane: everything ran on this thread
}

TEST_F(ChromeTraceTest, CategoryIsSubsystemPrefixAndArgsAreAttrs) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope span("datalog.fixpoint");
    span.Attr("rounds", 3);
  }
  JsonValue doc = ChromeTraceJson();
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const JsonValue& e : events->items()) {
    if (e.Find("ph")->string_value() != "X") continue;
    found = true;
    EXPECT_EQ(e.Find("name")->string_value(), "datalog.fixpoint");
    EXPECT_EQ(e.Find("cat")->string_value(), "datalog");
    ASSERT_NE(e.Find("args"), nullptr);
    EXPECT_EQ(e.Find("args")->Find("rounds")->uint_value(), 3u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ChromeTraceTest, EachRecordingThreadGetsItsOwnNamedLane) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope op("test.main_lane");
  }
  std::thread worker([] { OpScope op("test.worker_lane"); });
  worker.join();

  JsonValue doc = ChromeTraceJson();
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<uint64_t> lanes;
  std::set<std::string> names;
  for (const JsonValue& e : events->items()) {
    if (e.Find("ph")->string_value() != "M") continue;
    lanes.insert(e.Find("tid")->uint_value());
    names.insert(e.Find("args")->Find("name")->string_value());
  }
  EXPECT_EQ(lanes.size(), 2u);
  EXPECT_TRUE(names.count("main"));
  EXPECT_TRUE(names.count("worker-1"));
}

TEST_F(ChromeTraceTest, EmptyTraceIsStillValid) {
  SetTraceMode(TraceMode::kFull);
  ClearTrace();
  auto parsed = JsonValue::Parse(ChromeTraceJson().Dump(1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_NE(parsed->Find("traceEvents"), nullptr);
  EXPECT_TRUE(parsed->Find("traceEvents")->items().empty());
}

TEST_F(ChromeTraceTest, WriteChromeTraceFileRoundTrips) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope op("test.file_span");
  }
  std::string path = ::testing::TempDir() + "/chrome_trace_test.json";
  Status status = WriteChromeTraceFile(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_GE(parsed->Find("traceEvents")->items().size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace rq
