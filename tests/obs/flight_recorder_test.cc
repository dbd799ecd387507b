// Unit tests for the always-on flight recorder (obs/flight_recorder.h):
// ring recording and snapshot ordering, oldest-first eviction with the
// obs.flight_dropped accounting, the latency-gated slow-query log, the
// nesting suppression of ops with a kind (obs/op.h), and the
// WriteFlightDump text format.
// Concurrent-writer tearing is covered separately under the tsan label in
// tests/concurrency/flight_recorder_concurrency_test.cc.
#include "obs/flight_recorder.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/counters.h"
#include "obs/op.h"
#include "rq/containment.h"

namespace rq {
namespace obs {
namespace {

constexpr uint64_t kDefaultThresholdNs = 100ull * 1000 * 1000;

// Every test owns the global recorder for its duration: clear the ring and
// pin the slow-query threshold so ordering between tests cannot leak.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Global().Reset();
    FlightRecorder::Global().SetSlowQueryThresholdNs(kDefaultThresholdNs);
    SetFlightQueryLabel("");
  }
  void TearDown() override {
    FlightRecorder::Global().SetSlowQueryThresholdNs(kDefaultThresholdNs);
    SetFlightQueryLabel("");
  }
};

TEST_F(FlightRecorderTest, RecordSnapshotRoundtrip) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Record(QueryKind::kPathContainment, kFlightVerdictOk, 1000, 7);
  recorder.Record(QueryKind::kRqContainment, kFlightVerdictRefuted, 2000, 9);
  recorder.Record(QueryKind::kDatalogEval, kFlightVerdictOk, 3000, 11);

  EXPECT_EQ(recorder.TotalRecorded(), 3u);
  std::vector<FlightEntry> entries = recorder.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].seq, 0u);
  EXPECT_EQ(entries[0].kind, QueryKind::kPathContainment);
  EXPECT_EQ(entries[0].verdict, kFlightVerdictOk);
  EXPECT_EQ(entries[0].duration_ns, 1000u);
  EXPECT_EQ(entries[0].work, 7u);
  EXPECT_EQ(entries[1].seq, 1u);
  EXPECT_EQ(entries[1].kind, QueryKind::kRqContainment);
  EXPECT_EQ(entries[1].verdict, kFlightVerdictRefuted);
  EXPECT_EQ(entries[2].seq, 2u);
  EXPECT_EQ(entries[2].work, 11u);
}

TEST_F(FlightRecorderTest, FullRingDropsOldestFirst) {
  FlightRecorder& recorder = FlightRecorder::Global();
  constexpr size_t kOverflow = 10;
  uint64_t dropped_before = GetCounter("obs.flight_dropped")->value();

  for (size_t i = 0; i < FlightRecorder::kCapacity + kOverflow; ++i) {
    recorder.Record(QueryKind::kGraphEval, kFlightVerdictOk, i, i);
  }

  std::vector<FlightEntry> entries = recorder.Snapshot();
  ASSERT_EQ(entries.size(), FlightRecorder::kCapacity);
  // The kOverflow oldest summaries were evicted; the survivors are a dense
  // run of the newest seqs, oldest-first.
  EXPECT_EQ(entries.front().seq, kOverflow);
  EXPECT_EQ(entries.back().seq, FlightRecorder::kCapacity + kOverflow - 1);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, kOverflow + i);
    EXPECT_EQ(entries[i].work, kOverflow + i);  // payload tracks its seq
  }
  EXPECT_EQ(GetCounter("obs.flight_dropped")->value() - dropped_before,
            kOverflow);
}

TEST_F(FlightRecorderTest, SlowQueryLogGatesOnThresholdAndCarriesLabel) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.SetSlowQueryThresholdNs(500);
  SetFlightQueryLabel("path a* <= (a|b)*");

  recorder.Record(QueryKind::kPathContainment, kFlightVerdictOk, 499, 1);
  recorder.Record(QueryKind::kPathContainment, kFlightVerdictRefuted, 500, 2);

  std::vector<SlowQueryEntry> slow = recorder.SlowQueries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].seq, 1u);
  EXPECT_EQ(slow[0].verdict, kFlightVerdictRefuted);
  EXPECT_EQ(slow[0].duration_ns, 500u);
  EXPECT_EQ(slow[0].label, "path a* <= (a|b)*");

  // Threshold 0 disables the log entirely.
  recorder.SetSlowQueryThresholdNs(0);
  recorder.Record(QueryKind::kPathContainment, kFlightVerdictOk, 1 << 30, 3);
  EXPECT_EQ(recorder.SlowQueries().size(), 1u);
}

TEST_F(FlightRecorderTest, SlowQueryLogIsBounded) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.SetSlowQueryThresholdNs(1);
  constexpr size_t kOverflow = 5;
  for (size_t i = 0; i < FlightRecorder::kMaxSlowQueries + kOverflow; ++i) {
    recorder.Record(QueryKind::kRqEval, kFlightVerdictOk, 1000, i);
  }
  std::vector<SlowQueryEntry> slow = recorder.SlowQueries();
  ASSERT_EQ(slow.size(), FlightRecorder::kMaxSlowQueries);
  EXPECT_EQ(slow.front().seq, kOverflow);  // oldest rows evicted first
  EXPECT_EQ(slow.back().seq,
            FlightRecorder::kMaxSlowQueries + kOverflow - 1);
}

TEST_F(FlightRecorderTest, FlightTimerRecordsOnFinish) {
  {
    OpScope op("test.query", QueryKind::kUc2RpqEval);
    op.Finish(kFlightVerdictOk, 42);
  }
  std::vector<FlightEntry> entries = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, QueryKind::kUc2RpqEval);
  EXPECT_EQ(entries[0].verdict, kFlightVerdictOk);
  EXPECT_EQ(entries[0].work, 42u);
}

TEST_F(FlightRecorderTest, FlightTimerAbandonedWithoutFinish) {
  {
    OpScope op("test.query", QueryKind::kDatalogContainment);
    // Destroyed without Finish: an error path unwound through the entry
    // point.
  }
  std::vector<FlightEntry> entries = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].verdict, kFlightVerdictAbandoned);
  EXPECT_EQ(entries[0].work, 0u);
}

TEST_F(FlightRecorderTest, NestedTimersOnOneThreadRecordOnce) {
  {
    OpScope outer("test.query", QueryKind::kRqContainment);
    {
      OpScope inner("test.query", QueryKind::kPathContainment);
      inner.Finish(kFlightVerdictOk, 500);  // suppressed: nested
    }
    outer.Finish(kFlightVerdictRefuted, 3);
  }
  std::vector<FlightEntry> entries = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, QueryKind::kRqContainment);
  EXPECT_EQ(entries[0].verdict, kFlightVerdictRefuted);
  EXPECT_EQ(entries[0].work, 3u);

  // Once the outermost op is gone the next op with a kind records again.
  {
    OpScope next("test.query", QueryKind::kGraphEval);
    next.Finish(kFlightVerdictOk, 1);
  }
  EXPECT_EQ(FlightRecorder::Global().Snapshot().size(), 2u);
}

// Only ops with a kind nest in the flight recorder's sense: an op without
// one records nothing itself and does not suppress the query inside it.
TEST_F(FlightRecorderTest, OpWithoutKindLeavesNestedQueryOutermost) {
  {
    OpScope plain("test.plain");
    plain.Finish(kFlightVerdictOk, 99);
    {
      OpScope query("test.query", QueryKind::kGraphEval);
      query.Finish(kFlightVerdictOk, 5);
    }
  }
  std::vector<FlightEntry> entries = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, QueryKind::kGraphEval);
  EXPECT_EQ(entries[0].work, 5u);
}

TEST_F(FlightRecorderTest, WriteFlightDumpRendersRingAndSlowLog) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.SetSlowQueryThresholdNs(1);
  SetFlightQueryLabel("dump-me");
  recorder.Record(QueryKind::kPathContainment, kFlightVerdictOk, 5000, 17);
  recorder.Record(QueryKind::kDatalogEval, kFlightVerdictError, 6000, 4);

  std::string path = ::testing::TempDir() + "rq_flight_dump_test.txt";
  ASSERT_TRUE(WriteFlightDump(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string dump = buf.str();
  std::remove(path.c_str());

  EXPECT_NE(dump.find("== rq flight recorder: 2 queries recorded"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("seq=0 kind=path-containment verdict=ok"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("seq=1 kind=datalog-eval verdict=error"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("work=17"), std::string::npos) << dump;
  EXPECT_NE(dump.find("== slow queries"), std::string::npos) << dump;
  EXPECT_NE(dump.find("label=dump-me"), std::string::npos) << dump;
}

TEST_F(FlightRecorderTest, WriteFlightDumpRejectsUnwritablePath) {
  EXPECT_FALSE(WriteFlightDump("/nonexistent-dir/flight.txt").ok());
}

TEST_F(FlightRecorderTest, NameMappings) {
  EXPECT_STREQ(QueryKindName(QueryKind::kPathContainment),
               "path-containment");
  EXPECT_STREQ(QueryKindName(QueryKind::kDatalogContainment),
               "datalog-containment");
  EXPECT_STREQ(QueryKindName(QueryKind::kRqEval), "rq-eval");
  EXPECT_STREQ(FlightVerdictName(kFlightVerdictOk), "ok");
  EXPECT_STREQ(FlightVerdictName(kFlightVerdictRefuted), "refuted");
  EXPECT_STREQ(FlightVerdictName(kFlightVerdictUnknown), "unknown");
  EXPECT_STREQ(FlightVerdictName(kFlightVerdictError), "error");
  EXPECT_STREQ(FlightVerdictName(kFlightVerdictAbandoned), "abandoned");
}

TEST_F(FlightRecorderTest, FlightVerdictFromCertaintyMapping) {
  EXPECT_EQ(FlightVerdictFromCertainty(Certainty::kProved),
            kFlightVerdictOk);
  EXPECT_EQ(FlightVerdictFromCertainty(Certainty::kRefuted),
            kFlightVerdictRefuted);
  EXPECT_EQ(FlightVerdictFromCertainty(Certainty::kUnknownUpToBound),
            kFlightVerdictUnknown);
}

}  // namespace
}  // namespace obs
}  // namespace rq
