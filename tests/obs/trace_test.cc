#include "obs/trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/op.h"

namespace rq {
namespace obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { SetTraceMode(TraceMode::kDisabled); }
};

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  SetTraceMode(TraceMode::kDisabled);
  {
    OpScope op("test.disabled");
  }
  EXPECT_TRUE(CollectSpanRecords().empty());
  EXPECT_TRUE(CollectSpanStats().empty());
}

TEST_F(TraceTest, FullModeRecordsNestingDepthAndParent) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope op("test.outer");
    { OpScope op("test.inner"); }
    { OpScope op("test.inner"); }
  }
  std::vector<SpanRecord> records = CollectSpanRecords();
  ASSERT_EQ(records.size(), 3u);
  // Start order: outer first, then the two inner spans.
  EXPECT_EQ(records[0].name, "test.outer");
  EXPECT_EQ(records[0].depth, 0u);
  EXPECT_EQ(records[0].parent, -1);
  for (size_t i : {size_t{1}, size_t{2}}) {
    EXPECT_EQ(records[i].name, "test.inner");
    EXPECT_EQ(records[i].depth, 1u);
    EXPECT_EQ(records[i].parent, 0);
    EXPECT_LE(records[i].start_ns + records[i].duration_ns,
              records[0].start_ns + records[0].duration_ns);
    EXPECT_GE(records[i].start_ns, records[0].start_ns);
  }
  EXPECT_EQ(DroppedSpanRecords(), 0u);
}

TEST_F(TraceTest, AttrsAttachToTheirSpan) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope span("test.attrs");
    span.Attr("answer", 42);
  }
  std::vector<SpanRecord> records = CollectSpanRecords();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].attrs.size(), 1u);
  EXPECT_EQ(records[0].attrs[0].first, "answer");
  EXPECT_EQ(records[0].attrs[0].second, 42u);
}

TEST_F(TraceTest, AggregateModeKeepsStatsOnly) {
  SetTraceMode(TraceMode::kAggregate);
  for (int i = 0; i < 5; ++i) {
    OpScope op("test.agg");
  }
  EXPECT_TRUE(CollectSpanRecords().empty());
  std::vector<SpanStats> stats = CollectSpanStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "test.agg");
  EXPECT_EQ(stats[0].count, 5u);
}

TEST_F(TraceTest, ClearTraceDropsCollectedSpans) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope op("test.cleared");
  }
  ClearTrace();
  EXPECT_TRUE(CollectSpanRecords().empty());
  EXPECT_TRUE(CollectSpanStats().empty());
}

TEST_F(TraceTest, TidsAreDensePerRecordingThread) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope op("test.main_thread");  // first recorder → tid 0
  }
  std::thread worker([] { OpScope op("test.worker_thread"); });
  worker.join();
  std::vector<SpanRecord> records = CollectSpanRecords();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "test.main_thread");
  EXPECT_EQ(records[0].tid, 0u);
  EXPECT_EQ(records[1].name, "test.worker_thread");
  EXPECT_EQ(records[1].tid, 1u);
}

TEST_F(TraceTest, ParentsResolvePerThreadNotAcrossThreads) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope op("test.outer");
    // The worker runs while test.outer is open on this thread. Its spans
    // must root in their own lane, never under another thread's open span.
    std::thread worker([] {
      OpScope op("test.worker_root");
      { OpScope op("test.worker_child"); }
    });
    worker.join();
  }
  std::vector<SpanRecord> records = CollectSpanRecords();
  ASSERT_EQ(records.size(), 3u);
  int32_t worker_root = -1;
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    if (r.name == "test.worker_root") {
      worker_root = static_cast<int32_t>(i);
      EXPECT_EQ(r.parent, -1);  // not parented under test.outer
      EXPECT_EQ(r.depth, 0u);
    }
  }
  ASSERT_GE(worker_root, 0);
  for (const SpanRecord& r : records) {
    if (r.name != "test.worker_child") continue;
    EXPECT_EQ(r.parent, worker_root);
    EXPECT_EQ(r.tid, records[static_cast<size_t>(worker_root)].tid);
  }
}

TEST_F(TraceTest, SpanStraddlingClearIsDiscardedEntirely) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope span("test.straddler");
    ClearTrace();  // invalidates the recording session mid-span
    span.Attr("late", 1);  // must not touch the cleared buffer
  }
  // The straddling span contributes neither a record nor aggregate stats.
  EXPECT_TRUE(CollectSpanRecords().empty());
  EXPECT_TRUE(CollectSpanStats().empty());
  // The session keeps working for spans opened after the clear.
  {
    OpScope op("test.after_clear");
  }
  std::vector<SpanRecord> records = CollectSpanRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "test.after_clear");
  EXPECT_EQ(records[0].parent, -1);
  EXPECT_EQ(records[0].depth, 0u);
}

TEST_F(TraceTest, ModeSwitchInvalidatesStaleThreadStacks) {
  SetTraceMode(TraceMode::kFull);
  {
    OpScope span("test.old_session");
    // Restarting tracing mid-span starts a new session; the open span
    // belongs to the old one and must not become a parent in the new one.
    SetTraceMode(TraceMode::kFull);
    { OpScope op("test.new_session"); }
  }
  std::vector<SpanRecord> records = CollectSpanRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "test.new_session");
  EXPECT_EQ(records[0].parent, -1);
  EXPECT_EQ(records[0].depth, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace rq
