// The executor behind ParallelForWorker (common/parallel.h): no thread per
// call, nested fan-out that completes with every pool thread busy, the
// caller's deadline / cancel token / memory budget and flight-recorder
// nesting carried onto helpers, and the per-server request executor's
// FIFO and drain. Labels `tsan` and `sanitize`.
//
// Every fan-out in this binary asks for at most kPool workers, so the
// process-wide fan-out executor holds exactly kPool threads once warm.
#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/mem.h"
#include "containment/batch.h"
#include "graph/graph_db.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/op.h"
#include "pathquery/path_query.h"
#include "regex/regex.h"

namespace rq {
namespace {

constexpr unsigned kPool = 4;

size_t ThreadCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

// A one-shot countdown (std::latch in a form every sanitizer models).
class Latch {
 public:
  explicit Latch(int count) : count_(count) {}
  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_all();
    cv_.wait(lock, [this] { return count_ <= 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

// Keeps each item busy long enough that helpers reliably join the fan-out,
// even on a machine with one free core (sleeping yields the CPU).
void Nap() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }

// Runs a kPool-wide fan-out of `n` napping items and returns how many ran
// on helpers (worker != 0).
template <typename Item>
size_t FanOutCountingHelpers(size_t n, Item item) {
  std::atomic<size_t> on_helpers{0};
  ParallelForWorker(n, kPool, [&](unsigned worker, size_t i) {
    Nap();
    item(i);
    if (worker != 0) on_helpers.fetch_add(1);
  });
  return on_helpers.load();
}

TEST(ExecutorTest, RepeatedFanOutStartsNoThreads) {
  Alphabet alphabet;
  RegexPtr q1 = ParseRegex("a b*", &alphabet).value();
  RegexPtr q2 = ParseRegex("a (b | c)*", &alphabet).value();
  std::vector<PathContainmentJob> jobs = {{q1.get(), q2.get()},
                                          {q2.get(), q1.get()}};
  ContainmentBatchOptions batch_options;
  batch_options.jobs = 2;
  auto graph = GraphDb::FromText(
      "a e b\nb e c\nc e d\nd e a\na f c\nb f d\nc e e\ne f a\n");
  ASSERT_TRUE(graph.ok());
  RegexPtr path = ParseRegex("e f? e", &graph->alphabet()).value();
  PathEvalOptions eval_options;
  eval_options.jobs = kPool;

  // Warm-up: the executor grows to the widest fan-out asked for.
  CheckPathContainmentBatch(jobs, alphabet, batch_options);
  std::vector<std::pair<NodeId, NodeId>> expected =
      EvalPathQuery(*graph, *path, eval_options);
  const size_t threads = ThreadCount();

  for (int i = 0; i < 200; ++i) {
    std::vector<PathContainmentResult> results =
        CheckPathContainmentBatch(jobs, alphabet, batch_options);
    ASSERT_TRUE(results[0].status.ok());
    ASSERT_TRUE(results[1].status.ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(EvalPathQuery(*graph, *path, eval_options), expected);
  }
  EXPECT_EQ(ThreadCount(), threads);
}

TEST(ExecutorTest, WorkerIdsAreDenseAndEveryIndexRunsOnce) {
  std::vector<std::atomic<int>> runs(64);
  std::vector<std::atomic<int>> by_worker(kPool);
  std::atomic<bool> out_of_range{false};
  ParallelForWorker(runs.size(), kPool, [&](unsigned worker, size_t i) {
    runs[i].fetch_add(1);
    if (worker >= kPool) {
      out_of_range = true;
      return;
    }
    by_worker[worker].fetch_add(1);
  });
  EXPECT_FALSE(out_of_range.load());
  for (const auto& count : runs) EXPECT_EQ(count.load(), 1);
  // Helpers are numbered 1.. in join order and each joins with a ticket,
  // so no helper id is skipped (the caller, 0, may find none left).
  bool gap = false;
  for (unsigned w = 1; w < kPool; ++w) {
    if (by_worker[w].load() == 0) gap = true;
    if (gap) {
      EXPECT_EQ(by_worker[w].load(), 0) << "worker " << w;
    }
  }
}

TEST(ExecutorTest, NestedFanOutCompletesWhileEveryPoolThreadIsBusy) {
  ParallelForWorker(kPool, kPool, [](unsigned, size_t) {});  // warm to kPool
  // Two outside callers fan out kPool items each. 2 callers + kPool pool
  // threads can run items at once; the latch holds every one of them until
  // all are running, so when the nested fan-outs below start, every pool
  // thread is occupied and only the nested callers can do the inner work.
  Latch all_running(2 + kPool);
  std::atomic<int> inner_items{0};
  auto outer = [&] {
    ParallelForWorker(kPool, kPool, [&](unsigned, size_t) {
      all_running.ArriveAndWait();
      ParallelForWorker(16, kPool, [&](unsigned, size_t) {
        inner_items.fetch_add(1);
      });
    });
  };
  std::thread first(outer);
  std::thread second(outer);
  first.join();
  second.join();
  EXPECT_EQ(inner_items.load(), 2 * static_cast<int>(kPool) * 16);
}

TEST(ExecutorTest, HelpersObserveTheCallersCancelToken) {
  CancelToken cancel;
  cancel.Cancel();
  ExecContext ctx(Deadline::Infinite(), &cancel);
  ScopedExecContext scoped(&ctx);
  std::atomic<int> stopped{0};
  size_t on_helpers = FanOutCountingHelpers(16, [&](size_t) {
    if (CheckExecContext().code() == StatusCode::kCancelled) {
      stopped.fetch_add(1);
    }
  });
  EXPECT_GT(on_helpers, 0u);
  EXPECT_EQ(stopped.load(), 16);
}

TEST(ExecutorTest, HelpersObserveTheCallersDeadline) {
  ExecContext ctx(Deadline::AfterNanos(-1));
  ScopedExecContext scoped(&ctx);
  std::atomic<int> stopped{0};
  size_t on_helpers = FanOutCountingHelpers(16, [&](size_t) {
    if (CheckExecContext().code() == StatusCode::kDeadlineExceeded) {
      stopped.fetch_add(1);
    }
  });
  EXPECT_GT(on_helpers, 0u);
  EXPECT_EQ(stopped.load(), 16);
}

TEST(ExecutorTest, HelpersChargeAndObserveTheCallersMemoryBudget) {
  MemContext budget(1000);
  ScopedMemContext scoped(&budget);
  std::atomic<int> charged{0};
  size_t on_helpers = FanOutCountingHelpers(16, [&](size_t) {
    if (MemContext::Current() == nullptr) return;
    MemContext::Current()->Charge(MemSubsystem::kOther, 100);
    charged.fetch_add(1);
  });
  EXPECT_GT(on_helpers, 0u);
  EXPECT_EQ(charged.load(), 16);
  EXPECT_EQ(budget.total_bytes(), 1600u);  // every charge reached the pot
  EXPECT_TRUE(budget.exceeded());

  // Once the budget has tripped, work on any thread stops at its poll.
  std::atomic<int> stopped{0};
  FanOutCountingHelpers(16, [&](size_t) {
    if (CheckExecContext().code() == StatusCode::kResourceExhausted) {
      stopped.fetch_add(1);
    }
  });
  EXPECT_EQ(stopped.load(), 16);
}

TEST(ExecutorTest, BatchCancelledByCallerReportsCancelledOnEveryJob) {
  Alphabet alphabet;
  RegexPtr q1 = ParseRegex("a b*", &alphabet).value();
  RegexPtr q2 = ParseRegex("a (b | c)*", &alphabet).value();
  std::vector<PathContainmentJob> jobs(32, {q1.get(), q2.get()});
  CancelToken cancel;
  cancel.Cancel();
  ExecContext ctx(Deadline::Infinite(), &cancel);
  ScopedExecContext scoped(&ctx);
  ContainmentBatchOptions options;
  options.jobs = kPool;
  for (const PathContainmentResult& result :
       CheckPathContainmentBatch(jobs, alphabet, options)) {
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  }
}

// A job records in the flight recorder the same way whichever thread runs
// it: under an outer op with a kind it is nested and suppressed, at top
// level it is a query of its own.
size_t FlightEntriesOfBatch(unsigned jobs, bool outer_timer) {
  Alphabet alphabet;
  RegexPtr q1 = ParseRegex("a b*", &alphabet).value();
  RegexPtr q2 = ParseRegex("a (b | c)*", &alphabet).value();
  std::vector<PathContainmentJob> batch(8, {q1.get(), q2.get()});
  ContainmentBatchOptions options;
  options.jobs = jobs;
  obs::FlightRecorder::Global().Reset();
  if (outer_timer) {
    obs::OpScope op("test.outer", obs::QueryKind::kRqContainment);
    CheckPathContainmentBatch(batch, alphabet, options);
    op.Finish(obs::kFlightVerdictOk, 0);
  } else {
    CheckPathContainmentBatch(batch, alphabet, options);
  }
  return obs::FlightRecorder::Global().Snapshot().size();
}

TEST(ExecutorTest, BatchUnderAnOuterFlightTimerRecordsOneEntry) {
  EXPECT_EQ(FlightEntriesOfBatch(1, /*outer_timer=*/true), 1u);
  EXPECT_EQ(FlightEntriesOfBatch(kPool, /*outer_timer=*/true), 1u);
  EXPECT_EQ(FlightEntriesOfBatch(1, /*outer_timer=*/false), 8u);
  EXPECT_EQ(FlightEntriesOfBatch(kPool, /*outer_timer=*/false), 8u);
}

TEST(ExecutorTest, HelpersRunAtTheCallersFlightDepth) {
  obs::FlightRecorder::Global().Reset();
  size_t on_helpers;
  {
    obs::OpScope outer("test.outer", obs::QueryKind::kRqContainment);
    on_helpers = FanOutCountingHelpers(16, [](size_t) {
      obs::OpScope inner("test.inner", obs::QueryKind::kPathContainment);
      inner.Finish(obs::kFlightVerdictOk, 0);
    });
    outer.Finish(obs::kFlightVerdictOk, 0);
  }
  EXPECT_GT(on_helpers, 0u);
  EXPECT_EQ(obs::FlightRecorder::Global().Snapshot().size(), 1u);
  EXPECT_EQ(obs::OpScope::Current(), nullptr);
}

TEST(ExecutorTest, RunsTasksInOrderAndShutdownDrainsThem) {
  std::mutex mu;
  std::vector<int> order;
  {
    Executor executor;
    executor.Grow(1);
    for (int i = 0; i < 100; ++i) {
      executor.Post([&, i] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      });
    }
    executor.Shutdown();
    EXPECT_EQ(executor.pending(), 0u);
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace rq
