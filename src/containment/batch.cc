#include "containment/batch.h"

#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/mem.h"
#include "common/parallel.h"
#include "common/status.h"
#include "obs/op.h"
#include "obs/subsystems.h"

namespace rq {

namespace {

// The body of both batch entry points: runs check(*lhs, *rhs) for every
// job on the fan-out executor (common/parallel.h), wrapped in the batch
// engine's bookkeeping. A job is a pair of pointers; a null one fails that
// job with a per-job status instead of aborting the process from a worker
// thread, and — unlike runtime failures — never cancels the rest of the
// batch.
//
// Deadlines and cancellation: each job chains to the context installed on
// the thread running it, which is the caller's own on every worker
// (fan-out helpers install a child of it), and runs under a fresh child
// context combining:
//   * a fresh job deadline (options.job_timeout_ms, measured from pickup)
//     clipped to the caller's deadline, and
//   * one cancel source — the caller-supplied token, else the caller's
//     token, else the batch's internal first-error token.
// Jobs not yet started when any of those sources fires report kCancelled
// without running; jobs already running unwind at their next poll only if
// their own context watches the fired token.
// Memory budgets follow the same shape: each job runs under a fresh
// per-job context (options.memory_budget_bytes, 0 = unlimited) chained to
// the caller's MemContext — job bytes roll up into the caller's
// accounting, and a trip of either budget fails the job with
// kResourceExhausted at its next poll.
//
// Per-worker rows in an active profile come from the jobs' own ops: a
// check opens one directly under the batch's op, which the fan-out turns
// into a job of the thread that ran it (obs/op.h, obs/profile.h). A job
// refused before it starts, or an automaton pair answered from the
// verdict cache, opens no op and is not counted.
template <typename JobResult, typename Job, typename Check>
std::vector<JobResult> RunBatch(const char* entry, const char* operand,
                                const std::vector<Job>& jobs,
                                const ContainmentBatchOptions& options,
                                Check check) {
  obs::OpScope op("containment.batch");
  op.Attr("jobs", jobs.size());
  obs::BatchCounters& counters = obs::BatchCounters::Get();
  counters.batches.Increment();
  counters.batch_checks.Add(jobs.size());
  // Queue-depth gauge: all jobs enter the backlog up front; each finished
  // job drains one. The peak is the deepest backlog across any overlapping
  // batches. One gauge update per job, not per inner step, so the
  // checkers' hot loops stay untouched.
  counters.queue_depth.Add(static_cast<int64_t>(jobs.size()));
  unsigned workers =
      options.jobs != 0 ? options.jobs : DefaultContainmentJobs();
  std::vector<JobResult> results(jobs.size());
  CancelToken first_error;

  auto run_job = [&](size_t i, JobResult& result) {
    const auto& [lhs, rhs] = jobs[i];
    if (lhs == nullptr || rhs == nullptr) {
      result.status = InvalidArgumentError(std::string(entry) + ": job " +
                                           std::to_string(i) +
                                           " has a null " + operand);
      return;
    }
    ExecContext* parent = ExecContext::Current();
    CancelToken* parent_cancel =
        parent != nullptr ? parent->cancel_token() : nullptr;
    if (first_error.Cancelled() ||
        (options.cancel != nullptr && options.cancel->Cancelled()) ||
        (parent_cancel != nullptr && parent_cancel->Cancelled())) {
      result.status = CancelledError(std::string(entry) + ": job " +
                                     std::to_string(i) +
                                     " cancelled before start");
      return;
    }
    Deadline deadline = options.job_timeout_ms > 0
                            ? Deadline::AfterMillis(options.job_timeout_ms)
                            : Deadline::Infinite();
    if (parent != nullptr) {
      deadline = Deadline::Earlier(deadline, parent->deadline());
    }
    ExecContext ctx(deadline, options.cancel != nullptr ? options.cancel
                              : parent_cancel != nullptr ? parent_cancel
                                                         : &first_error);
    MemContext* mem_parent = MemContext::Current();
    MemContext mem_ctx(options.memory_budget_bytes, mem_parent);
    {
      ScopedExecContext scoped(&ctx);
      // A budget-free root with no parent tracks nothing: skip it.
      ScopedMemContext scoped_mem(
          options.memory_budget_bytes != 0 || mem_parent != nullptr
              ? &mem_ctx
              : nullptr);
      result = check(*lhs, *rhs);
    }
    if (!result.status.ok() && options.cancel_on_error) first_error.Cancel();
  };
  ParallelForWorker(jobs.size(), workers, [&](unsigned, size_t i) {
    run_job(i, results[i]);
    counters.queue_depth.Sub(1);
  });
  return results;
}

}  // namespace

void SetDefaultContainmentJobs(unsigned jobs) {
  SetDefaultParallelJobs(jobs);
}

unsigned DefaultContainmentJobs() { return DefaultParallelJobs(); }

std::vector<LanguageContainmentResult> CheckContainmentBatch(
    const std::vector<NfaContainmentJob>& jobs,
    const ContainmentBatchOptions& options) {
  return RunBatch<LanguageContainmentResult>(
      "CheckContainmentBatch", "automaton", jobs, options,
      [&](const Nfa& a, const Nfa& b) {
        switch (options.algo) {
          case ContainmentAlgo::kAntichain:
            return CheckLanguageContainmentAntichain(a, b);
          case ContainmentAlgo::kExplicit:
            return CheckLanguageContainmentExplicit(a, b);
          case ContainmentAlgo::kOnTheFly:
            break;
        }
        return CheckLanguageContainment(a, b);
      });
}

std::vector<PathContainmentResult> CheckPathContainmentBatch(
    const std::vector<PathContainmentJob>& jobs, const Alphabet& alphabet,
    const ContainmentBatchOptions& options) {
  return RunBatch<PathContainmentResult>(
      "CheckPathContainmentBatch", "regex", jobs, options,
      [&](const Regex& q1, const Regex& q2) {
        return CheckPathQueryContainment(q1, q2, alphabet);
      });
}

}  // namespace rq
