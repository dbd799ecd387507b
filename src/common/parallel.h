// The thread pool: Executor, and the fan-out built on it.
//
// An Executor is a fixed set of threads draining one FIFO of tasks. Two
// kinds of instance exist in the process: the fan-out executor behind
// ParallelForWorker, which batched containment (containment/batch.h) and
// multi-source graph evaluation (pathquery/path_query.h) share, and one
// executor per QueryServer that runs admitted requests (server/server.h).
// An executor starts with no threads; they are created only when it is
// grown, never per task, so steady traffic starts no threads.
//
// ParallelForWorker(n, jobs, work) runs work(worker, i) for i in [0, n)
// with up to `jobs` threads taking part. Indices are handed out by an
// atomic ticket counter, so uneven per-item costs balance automatically.
// jobs <= 1 (or n <= 1) is a plain serial loop on the calling thread.
//
// The caller takes part: it posts min(jobs, n) - 1 helper tasks to the
// fan-out executor and then claims tickets itself as worker 0. It waits
// only for tickets that were already claimed, never for a helper to
// start, and a helper that starts after the tickets are gone returns
// without touching `work`. Nested fan-out, and fan-out from a server
// request, therefore cannot deadlock: with no thread free, the caller does
// all the work. Helpers are numbered 1.. in the order they join, so worker
// ids stay dense in [0, min(jobs, n)).
//
// Each helper runs its tickets under the caller's context: a child of the
// caller's ExecContext (deadline and cancel token), a mirror of the
// caller's MemContext when it has one (same pot and budget), and the
// caller's op (obs/op.h), which carries its nesting depth for the flight
// recorder. Work behaves the same whichever thread runs it, and an op the
// work opens counts as one job in the active profile's per-thread rows.
//
// The fan-out executor grows to the largest min(jobs, n) any call has
// asked for (or the largest default set below) and never shrinks.
//
// `work` must only touch per-index state or state that is internally
// synchronized (obs counters/histograms/gauges and the automata cache
// qualify). Exceptions must not escape `work` or an executor task.
#ifndef RQ_COMMON_PARALLEL_H_
#define RQ_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rq {

class Executor {
 public:
  // Runs every task posted so far, then joins the threads.
  ~Executor() { Shutdown(); }

  // Starts threads until there are at least `threads`; never shrinks.
  void Grow(unsigned threads);
  void Post(std::function<void()> task);
  // Tasks posted and not yet started.
  size_t pending() const;
  // Like the destructor; posting afterwards is a bug. Idempotent.
  void Shutdown();

 private:
  void Loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

// Process-wide default worker count used when a caller's jobs option is 0.
// Starts at 1 (serial); the CLI --jobs flags (rqcheck, rqeval, rqserved,
// bench harness) raise it, which also grows the fan-out executor to that
// size up front. Batched containment and multi-source graph evaluation
// both read it.
void SetDefaultParallelJobs(unsigned jobs);
unsigned DefaultParallelJobs();

// work(worker, i) receives the dense id of the thread running it, so
// callers can keep per-worker accumulators that exactly one thread
// touches.
void ParallelForWorker(size_t n, unsigned jobs,
                       const std::function<void(unsigned, size_t)>& work);

}  // namespace rq

#endif  // RQ_COMMON_PARALLEL_H_
