#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/deadline.h"
#include "common/mem.h"
#include "obs/op.h"

namespace rq {

void Executor::Grow(unsigned threads) {
  std::lock_guard<std::mutex> lock(mu_);
  while (!stopping_ && threads_.size() < threads) {
    threads_.emplace_back([this] { Loop(); });
  }
}

void Executor::Post(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  tasks_.push_back(std::move(task));
  cv_.notify_one();
}

size_t Executor::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

void Executor::Shutdown() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    threads.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& thread : threads) thread.join();
}

void Executor::Loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and every task has run
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

namespace {

std::atomic<unsigned> g_default_jobs{1};

// Never destroyed: helpers may still be parked in it at process exit.
Executor& FanOutExecutor() {
  static Executor* executor = new Executor();
  return *executor;
}

// Shared by the caller and its helpers; a late helper keeps it alive after
// the caller has returned, and then only reads `next`.
struct FanOutState {
  size_t n;
  const std::function<void(unsigned, size_t)>* work;
  const ExecContext* exec;
  const MemContext* mem;
  const obs::OpScope* op;
  std::atomic<size_t> next{0};
  std::atomic<unsigned> joined{0};
  std::mutex mu;
  std::condition_variable done;
  size_t completed = 0;  // guarded by mu

  // Runs tickets from `first` on as `worker` until none are left; returns
  // how many it ran.
  size_t RunTickets(unsigned worker, size_t first) {
    size_t ran = 0;
    for (size_t i = first; i < n; i = next.fetch_add(1), ++ran) {
      (*work)(worker, i);
    }
    return ran;
  }

  void Complete(size_t ran) {
    std::lock_guard<std::mutex> lock(mu);
    completed += ran;
    if (completed == n) done.notify_all();
  }
};

void RunHelper(FanOutState& state) {
  size_t first = state.next.fetch_add(1);
  if (first >= state.n) return;  // the caller already took every ticket
  unsigned worker = state.joined.fetch_add(1) + 1;
  size_t ran;
  {
    ExecContext exec = ExecContext::ChildOf(state.exec);
    MemContext mem = MemContext::ChildOf(state.mem);
    ScopedExecContext scoped_exec(&exec);
    ScopedMemContext scoped_mem(state.mem != nullptr ? &mem : nullptr);
    obs::OpScope::Adopt adopt(state.op);
    ran = state.RunTickets(worker, first);
  }
  // Published after the scopes close: once the caller sees every ticket
  // complete it may return and free what `exec` and `mem` point at.
  state.Complete(ran);
}

}  // namespace

void SetDefaultParallelJobs(unsigned jobs) {
  jobs = std::max(jobs, 1u);
  g_default_jobs.store(jobs, std::memory_order_relaxed);
  if (jobs > 1) FanOutExecutor().Grow(jobs);
}

unsigned DefaultParallelJobs() {
  return g_default_jobs.load(std::memory_order_relaxed);
}

void ParallelForWorker(size_t n, unsigned jobs,
                       const std::function<void(unsigned, size_t)>& work) {
  // The caller's own tickets run under its op too, so an op that `work`
  // opens is a fan-out job (obs/op.h) whichever thread runs it.
  const obs::OpScope* op = obs::OpScope::Current();
  obs::OpScope::Adopt adopt(op);
  if (jobs <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) work(0, i);
    return;
  }
  unsigned workers = static_cast<unsigned>(std::min<size_t>(jobs, n));
  auto state = std::make_shared<FanOutState>(
      n, &work, ExecContext::Current(), MemContext::Current(), op);
  Executor& executor = FanOutExecutor();
  executor.Grow(workers);
  for (unsigned h = 1; h < workers; ++h) {
    executor.Post([state] { RunHelper(*state); });
  }
  // On an oversubscribed machine a freshly woken helper may otherwise not
  // get a CPU before the caller has claimed every ticket.
  std::this_thread::yield();
  state->Complete(state->RunTickets(0, state->next.fetch_add(1)));
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&] { return state->completed == n; });
}

}  // namespace rq
