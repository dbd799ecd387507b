// Wall-clock deadlines and cooperative cancellation (docs/ROBUSTNESS.md).
//
// The containment ladder tops out at EXPSPACE/2EXPSPACE procedures, so a
// production deployment cannot run them unbounded: every long-running loop
// in the library polls a lightweight ExecContext — a steady-clock Deadline
// plus an optional shared CancelToken — and unwinds with kDeadlineExceeded
// or kCancelled instead of hanging. The context is installed thread-locally
// (ScopedExecContext), so deep loops consult it through CheckExecContext()
// without threading a parameter through every signature.
//
// Cost model: CheckExecContext() with no context installed is one
// thread-local load and a branch. With a context it adds one relaxed
// atomic load (the cancel token) and reads the clock only once per
// ExecContext::kStride polls, so even per-node polling in the product
// search loops is noise. A non-OK verdict latches: once a context trips,
// every subsequent Check returns the same error, which lets construction
// kernels without a Status channel (FoldTwoNfa, ProductBfs) simply stop
// early and rely on a Status-returning caller to poll the same context.
//
// Installations are per thread. The fan-out executor (common/parallel.h)
// carries the caller's context onto its helper threads by installing an
// ExecContext::ChildOf(caller) for the helper's share of the work, so
// fan-out sites need no context plumbing of their own.
#ifndef RQ_COMMON_DEADLINE_H_
#define RQ_COMMON_DEADLINE_H_

#include <atomic>
#include <cstdint>
#include <limits>

#include "common/status.h"

namespace rq {

// A point on the steady clock. Default-constructed deadlines are infinite
// (never expire), so a Deadline member costs nothing until a caller asks
// for a bound.
class Deadline {
 public:
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  static Deadline AfterNanos(int64_t ns);
  static Deadline AfterMillis(int64_t ms) {
    return AfterNanos(ms * 1'000'000);
  }
  // The earlier of two deadlines (an infinite one never wins).
  static Deadline Earlier(Deadline a, Deadline b) {
    return a.ns_ < b.ns_ ? a : b;
  }

  bool IsInfinite() const { return ns_ == kInfiniteNs; }
  bool Expired() const;
  // Nanoseconds until expiry (negative if past); kInfiniteNs when infinite.
  int64_t RemainingNanos() const;

  static constexpr int64_t kInfiniteNs =
      std::numeric_limits<int64_t>::max();

 private:
  explicit Deadline(int64_t steady_ns) : ns_(steady_ns) {}

  int64_t ns_ = kInfiniteNs;  // steady-clock nanoseconds since epoch
};

// Cooperative cancellation flag, shareable across threads. Cancel() is
// sticky; there is no un-cancel.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// A deadline plus an optional cancel token, polled by long-running loops.
// One context belongs to one thread (Check() keeps unsynchronized stride
// state); another thread observes the same bounds through a mirror built
// with ChildOf (the fan-out executor's helpers install one).
class ExecContext {
 public:
  // Clock reads are amortized: Check() consults the cancel token every
  // call but the deadline only once per kStride calls.
  static constexpr uint32_t kStride = 64;

  ExecContext() = default;
  explicit ExecContext(Deadline deadline, CancelToken* cancel = nullptr)
      : deadline_(deadline), cancel_(cancel) {}

  // A fresh context observing the same deadline and token as `parent`
  // (default/no-op context when parent is null). For helper threads.
  static ExecContext ChildOf(const ExecContext* parent) {
    return parent == nullptr
               ? ExecContext()
               : ExecContext(parent->deadline(), parent->cancel_token());
  }

  // The context installed on the calling thread, or null.
  static ExecContext* Current();

  const Deadline& deadline() const { return deadline_; }
  CancelToken* cancel_token() const { return cancel_; }

  // Cooperative poll. Returns Ok, DeadlineExceededError, or
  // CancelledError; a non-OK verdict latches for the context's lifetime.
  // Bumps deadline.expired / deadline.cancelled once on the first trip.
  Status Check();

  // True once Check() has returned non-OK (no fresh poll).
  bool stopped() const { return stopped_; }

 private:
  friend class ScopedExecContext;

  Status Trip(Status status);

  Deadline deadline_;
  CancelToken* cancel_ = nullptr;
  uint32_t polls_until_clock_ = 0;  // 0 so the first Check reads the clock
  bool stopped_ = false;
  bool slack_recorded_ = false;
  Status status_;
};

// Installs `ctx` as the calling thread's current context for the scope
// (null = no-op). On destruction restores the previous installation and,
// for a finite-deadline context that finished in time, records the
// remaining slack into the deadline.slack_ns histogram (once per context,
// even if the same context is re-installed per work item).
class ScopedExecContext {
 public:
  explicit ScopedExecContext(ExecContext* ctx);
  ~ScopedExecContext();

  ScopedExecContext(const ScopedExecContext&) = delete;
  ScopedExecContext& operator=(const ScopedExecContext&) = delete;

 private:
  ExecContext* installed_;
  ExecContext* previous_;
};

// Polls the calling thread's installed context; Ok when none is installed.
// Also polls the thread's MemContext (common/mem.h), so every deadline
// polling site enforces memory budgets with no further changes.
Status CheckExecContext();

// Convenience for kernels without a Status channel: true once the current
// context has tripped (or trips on this poll). Such kernels stop early and
// leave error reporting to a Status-returning caller polling the same
// context.
inline bool ExecStopRequested() { return !CheckExecContext().ok(); }

}  // namespace rq

#endif  // RQ_COMMON_DEADLINE_H_
