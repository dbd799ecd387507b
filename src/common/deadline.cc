#include "common/deadline.h"

#include "common/clock.h"
#include "common/mem.h"
#include "obs/subsystems.h"

namespace rq {
namespace {

thread_local ExecContext* g_current_exec_context = nullptr;

}  // namespace

Deadline Deadline::AfterNanos(int64_t ns) {
  return Deadline(static_cast<int64_t>(SteadyNowNs()) + ns);
}

bool Deadline::Expired() const {
  return ns_ != kInfiniteNs && static_cast<int64_t>(SteadyNowNs()) >= ns_;
}

int64_t Deadline::RemainingNanos() const {
  if (ns_ == kInfiniteNs) return kInfiniteNs;
  return ns_ - static_cast<int64_t>(SteadyNowNs());
}

ExecContext* ExecContext::Current() { return g_current_exec_context; }

Status ExecContext::Check() {
  if (stopped_) return status_;
  if (cancel_ != nullptr && cancel_->Cancelled()) {
    return Trip(CancelledError("execution cancelled"));
  }
  if (!deadline_.IsInfinite()) {
    if (polls_until_clock_ == 0) {
      polls_until_clock_ = kStride;
      if (deadline_.Expired()) {
        return Trip(DeadlineExceededError("deadline exceeded"));
      }
    }
    --polls_until_clock_;
  }
  return Status::Ok();
}

Status ExecContext::Trip(Status status) {
  stopped_ = true;
  status_ = std::move(status);
  if (status_.code() == StatusCode::kDeadlineExceeded) {
    obs::DeadlineCounters::Get().expired.Add(1);
  } else {
    obs::DeadlineCounters::Get().cancelled.Add(1);
  }
  return status_;
}

ScopedExecContext::ScopedExecContext(ExecContext* ctx)
    : installed_(ctx), previous_(g_current_exec_context) {
  if (installed_ != nullptr) g_current_exec_context = installed_;
}

ScopedExecContext::~ScopedExecContext() {
  if (installed_ == nullptr) return;
  g_current_exec_context = previous_;
  if (installed_->slack_recorded_ || installed_->stopped_ ||
      installed_->deadline_.IsInfinite()) {
    return;
  }
  installed_->slack_recorded_ = true;
  int64_t slack = installed_->deadline_.RemainingNanos();
  if (slack < 0) slack = 0;
  obs::DeadlineCounters::Get().slack_ns.Record(
      static_cast<uint64_t>(slack));
}

Status CheckExecContext() {
  // Memory budgets (common/mem.h) piggyback on the deadline polling sites:
  // one extra thread-local load when no MemContext is installed.
  Status mem = CheckMemBudget();
  if (!mem.ok()) return mem;
  ExecContext* ctx = g_current_exec_context;
  if (ctx == nullptr) return Status::Ok();
  return ctx->Check();
}

}  // namespace rq
