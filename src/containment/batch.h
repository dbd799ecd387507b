// Parallel batch containment: fans a vector of independent containment
// checks across the process-wide fan-out executor (common/parallel.h). The
// calling thread and up to jobs - 1 of the executor's persistent threads
// pull job indices off a shared ticket counter, so uneven check costs
// balance automatically and no call starts a thread. Helpers run under the
// caller's deadline, cancel token and memory pot, so a job behaves the
// same on any thread, flight-recorder nesting included. Results land at
// their job's index, so output order is deterministic regardless of
// scheduling. Single-pair semantics are exactly those of the underlying
// checkers (automata/containment.h, pathquery/containment.h) — including
// their use of the automata cache, which is thread-safe and deduplicates
// shared sub-constructions across concurrent workers (docs/CACHING.md).
#ifndef RQ_CONTAINMENT_BATCH_H_
#define RQ_CONTAINMENT_BATCH_H_

#include <cstdint>
#include <vector>

#include "automata/containment.h"
#include "common/deadline.h"
#include "pathquery/containment.h"
#include "regex/regex.h"

namespace rq {

// Which single-pair decision procedure the batch runs.
enum class ContainmentAlgo {
  kOnTheFly,   // CheckLanguageContainment
  kAntichain,  // CheckLanguageContainmentAntichain
  kExplicit,   // CheckLanguageContainmentExplicit
};

struct ContainmentBatchOptions {
  // Workers, the calling thread included; 0 means DefaultContainmentJobs().
  // Values <= 1 run the batch inline on the calling thread.
  unsigned jobs = 0;
  ContainmentAlgo algo = ContainmentAlgo::kOnTheFly;
  // Per-job wall-clock budget in milliseconds (0 = none). Each job gets a
  // FRESH deadline when a worker picks it up, clipped to the caller's own
  // installed ExecContext deadline; expiry fails that job with
  // kDeadlineExceeded in its result Status (docs/ROBUSTNESS.md).
  int64_t job_timeout_ms = 0;
  // Optional external cancellation: trip it from any thread and jobs not
  // yet started report kCancelled (running jobs unwind at their next
  // poll). Must outlive the batch call.
  CancelToken* cancel = nullptr;
  // When a job fails at runtime (deadline, cancellation, internal error),
  // cancel the jobs still queued behind it — they report kCancelled.
  // Up-front validation failures (null pointers) never trigger this; the
  // rest of the batch still runs.
  bool cancel_on_error = true;
  // Per-job memory budget in bytes (0 = none). Each job runs under a fresh
  // MemContext (common/mem.h) chained to the caller's installed context, so
  // job bytes also count against any caller-wide budget. A job crossing
  // either budget fails with kResourceExhausted in its result Status at its
  // next poll, through the same sites that enforce job_timeout_ms.
  uint64_t memory_budget_bytes = 0;
};

// Process-wide default worker count used when options.jobs == 0. Starts at
// 1 (serial); rqcheck/rqeval --jobs N and the bench harness raise it.
// Aliases the shared knob in common/parallel.h, which multi-source graph
// evaluation (pathquery/path_query.h) also reads.
void SetDefaultContainmentJobs(unsigned jobs);
unsigned DefaultContainmentJobs();

// One L(a) ⊆ L(b) check. Both automata must outlive the batch call and
// share num_symbols.
struct NfaContainmentJob {
  const Nfa* a = nullptr;
  const Nfa* b = nullptr;
};

// Runs every job and returns the verdicts in job order. A job never aborts
// the process or the batch: null-pointer jobs come back with a per-job
// kInvalidArgument status (the other jobs still run), and deadline /
// cancellation trips land in the affected job's result Status.
std::vector<LanguageContainmentResult> CheckContainmentBatch(
    const std::vector<NfaContainmentJob>& jobs,
    const ContainmentBatchOptions& options = {});

// One path-query containment check Q1 ⊑ Q2 (RPQ or 2RPQ; dispatch per pair
// as in CheckPathQueryContainment). Regexes must outlive the call.
struct PathContainmentJob {
  const Regex* q1 = nullptr;
  const Regex* q2 = nullptr;
};

std::vector<PathContainmentResult> CheckPathContainmentBatch(
    const std::vector<PathContainmentJob>& jobs, const Alphabet& alphabet,
    const ContainmentBatchOptions& options = {});

}  // namespace rq

#endif  // RQ_CONTAINMENT_BATCH_H_
