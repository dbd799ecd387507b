// The span store: the tracing consumer of ops (obs/op.h; see
// docs/OBSERVABILITY.md). Each OpScope that closes while tracing is on
// lands here; this header is the store's mode switch and read side.
//
// Tracing is off by default: an op then never touches the store, so
// instrumented hot paths stay at full speed (bench_rpq_containment is the
// regression guard, budget <=2%).
//
// Two enabled modes:
//  * kAggregate — only per-name aggregates (count, total wall-time, and a
//    duration histogram yielding p50/p90/p99/max) are kept; bounded
//    memory, suitable for benchmark loops running millions of operations.
//  * kFull — every op is additionally recorded as a row (name, start,
//    duration, depth, parent, tid, attrs), capped at kMaxRecordedSpans to
//    bound memory; ops beyond the cap still aggregate and are counted by
//    the `obs.dropped_spans` counter. Suitable for tracing single CLI
//    invocations (rqcheck --trace / --chrome-trace).
//
// Span names follow the counter naming scheme `<subsystem>.<verb-or-noun>`.
// Thread attribution: each thread that records a row is assigned a small
// dense id (`tid`, 0 for the first recording thread) for the lifetime of
// the trace session; `SpanRecord::parent` is always resolved WITHIN the
// owning thread — concurrent batch workers each form their own span tree
// (one Chrome-trace lane per worker, obs/chrome_trace.h). Session resets
// (SetTraceMode / ClearTrace) bump an internal generation; ops that
// straddle a reset are discarded rather than linked into the new session.
// The store is implemented with OpScope in obs/op.cc.
#ifndef RQ_OBS_TRACE_H_
#define RQ_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rq {
namespace obs {

enum class TraceMode {
  kDisabled,
  kAggregate,
  kFull,
};

// A finished (or still open, duration 0) op row, in start order.
struct SpanRecord {
  std::string name;
  uint64_t start_ns = 0;     // relative to the trace session start
  uint64_t duration_ns = 0;  // 0 while the span is open
  uint32_t depth = 0;        // nesting depth within its thread, root = 0
  int32_t parent = -1;  // index of the enclosing span (same tid), -1 = root
  uint32_t tid = 0;     // dense per-session thread id (0 = first thread)
  std::vector<std::pair<std::string, uint64_t>> attrs;
};

// Per-name aggregate over all ops since the session started (both
// enabled modes maintain these). Quantiles come from a log-bucketed
// duration histogram (obs/histogram.h): exact max, bucket-lower-bound
// estimates for p50/p90/p99.
struct SpanStats {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t max_ns = 0;
};

inline constexpr size_t kMaxRecordedSpans = 1 << 20;

TraceMode CurrentTraceMode();
// Switching modes clears any previously collected spans and aggregates and
// restarts the session clock.
void SetTraceMode(TraceMode mode);
// Clears collected spans/aggregates and restarts the session clock without
// changing the mode.
void ClearTrace();

// Absolute steady-clock nanoseconds when the current trace session
// started; SpanRecord::start_ns values are relative to this point (so are
// the Chrome-trace memory counter events built from obs/mem_stats.h).
uint64_t TraceSessionStartNs();

// Copies of the collected data. Records are in start order; stats are
// name-sorted.
std::vector<SpanRecord> CollectSpanRecords();
std::vector<SpanStats> CollectSpanStats();
// Number of spans that exceeded kMaxRecordedSpans in kFull mode this
// session (they are aggregated but not recorded as rows). Also exposed
// process-wide as the `obs.dropped_spans` counter.
uint64_t DroppedSpanRecords();

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_TRACE_H_
