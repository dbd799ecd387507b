// OpScope and the span store it feeds (obs/op.h, obs/trace.h).
#include "obs/op.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "common/clock.h"
#include "common/mem.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace rq {
namespace obs {

namespace {

std::atomic<TraceMode> g_mode{TraceMode::kDisabled};

// Internal per-name aggregate: the exported SpanStats plus the duration
// histogram backing its quantiles.
struct StatsEntry {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  std::unique_ptr<Histogram> durations = std::make_unique<Histogram>();
};

struct TraceState {
  std::mutex mu;
  // Session identity. Bumped by every SetTraceMode/ClearTrace; an op that
  // joined an older session is neither recorded nor linked into the new
  // one.
  std::atomic<uint64_t> generation{1};
  // Session clock origin, as an absolute steady-clock timestamp (atomic
  // so open ops can read it without the lock).
  std::atomic<uint64_t> session_start_ns{SteadyNowNs()};
  uint32_t next_tid = 0;  // dense per-session thread ids
  std::vector<SpanRecord> records;
  std::map<std::string, StatsEntry, std::less<>> stats;
  uint64_t dropped = 0;
};

TraceState& State() {
  static TraceState* state = new TraceState();  // never destroyed
  return *state;
}

Counter& DroppedCounter() {
  static Counter* counter = GetCounter("obs.dropped_spans");
  return *counter;
}

void ClearLocked(TraceState& state) {
  state.records.clear();
  state.stats.clear();
  state.dropped = 0;
  state.next_tid = 0;
  state.session_start_ns.store(SteadyNowNs(), std::memory_order_relaxed);
  state.generation.fetch_add(1, std::memory_order_relaxed);
}

// The thread's op stack: its innermost open op, the fan-out caller's op it
// runs under (Adopt), and its span tid with the session that issued it.
struct OpThread {
  OpScope* top = nullptr;
  const OpScope* adopted = nullptr;
  uint64_t tid_generation = 0;
  uint32_t tid = 0;
};

thread_local OpThread t_ops;

}  // namespace

TraceMode CurrentTraceMode() {
  return g_mode.load(std::memory_order_relaxed);
}

uint64_t TraceSessionStartNs() {
  return State().session_start_ns.load(std::memory_order_relaxed);
}

void SetTraceMode(TraceMode mode) {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  g_mode.store(mode, std::memory_order_relaxed);
  ClearLocked(state);
}

void ClearTrace() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  ClearLocked(state);
}

std::vector<SpanRecord> CollectSpanRecords() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.records;
}

std::vector<SpanStats> CollectSpanStats() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<SpanStats> out;
  out.reserve(state.stats.size());
  for (const auto& [name, entry] : state.stats) {
    SpanStats stats;
    stats.name = name;
    stats.count = entry.count;
    stats.total_ns = entry.total_ns;
    stats.p50_ns = entry.durations->ValueAtQuantile(0.50);
    stats.p90_ns = entry.durations->ValueAtQuantile(0.90);
    stats.p99_ns = entry.durations->ValueAtQuantile(0.99);
    stats.max_ns = entry.durations->max();
    out.push_back(std::move(stats));
  }
  return out;
}

uint64_t DroppedSpanRecords() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.dropped;
}

OpScope::OpScope(const char* name, QueryKind kind)
    : name_(name), kind_(kind), outer_(t_ops.top) {
  const OpScope* parent = outer_ != nullptr ? outer_ : t_ops.adopted;
  queries_ = (parent != nullptr ? parent->queries_ : 0) +
             (kind != QueryKind::kUnknown ? 1 : 0);
  flight_ = kind != QueryKind::kUnknown && queries_ == 1;
  job_ = parent != nullptr && parent == t_ops.adopted;
  profile_ = QueryProfile::Collecting();
  t_ops.top = this;
  if (CurrentTraceMode() != TraceMode::kDisabled) {
    OpenSpan();
  } else if (flight_ || profile_ != nullptr) {
    start_ns_ = SteadyNowNs();
  }
}

OpScope::~OpScope() {
  t_ops.top = outer_;
  if (span_generation_ == 0 && !flight_ && profile_ == nullptr) return;
  uint64_t duration = SteadyNowNs() - start_ns_;
  if (span_generation_ != 0) CloseSpan(duration);
  if (flight_) {
    // The memory high-water mark of the query, when it runs under a
    // MemContext (the CLIs and the batch engine install one).
    const MemContext* mem = MemContext::Current();
    FlightRecorder::Global().Record(
        kind_, verdict_, duration, work_,
        mem != nullptr ? mem->peak_total_bytes() : 0);
  }
  if (profile_ != nullptr) {
    profile_->Consume(OpEvent{name_, duration, job_, attrs_, notes_});
  }
}

void OpScope::Attr(const char* key, uint64_t value) {
  if (span_row_ >= 0 || profile_ != nullptr) attrs_.emplace_back(key, value);
}

void OpScope::Note(const char* key, std::string_view value) {
  if (profile_ != nullptr) notes_.emplace_back(key, std::string(value));
}

const OpScope* OpScope::Current() {
  return t_ops.top != nullptr ? t_ops.top : t_ops.adopted;
}

OpScope::Adopt::Adopt(const OpScope* op) : previous_(t_ops.adopted) {
  t_ops.adopted = op;
}

OpScope::Adopt::~Adopt() { t_ops.adopted = previous_; }

void OpScope::OpenSpan() {
  TraceState& state = State();
  // One timestamp for both the row and the duration base, so a parent's
  // start+duration always covers its children's. Absolute, so a session
  // reset mid-op cannot corrupt the duration.
  start_ns_ = SteadyNowNs();
  auto join = [&](uint64_t generation) {
    span_generation_ = generation;
    // Nest under the enclosing op of THIS thread only, and only if it is
    // in the same session; a helper's root op roots its own lane.
    if (outer_ != nullptr && outer_->span_generation_ == generation) {
      span_depth_ = outer_->span_depth_ + 1;
      span_parent_ =
          outer_->span_row_ >= 0 ? outer_->span_row_ : outer_->span_parent_;
    }
  };
  if (CurrentTraceMode() != TraceMode::kFull) {
    join(state.generation.load(std::memory_order_relaxed));
    return;
  }
  std::lock_guard<std::mutex> lock(state.mu);
  uint64_t generation = state.generation.load(std::memory_order_relaxed);
  join(generation);
  if (t_ops.tid_generation != generation) {
    t_ops.tid = state.next_tid++;
    t_ops.tid_generation = generation;
  }
  if (state.records.size() >= kMaxRecordedSpans) {
    ++state.dropped;
    DroppedCounter().Increment();
    return;
  }
  SpanRecord record;
  record.name = name_;
  record.start_ns =
      start_ns_ - state.session_start_ns.load(std::memory_order_relaxed);
  record.depth = span_depth_;
  record.parent = span_parent_;
  record.tid = t_ops.tid;
  span_row_ = static_cast<int32_t>(state.records.size());
  state.records.push_back(std::move(record));
}

void OpScope::CloseSpan(uint64_t duration_ns) {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  // An op that straddled a session reset is discarded entirely: its row
  // index and aggregates would otherwise leak into the new session.
  if (state.generation.load(std::memory_order_relaxed) != span_generation_) {
    return;
  }
  if (span_row_ >= 0 &&
      static_cast<size_t>(span_row_) < state.records.size()) {
    SpanRecord& record = state.records[span_row_];
    record.duration_ns = duration_ns;
    for (const auto& [key, value] : attrs_) {
      record.attrs.emplace_back(key, value);
    }
  }
  auto it = state.stats.find(name_);
  if (it == state.stats.end()) {
    it = state.stats.emplace(name_, StatsEntry{}).first;
  }
  ++it->second.count;
  it->second.total_ns += duration_ns;
  it->second.durations->Record(duration_ns);
}

}  // namespace obs
}  // namespace rq
