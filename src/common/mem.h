// Memory accounting, attribution, and budgets (docs/OBSERVABILITY.md
// "Memory accounting"; budget semantics in docs/ROBUSTNESS.md).
//
// The paper's constructions are state-blowup algorithms — determinization,
// 2NFA folding, and Vardi complementation are exponential, UC2RPQ expansion
// is worse — so their real-world cost is bytes as much as wall-clock. This
// layer is the space-side twin of common/deadline.h: hot allocation sites
// charge tagged byte counts through a thread-local MemContext, the obs
// layer surfaces live/peak bytes per subsystem, and an optional byte budget
// latches kResourceExhausted through the same CheckExecContext() polls the
// deadline layer installed (so every loop that honors deadlines honors
// memory budgets with no further changes, and truncated-by-memory
// constructions are never cached for the same reason truncated-by-deadline
// ones are not).
//
// Charging discipline:
//  * Transient working memory (subset-construction rows, expansion
//    frontiers, delta relations, BFS bitsets) is charged inside a
//    MemScope(subsystem): MemCharge(bytes) attributes to the innermost
//    scope and the scope releases its net charge on destruction, so the
//    mem.<subsystem>_bytes gauges track live bytes and their peaks record
//    the high-water mark.
//  * Durable memory (cache entries, graph CSR snapshots) outlives any
//    query: MemChargeDurable / MemReleaseDurable move the global gauges
//    only and never count against a query's budget — the bytes were
//    already charged transiently while being built.
//
// Cost model: MemCharge with no context installed is two thread-local
// loads plus the global gauge updates (a handful of relaxed atomics).
// Sites charge per allocation event (a row, a frontier, a relation), never
// per byte, mirroring the flush-per-operation discipline of obs/counters.h.
//
// Installations are per thread. The fan-out executor (common/parallel.h)
// carries the caller's context onto its helper threads as a
// MemContext::ChildOf mirror (sharing the caller's accounting and budget,
// so concurrent workers charge one pot), exactly like ExecContext::ChildOf.
#ifndef RQ_COMMON_MEM_H_
#define RQ_COMMON_MEM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace rq {

// Attribution tags for byte charges. One gauge pair (live + peak) exists
// per subsystem: mem.<name>_bytes.
enum class MemSubsystem : uint8_t {
  kAutomata = 0,  // NFA determinization subset rows, product construction
  kFold,          // 2NFA -> NFA fold state vectors and transition tables
  kComplement,    // Vardi complement subset interning
  kRq,            // RQ/UC2RPQ expansion frontiers
  kDatalog,       // Datalog fact stores and delta relations
  kGraph,         // CSR snapshots and product-BFS bitsets/frontiers
  kCache,         // automata cache entries (durable)
  kIncr,          // incrementally maintained closures (relational/incremental.h)
  kOther,         // charges outside any MemScope
};
inline constexpr int kMemSubsystemCount = 9;

// "automata", "fold", ... (the <name> in mem.<name>_bytes).
const char* MemSubsystemName(MemSubsystem subsystem);

// Per-query (or per-job) byte accounting plus an optional budget. One
// context belongs to one thread (the latched Status is unsynchronized);
// another thread charges the same pot through a mirror built with ChildOf
// (the fan-out executor's helpers install one). Copying a context yields
// such a mirror: the accounting pot is shared (and kept alive), the error
// latch is fresh.
//
// A context built with a parent chains to it: charges propagate up the
// chain (a batch job's bytes also count against the batch-wide context)
// and a budget trip anywhere on the chain stops this context too.
class MemContext {
 public:
  MemContext() : shared_(std::make_shared<Shared>()) {}
  // budget_bytes == 0 means unlimited. `parent` (may be null) receives
  // every charge made against this context and its budget is also
  // enforced on the chain.
  explicit MemContext(uint64_t budget_bytes,
                      const MemContext* parent = nullptr)
      : shared_(std::make_shared<Shared>()) {
    shared_->budget_bytes = budget_bytes;
    if (parent != nullptr) shared_->parent = parent->shared_;
  }

  // Mirrors: same pot and budget, fresh latch.
  MemContext(const MemContext& other) : shared_(other.shared_) {}
  MemContext& operator=(const MemContext& other) {
    shared_ = other.shared_;
    stopped_ = false;
    status_ = Status::Ok();
    return *this;
  }

  // A mirror charging the same accounting (and observing the same budget)
  // as `parent`; fresh independent context when parent is null. For
  // helper threads.
  static MemContext ChildOf(const MemContext* parent) {
    return parent == nullptr ? MemContext() : MemContext(*parent);
  }

  // The context installed on the calling thread, or null.
  static MemContext* Current();

  // Adds `bytes` (negative to release) under `subsystem` to this context
  // and every ancestor; sets the exceeded flag on any pot whose budget the
  // new total crosses. Thread-safe (mirrors charge concurrently).
  void Charge(MemSubsystem subsystem, int64_t bytes);

  uint64_t subsystem_bytes(MemSubsystem subsystem) const;
  uint64_t peak_subsystem_bytes(MemSubsystem subsystem) const;
  uint64_t total_bytes() const;
  uint64_t peak_total_bytes() const;
  uint64_t budget_bytes() const { return shared_->budget_bytes; }
  // Innermost budget on the chain (this context's own pot).
  bool has_budget() const { return shared_->budget_bytes != 0; }

  // True once any budget on the chain has been crossed (sticky).
  bool exceeded() const;

  // Cooperative poll. Returns Ok or ResourceExhaustedError; a non-OK
  // verdict latches for the context's lifetime. Bumps mem.budget_exceeded
  // once on the first trip.
  Status Check();

  // True once Check() has returned non-OK (no fresh poll).
  bool stopped() const { return stopped_; }

 private:
  struct Shared {
    std::array<std::atomic<int64_t>, kMemSubsystemCount> bytes{};
    std::array<std::atomic<int64_t>, kMemSubsystemCount> peak_bytes{};
    std::atomic<int64_t> total{0};
    std::atomic<int64_t> peak_total{0};
    std::atomic<bool> exceeded{false};
    uint64_t budget_bytes = 0;            // 0 = unlimited; set before sharing
    std::shared_ptr<Shared> parent;       // set before sharing
  };

  Status Trip();

  std::shared_ptr<Shared> shared_;  // one pot per root, shared by mirrors
  bool stopped_ = false;
  Status status_;
};

// Installs `ctx` as the calling thread's current context for the scope
// (null = no-op); restores the previous installation on destruction.
class ScopedMemContext {
 public:
  explicit ScopedMemContext(MemContext* ctx);
  ~ScopedMemContext();

  ScopedMemContext(const ScopedMemContext&) = delete;
  ScopedMemContext& operator=(const ScopedMemContext&) = delete;

 private:
  MemContext* installed_;
  MemContext* previous_;
};

// Attribution scope for transient working memory. While alive, MemCharge()
// on this thread attributes to `subsystem`; on destruction the scope
// releases whatever net charge flowed through it, returning the live
// gauges (and the installed context) to their prior level while leaving
// all peaks intact. Scopes nest; the innermost wins.
class MemScope {
 public:
  explicit MemScope(MemSubsystem subsystem);
  ~MemScope();

  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

  MemSubsystem subsystem() const { return subsystem_; }
  // Net bytes charged through this scope so far.
  int64_t net_bytes() const { return net_; }

 private:
  friend void MemCharge(int64_t);

  MemSubsystem subsystem_;
  MemScope* previous_;  // enclosing scope on this thread, or null
  int64_t net_ = 0;
};

// Charges `bytes` (negative to release) against the innermost MemScope's
// subsystem (kOther with no scope, and then nothing auto-releases — prefer
// a scope or the durable API). Updates the thread's installed MemContext
// chain and the global mem.* gauges/histogram.
void MemCharge(int64_t bytes);

// Charges/releases process-lifetime memory (cache entries, snapshots):
// global gauges only — never scoped, never against a query budget.
void MemChargeDurable(MemSubsystem subsystem, int64_t bytes);
inline void MemReleaseDurable(MemSubsystem subsystem, int64_t bytes) {
  MemChargeDurable(subsystem, -bytes);
}

// Polls the calling thread's installed MemContext; Ok when none is
// installed. CheckExecContext() (common/deadline.h) calls this, so every
// deadline polling site enforces memory budgets too.
Status CheckMemBudget();

}  // namespace rq

#endif  // RQ_COMMON_MEM_H_
