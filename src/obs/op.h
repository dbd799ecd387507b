// One record per operation: the observability layer's only timing
// primitive (see docs/OBSERVABILITY.md).
//
//   Result<Relation> EvalRqQuery(const Database& db, const RqQuery& query) {
//     obs::OpScope op("rq.eval", obs::QueryKind::kRqEval);
//     ...
//     op.Finish(obs::kFlightVerdictOk, out.size());
//     return out;
//   }
//
// Each instrumented entry point opens one OpScope. When the scope closes,
// the op emits one event, which three consumers take:
//  * the span store (obs/trace.h) while tracing is on: a row in kFull mode
//    (name, start, duration, depth, parent, tid, attrs) and the per-name
//    aggregate in both modes;
//  * the flight recorder (obs/flight_recorder.h) for an op with a kind
//    that no other op with a kind encloses: one ring entry, plus a
//    slow-query row past the threshold;
//  * the QueryProfile collecting at the time (obs/profile.h): notes, attrs
//    summed into stats, per-name span counts, and a per-thread job row for
//    each op a fan-out ran directly.
// An op none of them wants reads no clock and allocates nothing.
//
// Ops nest through one thread-local stack, which gives every consumer the
// op's depth and parent within its thread and its thread's tid. A fan-out
// (common/parallel.h) runs its work under the caller's op (Adopt), so an
// op on a helper thread nests in the flight recorder's sense exactly as it
// would on the caller, while its span row roots in the helper's own lane.
#ifndef RQ_OBS_OP_H_
#define RQ_OBS_OP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"

namespace rq {
namespace obs {

class QueryProfile;

// What a closing op hands the profile.
struct OpEvent {
  const char* name;
  uint64_t duration_ns;
  bool job;  // run directly by a fan-out: one job of its thread's row
  const std::vector<std::pair<const char*, uint64_t>>& attrs;
  const std::vector<std::pair<const char*, std::string>>& notes;
};

class OpScope {
 public:
  // `name` (and every attr or note key) must outlive the op: string
  // literals. An op with a kind other than kUnknown is a query for the
  // flight recorder.
  explicit OpScope(const char* name, QueryKind kind = QueryKind::kUnknown);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  // A numeric attribute: on the span row, and summed into the profile's
  // stats under "<op name>.<key>".
  void Attr(const char* key, uint64_t value);
  // A string note for the profile (its "notes"; the last value per key
  // wins).
  void Note(const char* key, std::string_view value);
  // The flight recorder's verdict and per-kind work metric. An op closed
  // without Finish records kFlightVerdictAbandoned (an error unwound it).
  void Finish(int32_t verdict, uint64_t work) {
    verdict_ = verdict;
    work_ = work;
  }

  // The op the calling thread's work runs under: its innermost open op,
  // else the op installed by Adopt, else null.
  static const OpScope* Current();

  // Runs the thread's ops, until the scope closes, under `op` (a fan-out
  // caller's; null allowed): an op opened with no enclosing op on this
  // thread nests under `op`, and an op opened directly under `op` is a
  // fan-out job. `op` must stay open while the scope is.
  class Adopt {
   public:
    explicit Adopt(const OpScope* op);
    ~Adopt();

    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;

   private:
    const OpScope* previous_;
  };

 private:
  void OpenSpan();
  void CloseSpan(uint64_t duration_ns);

  const char* name_;
  QueryKind kind_;
  OpScope* outer_;    // enclosing op on this thread
  uint32_t queries_;  // ops with a kind around and including this one
  bool job_;
  bool flight_;
  QueryProfile* profile_;
  uint64_t start_ns_ = 0;  // read only when a consumer wants the op
  // Span session the op joined (0 = none), its row (-1 = none), the row
  // of its nearest recorded ancestor on this thread, and its depth there.
  uint64_t span_generation_ = 0;
  int32_t span_row_ = -1;
  int32_t span_parent_ = -1;
  uint32_t span_depth_ = 0;
  int32_t verdict_ = kFlightVerdictAbandoned;
  uint64_t work_ = 0;
  std::vector<std::pair<const char*, uint64_t>> attrs_;
  std::vector<std::pair<const char*, std::string>> notes_;
};

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_OP_H_
