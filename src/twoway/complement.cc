#include "twoway/complement.h"

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/mem.h"
#include "obs/op.h"
#include "obs/subsystems.h"

namespace rq {

namespace {

// Per tape symbol, per source state: masks of Stay/Left/Right targets.
struct CellArrows {
  std::vector<uint32_t> stay;
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
};

// Checks the local closure constraints of a cell carrying a tape symbol with
// arrows `ca`, for set `mid` with left neighbor `pred`; on success stores
// the minimal right-neighbor requirement in `right_req`.
bool CellOk(const CellArrows& ca, uint32_t pred, uint32_t mid,
            uint32_t* right_req) {
  uint32_t req = 0;
  uint32_t m = mid;
  while (m != 0) {
    uint32_t s = static_cast<uint32_t>(__builtin_ctz(m));
    m &= m - 1;
    if ((ca.stay[s] & ~mid) != 0) return false;
    if ((ca.left[s] & ~pred) != 0) return false;
    req |= ca.right[s];
  }
  *right_req = req;
  return true;
}

}  // namespace

namespace {

// Per interned (pred, mid) pair: the hash-map entry plus the Nfa state's
// vector headers. Transitions are charged separately as they are added.
constexpr int64_t kComplementStateBytes = 64;

Result<Nfa> VardiComplementNfaImpl(const TwoNfa& m, size_t max_states) {
  // The 4^n subset interning is the EXPSPACE pressure point
  // (docs/ROBUSTNESS.md): charge per fresh state and per transition so a
  // memory budget trips mid-enumeration via the CheckExecContext polls.
  MemScope mem_scope(MemSubsystem::kComplement);
  const uint32_t n = m.num_states();
  if (n > 20) {
    return InvalidArgumentError(
        "VardiComplementNfa: 2NFA too large (" + std::to_string(n) +
        " states; limit 20)");
  }
  const uint32_t k = m.num_symbols();
  const uint32_t full = (n >= 32) ? 0xffffffffu : ((1u << n) - 1);

  // Index arrows per tape symbol.
  std::vector<CellArrows> arrows(m.num_tape_symbols());
  for (auto& ca : arrows) {
    ca.stay.assign(n, 0);
    ca.left.assign(n, 0);
    ca.right.assign(n, 0);
  }
  for (uint32_t s = 0; s < n; ++s) {
    for (const TwoNfaTransition& t : m.TransitionsFrom(s)) {
      CellArrows& ca = arrows[t.symbol];
      if (t.dir == Dir::kStay) ca.stay[s] |= 1u << t.to;
      if (t.dir == Dir::kLeft) ca.left[s] |= 1u << t.to;
      if (t.dir == Dir::kRight) ca.right[s] |= 1u << t.to;
    }
  }
  uint32_t initial_mask = 0;
  uint32_t accepting_mask = 0;
  for (uint32_t s : m.initial()) initial_mask |= 1u << s;
  for (uint32_t s = 0; s < n; ++s) {
    if (m.IsAccepting(s)) accepting_mask |= 1u << s;
  }

  Nfa out(k);
  std::unordered_map<uint64_t, uint32_t> ids;
  std::deque<std::pair<uint32_t, uint32_t>> work;
  const CellArrows& right_marker = arrows[m.RightMarker()];

  auto is_accepting_pair = [&](uint32_t pred, uint32_t mid) {
    if ((mid & accepting_mask) != 0) return false;
    uint32_t req = 0;
    if (!CellOk(right_marker, pred, mid, &req)) return false;
    // Right moves off ⊣ leave the tape; the run dies, so any req is fine.
    return true;
  };

  auto intern = [&](uint32_t pred, uint32_t mid) -> Result<uint32_t> {
    uint64_t key = (static_cast<uint64_t>(pred) << 32) | mid;
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    if (out.num_states() >= max_states) {
      return ResourceExhaustedError(
          "VardiComplementNfa exceeds max_states=" +
          std::to_string(max_states));
    }
    uint32_t id = out.AddState();
    out.SetAccepting(id, is_accepting_pair(pred, mid));
    ids.emplace(key, id);
    work.emplace_back(pred, mid);
    MemCharge(kComplementStateBytes);
    return id;
  };

  // Initial pairs (U_0, U_1): U_0 ⊇ initial states, closed at ⊢.
  const CellArrows& left_marker = arrows[m.LeftMarker()];
  for (uint32_t u0 = 0; u0 <= full; ++u0) {
    if ((u0 & initial_mask) != initial_mask) continue;
    uint32_t req = 0;
    // Left moves at ⊢ fall off the tape (die): treat pred as "anything".
    if (!CellOk(left_marker, full, u0, &req)) continue;
    // Enumerate U_1 ⊇ req. Up to 2^n iterations per pair, and intern only
    // caps FRESH states — existing ids keep the loop spinning — so poll the
    // ExecContext inside, not just per work item.
    uint32_t rest = full & ~req;
    for (uint32_t extra = rest;; extra = (extra - 1) & rest) {
      RQ_RETURN_IF_ERROR(CheckExecContext());
      RQ_ASSIGN_OR_RETURN(uint32_t id, intern(u0, req | extra));
      out.AddInitial(id);
      if (extra == 0) break;
    }
  }

  while (!work.empty()) {
    auto [pred, mid] = work.front();
    work.pop_front();
    uint64_t key = (static_cast<uint64_t>(pred) << 32) | mid;
    uint32_t from = ids[key];
    for (Symbol a = 0; a < k; ++a) {
      uint32_t req = 0;
      if (!CellOk(arrows[a], pred, mid, &req)) continue;
      uint32_t rest = full & ~req;
      for (uint32_t extra = rest;; extra = (extra - 1) & rest) {
        RQ_RETURN_IF_ERROR(CheckExecContext());
        RQ_ASSIGN_OR_RETURN(uint32_t id, intern(mid, req | extra));
        out.AddTransition(from, a, id);
        MemCharge(sizeof(NfaTransition));
        if (extra == 0) break;
      }
    }
  }
  if (out.num_states() == 0) {
    uint32_t s = out.AddState();
    out.AddInitial(s);
  }
  return out;
}

}  // namespace

Result<Nfa> VardiComplementNfa(const TwoNfa& m, size_t max_states) {
  obs::OpScope op("complement.construct");
  Result<Nfa> result = VardiComplementNfaImpl(m, max_states);
  obs::ComplementCounters& counters = obs::ComplementCounters::Get();
  counters.constructions.Increment();
  if (result.ok()) {
    counters.states.Add(result->num_states());
    counters.peak_states.Set(result->num_states());
    op.Attr("states", result->num_states());
  } else if (result.status().code() == StatusCode::kResourceExhausted) {
    counters.budget_exhausted.Increment();
  }
  return result;
}

}  // namespace rq
