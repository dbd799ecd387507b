#include "twoway/fold.h"

#include <deque>

#include "common/deadline.h"
#include "common/mem.h"
#include "obs/op.h"
#include "obs/subsystems.h"

namespace rq {

bool Folds(const std::vector<Symbol>& v, const std::vector<Symbol>& u) {
  const size_t m = v.size();
  const size_t n = u.size();
  // seen[j][i]: after consuming v_1..v_j the fold position can be i.
  std::vector<std::vector<bool>> seen(m + 1,
                                      std::vector<bool>(n + 1, false));
  seen[0][0] = true;
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 0; i <= n; ++i) {
      if (!seen[j][i]) continue;
      // Forward: i -> i+1 consuming u_{i+1}.
      if (i < n && v[j] == u[i]) seen[j + 1][i + 1] = true;
      // Backward: i -> i-1 consuming (u_i)⁻.
      if (i > 0 && v[j] == InverseSymbol(u[i - 1])) seen[j + 1][i - 1] = true;
    }
  }
  return seen[m][n];
}

TwoNfa FoldTwoNfa(const Nfa& input) {
  obs::OpScope op("fold.construct");
  MemScope mem_scope(MemSubsystem::kFold);
  const Nfa a = input.HasEpsilons() ? input.WithoutEpsilons() : input;
  const uint32_t k = a.num_symbols();
  TwoNfa out(k);

  // State encoding: (s, none) = s*(k+1); (s, pending b) = s*(k+1) + 1 + b.
  const uint32_t width = k + 1;
  for (uint32_t s = 0; s < a.num_states(); ++s) {
    for (uint32_t p = 0; p < width; ++p) out.AddState();
  }
  // Charges are batched per kChargeStride states: one atomic update per
  // stride instead of per state, with budget slack bounded by one stride
  // (the same bargain the deadline stride makes with the clock).
  constexpr uint32_t kChargeStride = 64;
  int64_t pending_bytes = static_cast<int64_t>(
      static_cast<uint64_t>(a.num_states()) * width *
      sizeof(std::vector<TwoNfaTransition>));
  auto none_state = [&](uint32_t s) { return s * width; };
  auto pending_state = [&](uint32_t s, Symbol b) { return s * width + 1 + b; };

  for (uint32_t s = 0; s < a.num_states(); ++s) {
    // Stop early (truncated 2NFA) when the installed ExecContext trips; the
    // Status-returning caller polls the same context and discards it.
    if (ExecStopRequested()) break;
    // Leave the left marker (used by initial states; harmless elsewhere).
    out.AddTransition(none_state(s), out.LeftMarker(), none_state(s),
                      Dir::kRight);
    // Forward steps: consume u_{i+1} under the head, fold position +1.
    for (const NfaTransition& t : a.TransitionsFrom(s)) {
      out.AddTransition(none_state(s), t.symbol, none_state(t.to),
                        Dir::kRight);
    }
    // Backward steps, phase 1: A consumes letter b; we must verify that b is
    // the inverse of the tape cell to the left, so move left carrying b.
    // This fires on any tape cell including the right marker (a fold can
    // turn around at the right end of u).
    for (const NfaTransition& t : a.TransitionsFrom(s)) {
      for (Symbol c = 0; c < k; ++c) {
        out.AddTransition(none_state(s), c, pending_state(t.to, t.symbol),
                          Dir::kLeft);
      }
      out.AddTransition(none_state(s), out.RightMarker(),
                        pending_state(t.to, t.symbol), Dir::kLeft);
    }
    // Backward steps, phase 2: verify pending letter against the cell.
    // (On ⊢ there is no transition: a fold cannot step left of position 0.)
    for (Symbol b = 0; b < k; ++b) {
      Symbol cell = InverseSymbol(b);  // b must equal (u_i)⁻, so u_i = b⁻
      out.AddTransition(pending_state(s, b), cell, none_state(s), Dir::kStay);
    }
    // Transitions added for this source NFA state: the fold table rows are
    // where the k-fold width actually lands in memory.
    uint64_t deg = a.TransitionsFrom(s).size();
    pending_bytes += static_cast<int64_t>((1 + k + deg * (k + 2)) *
                                          sizeof(TwoNfaTransition));
    if ((s + 1) % kChargeStride == 0) {
      MemCharge(pending_bytes);
      pending_bytes = 0;
    }
  }
  MemCharge(pending_bytes);
  for (uint32_t s : a.initial()) out.AddInitial(none_state(s));
  for (uint32_t s = 0; s < a.num_states(); ++s) {
    if (a.IsAccepting(s)) out.SetAccepting(none_state(s));
  }
  uint64_t num_transitions = 0;
  for (uint32_t s = 0; s < out.num_states(); ++s) {
    num_transitions += out.TransitionsFrom(s).size();
  }
  obs::FoldCounters& counters = obs::FoldCounters::Get();
  counters.constructions.Increment();
  counters.states.Add(out.num_states());
  counters.transitions.Add(num_transitions);
  counters.states_per_construction.Record(out.num_states());
  counters.peak_states.Set(out.num_states());
  op.Attr("states", out.num_states());
  op.Attr("transitions", num_transitions);
  return out;
}

bool FoldsOntoWord(const Nfa& input, const std::vector<Symbol>& u) {
  const Nfa a = input.HasEpsilons() ? input.WithoutEpsilons() : input;
  const size_t n = u.size();
  // Configurations: (state of a, fold position 0..n).
  std::vector<bool> seen(static_cast<size_t>(a.num_states()) * (n + 1),
                         false);
  std::deque<std::pair<uint32_t, size_t>> work;
  auto push = [&](uint32_t s, size_t i) {
    size_t key = static_cast<size_t>(s) * (n + 1) + i;
    if (!seen[key]) {
      seen[key] = true;
      work.emplace_back(s, i);
    }
  };
  for (uint32_t s : a.initial()) push(s, 0);
  while (!work.empty()) {
    auto [s, i] = work.front();
    work.pop_front();
    if (i == n && a.IsAccepting(s)) return true;
    for (const NfaTransition& t : a.TransitionsFrom(s)) {
      if (i < n && t.symbol == u[i]) push(t.to, i + 1);
      if (i > 0 && t.symbol == InverseSymbol(u[i - 1])) push(t.to, i - 1);
    }
  }
  return false;
}

}  // namespace rq
