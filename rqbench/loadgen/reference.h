// Independent correctness references for the benchmark. Nothing here calls
// into librq: the regex parser, word matcher, path evaluator and closure
// are written from the definitions so that a fault in the library's own
// constructions cannot also hide in the check.
#ifndef RQBENCH_LOADGEN_REFERENCE_H_
#define RQBENCH_LOADGEN_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace rqbench {

// Regular expression over labels and inverse labels (`a-`), in the same
// surface syntax the server accepts (docs/SYNTAX.md).
struct RefRegex {
  enum class Kind { kEpsilon, kAtom, kConcat, kUnion, kStar, kPlus, kOptional };
  Kind kind = Kind::kEpsilon;
  std::string symbol;  // kAtom: "a" or "a-"
  std::vector<RefRegex> children;
};

std::optional<RefRegex> ParseRefRegex(std::string_view text);

// Splits a rendered word ("a b- c") into its symbols.
std::vector<std::string> SplitWord(std::string_view text);

// True when `word` (a sequence of symbols such as "a", "b-") is in L(r).
bool WordMatches(const RefRegex& r, const std::vector<std::string>& word);

// Base labels a regex mentions, forward or inverse ("a-" counts as "a").
std::set<std::string> LabelsOf(const RefRegex& r);

// Edge-labelled graph over dense node ids with per-label adjacency in both
// directions (an inverse atom walks the transpose).
class RefGraph {
 public:
  RefGraph(uint32_t num_nodes, const std::vector<std::string>& labels);

  void AddEdge(uint32_t src, const std::string& label, uint32_t dst);
  uint32_t num_nodes() const { return num_nodes_; }

  // Nodes reachable from `source` along a word of L(r), for a star-free r
  // (concatenations and unions of atoms, optionally `?`). Sorted, unique.
  std::vector<uint32_t> Reach(const RefRegex& r, uint32_t source) const;

  // Row v: the nodes reachable from v by one or more `label` edges (the
  // transitive closure of that label's edge relation). Sorted, unique.
  std::vector<std::vector<uint32_t>> ClosureRows(
      const std::string& label) const;

 private:
  int LabelIndex(const std::string& label) const;
  std::vector<uint32_t> Step(const std::string& symbol,
                             const std::vector<uint32_t>& from) const;
  std::vector<uint32_t> Apply(const RefRegex& r,
                              const std::vector<uint32_t>& from) const;

  uint32_t num_nodes_;
  std::vector<std::string> labels_;
  // forward_[l][v] / backward_[l][v]: neighbours of v along label l.
  std::vector<std::vector<std::vector<uint32_t>>> forward_;
  std::vector<std::vector<std::vector<uint32_t>>> backward_;
};

// Hand-computed cases for every reference above. Returns the failures
// (empty when all pass).
std::vector<std::string> RunReferenceSelfTests();

}  // namespace rqbench

#endif  // RQBENCH_LOADGEN_REFERENCE_H_
