// Seeded inputs of the three workloads. Every generator is a pure function
// of (seed, index): the same seed gives the same request stream, and the
// server only ever sees the generated texts. Each containment pair carries
// the verdict it must get, known from how the pair was built, never from a
// stored copy of an earlier answer.
#ifndef RQBENCH_LOADGEN_WORKLOADS_H_
#define RQBENCH_LOADGEN_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rqbench {

// splitmix64-based generator; independent of the library's own Rng so the
// inputs do not move when the library changes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  Rng(uint64_t seed, uint64_t stream, uint64_t index);
  uint64_t Next();
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
  bool Chance(double p) { return (Next() >> 11) * 0x1.0p-53 < p; }

 private:
  uint64_t state_;
};

enum class Expect { kProved, kRefuted, kEquivalent };
const char* ExpectName(Expect expect);

struct ContainOp {
  std::string type;  // "containment" | "equivalence"
  std::string cls;   // rpq | 2rpq | ucq | uc2rpq | rq
  std::string q1;
  std::string q2;
  Expect expect = Expect::kProved;
  // Accounting key, e.g. "rpq/containment".
  std::string Tag() const { return cls + "/" + type; }
};

// contain-cold: op `index` of an unbounded stream of distinct, larger
// pairs. The kColdWarmupOps warm-up ops come from a separate index space.
inline constexpr uint64_t kColdWarmupOps = 400;
ContainOp ColdOp(uint64_t seed, uint64_t index);
ContainOp ColdWarmupOp(uint64_t seed, uint64_t index);

struct Edge {
  uint32_t src = 0;
  uint32_t label = 0;  // index into GraphSpec::labels
  uint32_t dst = 0;
};

struct GraphSpec {
  uint32_t num_nodes = 0;
  std::vector<std::string> labels;
  std::vector<Edge> edges;
};

// Node `v` is named "n<v>" on the wire.
std::string NodeName(uint32_t v);
// Inverse of NodeName; false on a malformed name.
bool ParseNodeName(const std::string& name, uint32_t* v);
// The `src label dst` edge-list text rqserved --graph loads.
std::string GraphText(const GraphSpec& graph);

// eval-scan: 10^4 nodes, 4 labels, and distinct star-free all-pairs path
// queries (concatenations of label unions, with inverses).
inline constexpr uint32_t kScanNodes = 10000;
inline constexpr int64_t kScanMaxTuples = 1000;
GraphSpec ScanGraph(uint64_t seed);
std::string ScanQuery(uint64_t seed, uint64_t index);
std::string ScanWarmupQuery(uint64_t seed, uint64_t index);

// mutate-mixed: bulk labels plus closure labels laid out as layered DAGs,
// so every closure stays bounded while batches keep extending it.
inline constexpr int kMutateBatchEdges = 10;
inline constexpr double kMutateBatchesPerSecond = 4.0;
// Closure reads the reader sends, back to back, in each batch period.
inline constexpr uint64_t kMutateReadsPerBatch = 16;
inline constexpr int64_t kMutateMaxTuples = 1000;
GraphSpec MutateGraph(uint64_t seed);
std::vector<Edge> MutateBatch(uint64_t seed, uint64_t index);
// The closure labels the reader queries (`c+`, `d+`).
std::vector<uint32_t> MutateClosureLabels();
// Which closure label the reader's request `index` asks for.
uint32_t MutateReadLabel(uint64_t seed, uint64_t index);

}  // namespace rqbench

#endif  // RQBENCH_LOADGEN_WORKLOADS_H_
