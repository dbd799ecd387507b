// Request builders and response checks shared by the load generator and
// the traced replay. A check returns an empty string when the response is
// right and a one-line reason when it is not.
#ifndef RQBENCH_LOADGEN_CHECKS_H_
#define RQBENCH_LOADGEN_CHECKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "workloads.h"

namespace rqbench {

rq::obs::JsonValue ContainRequest(const ContainOp& op, uint64_t id);
rq::obs::JsonValue EvalRequest(const std::string& query, int64_t max_tuples,
                               uint64_t id);
rq::obs::JsonValue UpdateRequest(const std::vector<Edge>& batch,
                                 const std::vector<std::string>& labels,
                                 uint64_t id);

// The server's error code for a failed response, or "" when ok.
std::string ResponseError(const rq::obs::JsonValue& response);

// Verdict against the one known by construction; refuted path pairs also
// get their counterexample word checked by the reference matcher.
std::string CheckContainResponse(const ContainOp& op,
                                 const rq::obs::JsonValue& response);

// An eval response reduced to what the checks need.
struct EvalAnswer {
  uint64_t count = 0;
  bool truncated = false;
  uint64_t epoch = 0;
  std::vector<std::pair<uint32_t, uint32_t>> tuples;
  std::string malformed;  // non-empty when the response could not be read
};
EvalAnswer ReadEvalAnswer(const rq::obs::JsonValue& response);

// Checks count, membership of every returned tuple, absence of
// duplicates, the number of rows returned, and truncated iff
// count > max_tuples. `rows[v]` is the sorted reference answer row of v.
std::string CheckEvalAnswer(const EvalAnswer& answer,
                            const std::vector<std::vector<uint32_t>>& rows,
                            int64_t max_tuples);

}  // namespace rqbench

#endif  // RQBENCH_LOADGEN_CHECKS_H_
