// The traced run: replays a workload's request stream in-process and times
// every layer's public entry points with spans kept in memory.
//
//   1. The request path: ParseRequest -> ExecuteRequest -> serialisation,
//      against store and cache state equal to the server's (same graph
//      load, same warm-up, same --jobs, automata cache on).
//   2. The same stream again through each layer's entry points, in the
//      order the handler calls them.
//   3. Spans (name, start, end, parent, request id) are written out as
//      JSON lines at the end.
#ifndef RQBENCH_LOADGEN_TRACE_H_
#define RQBENCH_LOADGEN_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rqbench {

struct TraceReport {
  // Per-layer figures measured in-process (medians per call unless the
  // name says otherwise); layers a workload does not exercise are absent.
  std::map<std::string, double> metrics;
  // Mean in-process parse + execute + render of the replayed query
  // requests, in microseconds (the traced run's own end-to-end figure).
  double mean_handler_us = 0;
  // Share of the replayed execute time that step 2's handler-order layer
  // spans account for.
  double execute_coverage = 0;
  uint64_t replayed_requests = 0;
  uint64_t spans = 0;
  // Wrong answers seen during the replay (empty when all were right).
  std::vector<std::string> problems;
};

TraceReport RunTrace(const std::string& workload, uint64_t seed, int seconds,
                     const std::string& span_file);

}  // namespace rqbench

#endif  // RQBENCH_LOADGEN_TRACE_H_
