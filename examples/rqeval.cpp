// rqeval — evaluate a query of any class over a graph database file.
//
//   rqeval [--trace] [--profile] [--profile-json <path>]
//          [--stats-json <path>] [--chrome-trace <path>]
//          [--flight-dump <path>] [--prometheus <path>]
//          [--cache] [--jobs N] [--timeout-ms N] [--memory-budget-mb N]
//          <graph-file> <class> <query>
//     graph-file : edge list, one "src label dst" per line ('#' comments)
//     class      : path | crpq | rq | datalog
//     query      : query text, or @path to read from a file
//     --trace             print the span tree of the evaluation (plus
//                         non-zero counters/gauges/histograms) to stderr
//     --profile           print an EXPLAIN ANALYZE-style per-query report
//                         (counter deltas, windowed distributions, gauge
//                         levels) after the answers
//     --profile-json <path> write the same report as JSON (schema
//                         "rq-profile/1") to <path>
//     --stats-json <path> write the observability snapshot (counters,
//                         gauges, histograms, spans; schema "rq-obs/2")
//                         to <path>
//     --chrome-trace <path> write the spans as Chrome trace-event JSON
//                         (Perfetto / chrome://tracing)
//     --flight-dump <path> write the flight recorder's ring of completed
//                         queries plus the slow-query log to <path>
//                         ("-" = stderr)
//     --prometheus <path> write every counter, gauge, and histogram in
//                         Prometheus text exposition format to <path>
//     --cache             enable the content-addressed automata/verdict
//                         cache (docs/CACHING.md)
//     --jobs N            worker threads for evaluation: path and crpq
//                         queries fan their multi-source product-BFS over
//                         N workers sharing one immutable graph snapshot
//                         (shared flag surface with rqcheck, where the
//                         same knob drives batched containment checks)
//     --timeout-ms N      wall-clock budget for the evaluation; expiry
//                         fails with DeadlineExceeded (exit 2) instead of
//                         hanging (docs/ROBUSTNESS.md)
//     --memory-budget-mb N byte budget for the evaluation (common/mem.h):
//                         crossing it fails with ResourceExhausted
//                         (exit 4, not a crash) through the same polling
//                         sites as --timeout-ms, and bumps the
//                         mem.budget_exceeded counter. The evaluation
//                         always runs under a MemContext, so --profile
//                         reports a per-subsystem peak-byte breakdown
//                         either way
//
// Examples:
//   rqeval net.graph path 'knows+'
//   rqeval net.graph crpq 'q(x,y) :- (knows+)(x,y), (member)(x,g)'
//   rqeval net.graph rq 'q(x,y) := tc[x,y](knows(x,y))'
//   rqeval net.graph datalog @reach.dl
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <vector>

#include "cache/automata_cache.h"
#include "common/deadline.h"
#include "common/mem.h"
#include "common/parallel.h"
#include "crpq/crpq.h"
#include "datalog/eval.h"
#include "graph/graph_db.h"
#include "obs/cli.h"
#include "pathquery/path_query.h"
#include "rq/eval.h"
#include "rq/parser.h"

using namespace rq;  // examples only

namespace {

std::string LoadArg(const std::string& arg) {
  if (arg.empty() || arg[0] != '@') return arg;
  std::ifstream in(arg.substr(1));
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "rqeval: %s\n", message.c_str());
  return 2;
}

void PrintTuples(const GraphDb& db, const Relation& relation) {
  for (const Tuple& t : relation.SortedTuples()) {
    for (size_t i = 0; i < t.size(); ++i) {
      std::printf(i == 0 ? "%s" : "\t%s",
                  db.NodeName(static_cast<NodeId>(t[i])).c_str());
    }
    std::printf("\n");
  }
  std::printf("-- %zu tuples\n", relation.size());
}

int RunEval(const std::string& graph_file, const std::string& cls,
            const std::string& text) {
  std::ifstream in(graph_file);
  if (!in) return Fail("cannot open " + graph_file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto graph = GraphDb::FromText(buffer.str());
  if (!graph.ok()) return Fail(graph.status().ToString());

  if (cls == "path") {
    auto q = ParsePathQuery(text, &graph->alphabet());
    if (!q.ok()) return Fail(q.status().ToString());
    Relation out(2);
    for (const auto& [x, y] : EvalPathQuery(*graph, *q->regex)) {
      out.Insert({x, y});
    }
    // Path evaluation reports truncation through the installed context
    // rather than a Status return; surface it instead of printing a
    // silently partial answer set.
    if (Status s = CheckExecContext(); !s.ok()) return Fail(s.ToString());
    PrintTuples(*graph, out);
    return 0;
  }
  if (cls == "crpq") {
    auto q = ParseUc2Rpq(text, &graph->alphabet());
    if (!q.ok()) return Fail(q.status().ToString());
    auto out = EvalUc2Rpq(*graph, *q);
    if (!out.ok()) return Fail(out.status().ToString());
    PrintTuples(*graph, *out);
    return 0;
  }
  if (cls == "rq") {
    auto q = ParseRq(text);
    if (!q.ok()) return Fail(q.status().ToString());
    auto out = EvalRqQuery(GraphToDatabase(*graph), *q);
    if (!out.ok()) return Fail(out.status().ToString());
    PrintTuples(*graph, *out);
    return 0;
  }
  if (cls == "datalog") {
    auto q = ParseDatalog(text);
    if (!q.ok()) return Fail(q.status().ToString());
    auto out = EvalDatalogGoal(*q, GraphToDatabase(*graph));
    if (!out.ok()) return Fail(out.status().ToString());
    PrintTuples(*graph, *out);
    return 0;
  }
  return Fail("unknown class: " + cls);
}

}  // namespace

int main(int argc, char** argv) {
  obs::CliOutputs outputs;
  std::string value;
  int64_t timeout_ms = 0;
  int64_t memory_budget_mb = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (outputs.TakeFlag(argc, argv, &i)) continue;
    if (arg == "--cache") {
      cache::AutomataCache::Global().SetEnabled(true);
    } else if (obs::TakeFlagValue("--jobs", argc, argv, &i, &value)) {
      SetDefaultParallelJobs(
          static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10)));
    } else if (obs::TakeFlagValue("--timeout-ms", argc, argv, &i, &value)) {
      timeout_ms = std::strtoll(value.c_str(), nullptr, 10);
    } else if (obs::TakeFlagValue("--memory-budget-mb", argc, argv, &i,
                                  &value)) {
      memory_budget_mb = std::strtoll(value.c_str(), nullptr, 10);
    } else {
      positional.push_back(std::move(arg));
    }
  }
  if (positional.size() != 3) {
    return Fail(
        "usage: rqeval [--trace] [--profile] [--profile-json <path>] "
        "[--stats-json <path>] [--chrome-trace <path>] "
        "[--flight-dump <path>] [--prometheus <path>] [--cache] [--jobs N] "
        "[--timeout-ms N] [--memory-budget-mb N] "
        "<graph-file> <path|crpq|rq|datalog> <query>");
  }
  const std::string query = LoadArg(positional[2]);
  outputs.Begin("rqeval", positional[1], query, positional[1] + " " + query);

  // The evaluation always runs under a MemContext (budget 0 = unlimited)
  // so --profile reports the per-subsystem peak-byte breakdown; the
  // context stays installed through outputs.Finish(), which samples it.
  MemContext mem_ctx(memory_budget_mb > 0
                         ? static_cast<uint64_t>(memory_budget_mb) * 1024 *
                               1024
                         : 0);
  ScopedMemContext scoped_mem(&mem_ctx);

  int code;
  {
    // Scope the deadline to the evaluation so the stats/trace dumps below
    // never run under an expired context.
    ExecContext ctx(timeout_ms > 0 ? Deadline::AfterMillis(timeout_ms)
                                   : Deadline::Infinite());
    std::optional<ScopedExecContext> scoped;
    if (timeout_ms > 0) scoped.emplace(&ctx);
    code = RunEval(positional[0], positional[1], query);
  }
  // Distinct exit code for a memory-budget failure (exceeded() reads the
  // shared pot, so trips latched on worker mirrors count too).
  if (code == 2 && mem_ctx.exceeded()) code = 4;

  std::string error = outputs.Finish();
  return error.empty() ? code : Fail(error);
}
