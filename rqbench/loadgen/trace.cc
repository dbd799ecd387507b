#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <type_traits>
#include <utility>

#include "automata/alphabet.h"
#include "automata/containment.h"
#include "automata/reduce.h"
#include "cache/automata_cache.h"
#include "checks.h"
#include "containment/batch.h"
#include "crpq/crpq.h"
#include "graph/graph_db.h"
#include "obs/subsystems.h"
#include "pathquery/containment.h"
#include "pathquery/path_query.h"
#include "relational/cq.h"
#include "relational/incremental.h"
#include "rq/containment.h"
#include "rq/eval.h"
#include "rq/parser.h"
#include "server/graph_store.h"
#include "server/handlers.h"
#include "server/protocol.h"
#include "twoway/fold.h"
#include "workloads.h"

namespace rqbench {

namespace {

using Clock = std::chrono::steady_clock;
using rq::obs::JsonValue;

// Requests replayed per workload: fixed prefixes of the unbounded streams,
// so a traced run has a bounded cost.
constexpr uint64_t kColdReplay = 150;
constexpr uint64_t kScanReplay = 30;
constexpr int kReadsPerBatch = 3;

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
  // True for spans on the handler's own call path (the coverage sum).
  bool mirror = false;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void SetRequest(uint64_t request) { request_ = request; }

  template <typename F>
  auto Time(const char* name, F&& f, bool mirror = false) {
    int32_t idx = Begin(name, mirror);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      End(idx);
    } else {
      auto result = f();
      End(idx);
      return result;
    }
  }
  template <typename F>
  auto Mirror(const char* name, F&& f) {
    return Time(name, std::forward<F>(f), /*mirror=*/true);
  }

  int32_t Begin(const std::string& name, bool mirror = false) {
    Span span;
    span.name = name;
    span.start_ns = Now();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request_;
    span.mirror = mirror;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int32_t idx) {
    spans_[idx].end_ns = Now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return out;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
  }

 private:
  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }

  Clock::time_point origin_;
  uint64_t request_ = 0;
  std::vector<int32_t> stack_;
  std::vector<Span> spans_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint32_t SymbolUniverse(const rq::Regex& q1, const rq::Regex& q2,
                        const rq::Alphabet& alphabet) {
  uint32_t k = std::max({static_cast<uint32_t>(alphabet.num_symbols()),
                         q1.MinNumSymbols(), q2.MinNumSymbols()});
  return (k + 1) & ~1u;  // even, as the fold machinery requires
}

// Runs `f` with the automata cache switched off, so a layer's entry point
// does its construction instead of a lookup.
template <typename F>
auto Uncached(F&& f) {
  rq::cache::AutomataCache& cache = rq::cache::AutomataCache::Global();
  cache.SetEnabled(false);
  auto result = f();
  cache.SetEnabled(true);
  return result;
}

class Replay {
 public:
  Replay(const std::string& workload, uint64_t seed, int seconds)
      : workload_(workload), seed_(seed), seconds_(seconds) {}

  TraceReport Run(const std::string& span_file) {
    // Same process-wide knobs as `rqserved --workers 2 --jobs 2`.
    rq::SetDefaultContainmentJobs(2);
    rq::cache::AutomataCache::Global().SetEnabled(true);
    rq::cache::AutomataCache::Global().Clear();

    if (workload_ == "contain-cold") {
      ContainCold();
    } else if (workload_ == "eval-scan") {
      EvalScan();
    } else if (workload_ == "mutate-mixed") {
      MutateMixed();
    }
    Summarize();
    tracer_.Write(span_file);
    report_.spans = tracer_.spans().size();
    return std::move(report_);
  }

 private:
  // ------------------------------------------------------ step 1 helpers

  // One request through ParseRequest -> ExecuteRequest -> Dump.
  std::optional<JsonValue> RequestPath(const JsonValue& request,
                                       const rq::server::HandlerContext& ctx,
                                       uint64_t id) {
    tracer_.SetRequest(id);
    int32_t root = tracer_.Begin("step1.request");
    std::string text = request.Dump();
    auto parsed = tracer_.Time("server.parse",
                               [&] { return rq::server::ParseRequest(text); });
    if (!parsed.ok()) {
      tracer_.End(root);
      report_.problems.push_back("ParseRequest: " + parsed.status().ToString());
      return std::nullopt;
    }
    JsonValue response = tracer_.Time(
        "server.execute", [&] { return rq::server::ExecuteRequest(*parsed, ctx); });
    std::string wire = tracer_.Time("server.render", [&] { return response.Dump(); });
    tracer_.End(root);
    ++report_.replayed_requests;
    return response;
  }

  // ------------------------------------------------------------- contain

  void ContainCold() {
    std::vector<ContainOp> warmup, stream;
    for (uint64_t i = 0; i < kColdWarmupOps; ++i) {
      warmup.push_back(ColdWarmupOp(seed_, i));
    }
    for (uint64_t i = 0; i < kColdReplay; ++i) {
      stream.push_back(ColdOp(seed_, i));
    }
    rq::server::HandlerContext ctx;
    auto warm = [&] {
      rq::cache::AutomataCache::Global().Clear();
      for (size_t i = 0; i < warmup.size(); ++i) {
        rq::server::ExecuteRequest(
            *rq::server::ParseRequest(ContainRequest(warmup[i], i).Dump()), ctx);
      }
    };
    // Step 1: the request path, cache state as the server's.
    warm();
    for (size_t i = 0; i < stream.size(); ++i) {
      auto response = RequestPath(ContainRequest(stream[i], i), ctx, i);
      if (!response.has_value()) continue;
      std::string error = ResponseError(*response);
      std::string wrong = error.empty()
                              ? CheckContainResponse(stream[i], *response)
                              : error;
      if (!wrong.empty() && report_.problems.size() < 10) {
        report_.problems.push_back(wrong);
      }
    }
    // Step 2: the same stream through each layer, from the same cache state.
    warm();
    for (size_t i = 0; i < stream.size(); ++i) {
      tracer_.SetRequest(i);
      int32_t root = tracer_.Begin("step2.request");
      ContainLayers(stream[i]);
      tracer_.End(root);
    }
  }

  void ContainLayers(const ContainOp& op) {
    if (op.cls == "rpq" || op.cls == "2rpq") {
      PathLayers(op);
    } else if (op.cls == "ucq") {
      auto q1 = tracer_.Mirror("relational.ucq_parse",
                               [&] { return rq::ParseUcq(op.q1); });
      auto q2 = tracer_.Mirror("relational.ucq_parse",
                               [&] { return rq::ParseUcq(op.q2); });
      if (!q1.ok() || !q2.ok()) return;
      tracer_.Mirror("relational.ucq_containment",
                     [&] { return rq::UcqContained(*q1, *q2); });
    } else if (op.cls == "uc2rpq") {
      rq::Alphabet alphabet;
      auto q1 = tracer_.Mirror("crpq.parse",
                               [&] { return rq::ParseUc2Rpq(op.q1, &alphabet); });
      auto q2 = tracer_.Mirror("crpq.parse",
                               [&] { return rq::ParseUc2Rpq(op.q2, &alphabet); });
      if (!q1.ok() || !q2.ok()) return;
      tracer_.Mirror("crpq.containment", [&] {
        return rq::CheckUc2RpqContainment(*q1, *q2, alphabet);
      });
    } else if (op.cls == "rq") {
      auto q1 = tracer_.Mirror("rq.parse", [&] { return rq::ParseRq(op.q1); });
      auto q2 = tracer_.Mirror("rq.parse", [&] { return rq::ParseRq(op.q2); });
      if (!q1.ok() || !q2.ok()) return;
      tracer_.Mirror("rq.containment",
                     [&] { return rq::CheckRqContainment(*q1, *q2); });
      if (op.type == "equivalence") {
        tracer_.Mirror("rq.containment",
                       [&] { return rq::CheckRqContainment(*q2, *q1); });
      }
    }
  }

  // rpq / 2rpq: the constructions of Lemma 1 and of Theorem 5's pipeline
  // (Lemma 3 fold, then the 2RPQ containment check the server runs), then
  // the handler's batch call.
  void PathLayers(const ContainOp& op) {
    rq::Alphabet alphabet;
    auto r1 = tracer_.Mirror("regex.parse",
                             [&] { return rq::ParseRegex(op.q1, &alphabet); });
    auto r2 = tracer_.Mirror("regex.parse",
                             [&] { return rq::ParseRegex(op.q2, &alphabet); });
    if (!r1.ok() || !r2.ok()) return;
    const rq::Regex& q1 = **r1;
    const rq::Regex& q2 = **r2;
    std::vector<std::pair<const rq::Regex*, const rq::Regex*>> directions = {
        {&q1, &q2}};
    if (op.type == "equivalence") directions.emplace_back(&q2, &q1);

    for (const auto& [a, b] : directions) {
      const uint32_t k = SymbolUniverse(*a, *b, alphabet);
      rq::Nfa n1 = tracer_.Time("regex.to_nfa", [&] { return a->ToNfa(k); });
      rq::Nfa n2 = tracer_.Time("regex.to_nfa", [&] { return b->ToNfa(k); });
      rq::Nfa e1 = tracer_.Time("automata.eps_removal",
                                [&] { return n1.WithoutEpsilons(); });
      rq::Nfa e2 = tracer_.Time("automata.eps_removal",
                                [&] { return n2.WithoutEpsilons(); });
      if (!a->UsesInverse() && !b->UsesInverse()) {
        tracer_.Time("automata.containment", [&] {
          return Uncached([&] { return rq::CheckLanguageContainment(n1, n2); });
        });
        continue;
      }
      rq::Nfa a2 = tracer_.Time("automata.reduce", [&] {
        return rq::ReduceBySimulation(e2.Trimmed());
      });
      tracer_.Time("twoway.fold", [&] { return rq::FoldTwoNfa(a2); });
      tracer_.Time("pathquery.twoway_containment", [&] {
        return Uncached([&] { return rq::CheckTwoWayContainment(*a, *b, alphabet); });
      });
    }

    std::vector<rq::PathContainmentJob> jobs;
    for (const auto& [a, b] : directions) jobs.push_back({a, b});
    // The handler's call, with the cache as the server had it.
    tracer_.Mirror("containment.batch", [&] {
      return rq::CheckPathContainmentBatch(jobs, alphabet);
    });
    // Batch overhead: the same jobs, warm, through the batch engine and
    // checked directly. Only a batch of several jobs (an equivalence)
    // starts worker threads; one job runs inline.
    if (jobs.size() < 2) return;
    tracer_.Time("containment.direct_warm", [&] {
      std::vector<rq::PathContainmentResult> results;
      for (const auto& job : jobs) {
        results.push_back(rq::CheckPathQueryContainment(*job.q1, *job.q2, alphabet));
      }
      return results;
    });
    tracer_.Time("containment.batch_warm", [&] {
      return rq::CheckPathContainmentBatch(jobs, alphabet);
    });
  }

  // ----------------------------------------------------------- eval-scan

  // Loads `text` the way rqserved --graph does, timing the setup layers.
  std::optional<rq::GraphDb> LoadGraph(const std::string& text,
                                       rq::server::GraphStore* store) {
    tracer_.SetRequest(0);
    auto graph = tracer_.Time("graph.from_text",
                              [&] { return rq::GraphDb::FromText(text); });
    if (!graph.ok()) {
      report_.problems.push_back("FromText: " + graph.status().ToString());
      return std::nullopt;
    }
    tracer_.Time("server.store_load", [&] { store->Load(*graph); });
    return std::move(graph).value();
  }

  // The parts of a graph publication (GraphStore::PublishLocked), timed.
  void PublishLayers(const rq::GraphDb& master) {
    auto frozen = tracer_.Time("graph.copy", [&] {
      return std::make_shared<const rq::GraphDb>(master);
    });
    tracer_.Time("graph.snapshot", [&] { return frozen->Snapshot(); });
    tracer_.Time("relational.graph_to_db",
                 [&] { return rq::GraphToDatabase(*frozen); });
  }

  void EvalScan() {
    rq::server::GraphStore store;
    std::optional<rq::GraphDb> graph =
        LoadGraph(GraphText(ScanGraph(seed_)), &store);
    if (!graph.has_value()) return;
    PublishLayers(*graph);
    auto ctx = [&] {
      rq::server::HandlerContext c;
      c.view = store.Acquire();
      c.store = &store;
      return c;
    };
    for (uint64_t i = 0; i < 2; ++i) {
      rq::server::ExecuteRequest(
          *rq::server::ParseRequest(
              EvalRequest(ScanWarmupQuery(seed_, i), kScanMaxTuples, i).Dump()),
          ctx());
    }
    for (uint64_t i = 0; i < kScanReplay; ++i) {
      RequestPath(EvalRequest(ScanQuery(seed_, i), kScanMaxTuples, i), ctx(), i);
    }
    std::shared_ptr<const rq::GraphSnapshot> snapshot = graph->Snapshot();
    auto& product_states = rq::obs::GraphEvalCounters::Get().product_states;
    for (uint64_t i = 0; i < kScanReplay; ++i) {
      tracer_.SetRequest(i);
      int32_t root = tracer_.Begin("step2.request");
      rq::Alphabet alphabet = graph->alphabet();
      auto q = tracer_.Mirror("regex.parse", [&] {
        return rq::ParsePathQuery(ScanQuery(seed_, i), &alphabet);
      });
      if (!q.ok()) {
        tracer_.End(root);
        continue;
      }
      auto pairs = tracer_.Mirror("pathquery.eval", [&] {
        rq::PathEvalOptions options;
        options.jobs = 2;
        return rq::EvalPathQuery(*snapshot, *q->regex, options);
      });
      uint64_t states0 = product_states.value();
      Clock::time_point t0 = Clock::now();
      tracer_.Time("pathquery.eval_serial", [&] {
        rq::PathEvalOptions options;
        options.jobs = 1;
        return rq::EvalPathQuery(*snapshot, *q->regex, options);
      });
      double serial_ns = std::chrono::duration<double, std::nano>(
                             Clock::now() - t0).count();
      uint64_t states = product_states.value() - states0;
      if (states > 0) ns_per_state_.push_back(serial_ns / states);
      rq::Relation out = tracer_.Mirror("relational.answer_build", [&] {
        rq::Relation relation(2);
        for (const auto& [x, y] : pairs) relation.Insert({x, y});
        return relation;
      });
      tracer_.Mirror("relational.sort", [&] { return out.SortedTuples(); });
      tracer_.End(root);
    }
  }

  // -------------------------------------------------------- mutate-mixed

  void MutateMixed() {
    const GraphSpec spec = MutateGraph(seed_);
    const int batches =
        std::max(1, static_cast<int>(kMutateBatchesPerSecond * seconds_ + 0.5));
    rq::server::GraphStore store;
    std::optional<rq::GraphDb> graph = LoadGraph(GraphText(spec), &store);
    if (!graph.has_value()) return;
    auto ctx = [&] {
      rq::server::HandlerContext c;
      c.view = store.Acquire();
      c.store = &store;
      return c;
    };
    auto read_request = [&](uint32_t label, uint64_t id) {
      return EvalRequest(spec.labels[label] + "+", kMutateMaxTuples, id);
    };
    // Warm-up seeds each closure label, as the benchmark's set-up does.
    for (uint32_t label : MutateClosureLabels()) {
      rq::server::ExecuteRequest(
          *rq::server::ParseRequest(read_request(label, label).Dump()), ctx());
    }

    // Step 1: writes through the store, reads through the request path.
    uint64_t id = 0;
    for (int k = 0; k < batches; ++k) {
      tracer_.SetRequest(1000000 + k);
      std::string text =
          UpdateRequest(MutateBatch(seed_, k), spec.labels, 1000000 + k).Dump();
      auto parsed = rq::server::ParseRequest(text);
      if (!parsed.ok()) continue;
      auto applied = tracer_.Time("server.store_apply",
                                  [&] { return store.Apply(parsed->ops); });
      if (!applied.ok()) {
        report_.problems.push_back("Apply: " + applied.status().ToString());
      }
      for (int j = 0; j < kReadsPerBatch; ++j, ++id) {
        RequestPath(read_request(MutateReadLabel(seed_, id), id), ctx(), id);
      }
    }

    // Step 2: the write path's parts on a master copy of our own, and the
    // read path's sort of the maintained closure.
    rq::GraphDb master = *graph;
    rq::PerLabelClosure closures(1u << 20);
    std::shared_ptr<const rq::GraphSnapshot> snapshot = master.Snapshot();
    for (uint32_t label : MutateClosureLabels()) {
      uint32_t id_in_graph = master.alphabet().InternLabel(spec.labels[label]);
      rq::Relation base(2), closure(2);
      for (const auto& [x, y] :
           snapshot->SymbolPairs(rq::ForwardSymbolOf(id_in_graph))) {
        base.Insert({x, y});
      }
      rq::Alphabet alphabet = master.alphabet();
      auto q = rq::ParsePathQuery(spec.labels[label] + "+", &alphabet);
      for (const auto& [x, y] : rq::EvalPathQuery(*snapshot, *q->regex)) {
        closure.Insert({x, y});
      }
      closures.Seed(id_in_graph, std::move(base), std::move(closure));
    }
    id = 0;
    for (int k = 0; k < batches; ++k) {
      tracer_.SetRequest(1000000 + k);
      int32_t root = tracer_.Begin("step2.update");
      std::vector<uint32_t> touched;
      for (const Edge& e : MutateBatch(seed_, k)) {
        rq::NodeId src = master.AddNamedNode(NodeName(e.src));
        rq::NodeId dst = master.AddNamedNode(NodeName(e.dst));
        uint32_t label = master.alphabet().InternLabel(spec.labels[e.label]);
        master.AddEdge(src, label, dst);
        if (closures.live(label)) {
          tracer_.Time("relational.closure_add",
                       [&] { return closures.AddEdge(label, src, dst); });
          touched.push_back(label);
        } else {
          closures.AddEdge(label, src, dst);
        }
      }
      for (uint32_t label : touched) {
        tracer_.Time("relational.closure_copy", [&] {
          return std::make_shared<const rq::Relation>(*closures.closure(label));
        });
      }
      PublishLayers(master);
      tracer_.End(root);
      for (int j = 0; j < kReadsPerBatch; ++j, ++id) {
        tracer_.SetRequest(id);
        int32_t read_root = tracer_.Begin("step2.request");
        uint32_t label = master.alphabet().InternLabel(
            spec.labels[MutateReadLabel(seed_, id)]);
        rq::Alphabet alphabet = master.alphabet();
        tracer_.Mirror("regex.parse", [&] {
          return rq::ParsePathQuery(spec.labels[MutateReadLabel(seed_, id)] + "+",
                                    &alphabet);
        });
        if (const rq::Relation* closure = closures.closure(label)) {
          tracer_.Mirror("relational.sort",
                         [&] { return closure->SortedTuples(); });
        }
        tracer_.End(read_root);
      }
    }
  }

  // ---------------------------------------------------------- summaries

  void Summarize() {
    auto median = [&](const char* span, double scale) {
      std::vector<double> d = tracer_.Durations(span);
      return d.empty() ? std::optional<double>() : Median(d) / scale;
    };
    auto put = [&](const char* metric, const char* span, double scale) {
      if (auto v = median(span, scale)) report_.metrics[metric] = *v;
    };
    constexpr double kUs = 1e3, kMs = 1e6;
    put("server.parse_us", "server.parse", kUs);
    put("server.execute_us", "server.execute", kUs);
    put("server.render_us", "server.render", kUs);
    put("server.store_load_ms", "server.store_load", kMs);
    put("server.store_apply_ms", "server.store_apply", kMs);
    put("regex.parse_us", "regex.parse", kUs);
    put("regex.to_nfa_us", "regex.to_nfa", kUs);
    put("automata.eps_removal_us", "automata.eps_removal", kUs);
    put("automata.containment_us", "automata.containment", kUs);
    put("twoway.fold_us", "twoway.fold", kUs);
    put("pathquery.twoway_containment_ms", "pathquery.twoway_containment", kMs);
    put("pathquery.eval_ms", "pathquery.eval", kMs);
    put("pathquery.eval_serial_ms", "pathquery.eval_serial", kMs);
    put("crpq.containment_us", "crpq.containment", kUs);
    put("rq.containment_us", "rq.containment", kUs);
    put("relational.ucq_containment_us", "relational.ucq_containment", kUs);
    put("relational.answer_build_ms", "relational.answer_build", kMs);
    put("relational.sort_ms", "relational.sort", kMs);
    put("relational.closure_add_us", "relational.closure_add", kUs);
    put("relational.graph_to_db_ms", "relational.graph_to_db", kMs);
    put("graph.from_text_ms", "graph.from_text", kMs);
    put("graph.copy_ms", "graph.copy", kMs);
    put("graph.snapshot_ms", "graph.snapshot", kMs);
    if (!ns_per_state_.empty()) {
      report_.metrics["pathquery.ns_per_state"] = Median(ns_per_state_);
    }
    // Batch overhead per equivalence: batch minus direct, both warm.
    std::vector<double> batch = tracer_.Durations("containment.batch_warm");
    std::vector<double> direct = tracer_.Durations("containment.direct_warm");
    if (!batch.empty() && batch.size() == direct.size()) {
      std::vector<double> overhead;
      for (size_t i = 0; i < batch.size(); ++i) {
        overhead.push_back((batch[i] - direct[i]) / kUs);
      }
      report_.metrics["containment.batch_overhead_us"] = Median(overhead);
    }

    // Handler time of replayed query requests, and how much of the execute
    // time the step-2 handler-order spans cover.
    double handler_ns = 0, execute_ns = 0, mirror_ns = 0;
    uint64_t handled = 0;
    const std::vector<Span>& spans = tracer_.spans();
    for (const Span& s : spans) {
      double d = static_cast<double>(s.end_ns - s.start_ns);
      if (s.name == "step1.request") {
        handler_ns += d;
        ++handled;
      }
      if (s.name == "server.execute") execute_ns += d;
      if (s.mirror) mirror_ns += d;
    }
    report_.mean_handler_us = handled ? handler_ns / handled / kUs : 0;
    report_.execute_coverage = execute_ns > 0 ? mirror_ns / execute_ns : 0;
  }

  std::string workload_;
  uint64_t seed_;
  int seconds_;
  Tracer tracer_;
  TraceReport report_;
  std::vector<double> ns_per_state_;
};

}  // namespace

TraceReport RunTrace(const std::string& workload, uint64_t seed, int seconds,
                     const std::string& span_file) {
  return Replay(workload, seed, seconds).Run(span_file);
}

}  // namespace rqbench
