// rqload — seeded, single-process load generator for the end-to-end rqserved
// benchmark (see ../README.md).
//
//   rqload --workload <contain-cold|eval-scan|mutate-mixed>
//          --seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//   rqload --selftest
//
// Spawns rqserved (--workers 2 --jobs 2) from --bin-dir, sets it up several
// times to measure set-up, drives the measured phase over at most two client
// connections, checks every response against the independent references,
// and prints one JSON result object as its last line of output. With
// --trace 1 it additionally scrapes /metrics around the measured phase and
// replays the request stream in-process (trace.h) for the per-layer figures.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "obs/json.h"
#include "reference.h"
#include "server/client.h"
#include "server_process.h"
#include "trace.h"
#include "workloads.h"

namespace rqbench {
namespace {

using Clock = std::chrono::steady_clock;
using rq::obs::JsonValue;
using rq::server::BlockingClient;

// Set-up is measured over this many server starts per run, each stopped
// once its set-up is done; the measured phase runs on one more start.
constexpr int kSetupStarts = 9;
constexpr int kConnections = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string bin_dir;
  std::string work_dir;
  bool selftest = false;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / values.size();
}

// Everything one run measured and every operation it checked.
struct Run {
  struct Count {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Count> ops;
  std::vector<std::string> problems;  // first few failure reasons
  bool wrong_answer = false;

  std::vector<double> setup_s;       // server CPU per set-up-only start
  std::vector<double> setup_wall_s;  // spawn until set-up done, per start
  // Measured-phase query latencies, update latencies from their due time,
  // and how late the open-loop writer sent each batch.
  std::vector<double> query_ms;
  std::vector<double> write_ms;
  std::vector<double> lateness_ms;
  double measured_s = 0;
  uint64_t queries = 0;
  uint64_t requests = 0;  // queries plus the phase's updates and probes
  double server_cpu_s = 0;  // server user+sys CPU over the measured phase
  double peak_rss_mb = 0;
  std::map<std::string, double> metrics_before, metrics_after;

  // An operation with its outcome: `error` is a server error or transport
  // failure; `wrong` a response that contradicts the reference.
  void Record(const std::string& tag, const std::string& error,
              const std::string& wrong) {
    Count& c = ops[tag];
    ++c.attempted;
    if (error.empty() && wrong.empty()) return;
    ++c.failed;
    if (!wrong.empty()) wrong_answer = true;
    if (problems.size() < 10) {
      problems.push_back(tag + ": " + (error.empty() ? wrong : error));
    }
  }
};

std::map<std::string, double> ScrapeMetrics(uint16_t port) {
  std::map<std::string, double> out;
  auto body = rq::server::HttpGet("127.0.0.1", port, "/metrics");
  if (!body.ok()) return out;
  std::istringstream in(*body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

// The server under test plus the run's shared set-up/measure skeleton.
class Harness {
 public:
  Harness(const Options& options, Run* run) : opt_(options), run_(run) {}

  // Starts the server kSetupStarts times, each until `warm` (the
  // workload's preload + warm-up) returns, then stops it; a sample is the
  // server's whole-life user + system CPU. CPU rather than wall time,
  // because on a shared host the wall time of the same set-up follows the
  // host's load (runs of one set moved 0.09 to 0.20 s) while the server's
  // work does not. Then starts it once more, set up, for the measured
  // phase.
  bool SetUp(const std::vector<std::string>& args,
             const std::function<bool(BlockingClient&)>& warm) {
    for (int start = 0; start <= kSetupStarts; ++start) {
      Clock::time_point t0 = Clock::now();
      std::string error = server_.Start(
          opt_.bin_dir + "/rqserved", args, opt_.work_dir + "/port.txt",
          opt_.work_dir + "/rqserved.log");
      if (!error.empty()) return Fail(error);
      auto client = rq::server::BlockingClient::Connect("127.0.0.1", port());
      if (!client.ok()) return Fail("connect: " + client.status().ToString());
      if (!warm(*client)) return Fail("warm-up failed");
      run_->setup_wall_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      if (start < kSetupStarts) run_->setup_s.push_back(server_.Stop());
    }
    return true;
  }

  void Finish() { server_.Stop(); }

  // Runs `body` as the measured phase, bracketed by CPU (and, when traced,
  // /metrics) readings of the server.
  void Measure(const std::function<void()>& body) {
    if (opt_.trace) run_->metrics_before = ScrapeMetrics(port());
    Clock::time_point t0 = Clock::now();
    double cpu0 = server_.CpuSeconds();
    body();
    run_->server_cpu_s = server_.CpuSeconds() - cpu0;
    run_->measured_s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (opt_.trace) run_->metrics_after = ScrapeMetrics(port());
    run_->peak_rss_mb = server_.PeakRssMb();
  }

  std::optional<BlockingClient> Connect() {
    auto client = rq::server::BlockingClient::Connect("127.0.0.1", port());
    if (!client.ok()) return std::nullopt;
    return std::move(client).value();
  }

  uint16_t port() const { return server_.port(); }
  bool Fail(const std::string& why) {
    run_->Record("harness", why, "");
    return false;
  }

 private:
  const Options& opt_;
  Run* run_;
  ServerProcess server_;
};

// One closed-loop connection's results, merged after the threads join.
template <typename Result>
struct LoopLog {
  std::vector<double> latency_ms;
  std::vector<Result> results;
  std::string transport_error;
};

// Runs kConnections closed loops until `deadline`. make(c, n) builds the
// n-th request of connection c (outside the timed window); keep(c, n,
// response) reduces a response to what the later check needs.
template <typename Result, typename Make, typename Keep>
std::vector<LoopLog<Result>> ClosedLoops(Harness& harness,
                                         Clock::time_point deadline, Make make,
                                         Keep keep) {
  std::vector<LoopLog<Result>> logs(kConnections);
  std::vector<std::optional<BlockingClient>> clients;
  for (int c = 0; c < kConnections; ++c) clients.push_back(harness.Connect());
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LoopLog<Result>& log = logs[c];
      if (!clients[c].has_value()) {
        log.transport_error = "connect failed";
        return;
      }
      for (uint64_t n = 0; Clock::now() < deadline; ++n) {
        JsonValue request = make(c, n);
        Clock::time_point t0 = Clock::now();
        auto response = clients[c]->Call(request);
        Clock::time_point t1 = Clock::now();
        if (!response.ok()) {
          log.transport_error = response.status().ToString();
          return;
        }
        log.latency_ms.push_back(Ms(t1 - t0));
        log.results.push_back(keep(c, n, *response));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

// Calls `request` on `client`; returns the response or records the failure.
std::optional<JsonValue> CallChecked(BlockingClient& client,
                                     const JsonValue& request, Run* run,
                                     const std::string& tag) {
  auto response = client.Call(request);
  if (!response.ok()) {
    run->Record(tag, response.status().ToString(), "");
    return std::nullopt;
  }
  return std::move(response).value();
}

// Sends `requests` pipelined on one connection, at most kPipelineDepth in
// flight (well under the server's queue bound), and returns the responses
// in request order; the server may answer out of order, ids match them.
// Pipelining keeps set-up bound by the server's work, not by round trips.
std::optional<std::vector<JsonValue>> Pipelined(
    BlockingClient& client, const std::vector<JsonValue>& requests) {
  constexpr size_t kPipelineDepth = 16;
  std::map<uint64_t, size_t> slot;
  for (size_t i = 0; i < requests.size(); ++i) {
    slot[requests[i].Find("id")->uint_value()] = i;
  }
  std::vector<JsonValue> responses(requests.size());
  size_t sent = 0;
  for (size_t received = 0; received < requests.size(); ++received) {
    for (; sent < requests.size() && sent - received < kPipelineDepth; ++sent) {
      if (!client.Send(requests[sent]).ok()) return std::nullopt;
    }
    auto response = client.Receive();
    if (!response.ok()) return std::nullopt;
    const JsonValue* id = response->Find("id");
    auto it = id != nullptr ? slot.find(id->uint_value()) : slot.end();
    if (it == slot.end()) return std::nullopt;
    responses[it->second] = std::move(response).value();
  }
  return responses;
}

std::vector<std::string> ServerArgs() {
  return {"--workers", "2", "--jobs", "2"};
}

// ---------------------------------------------------------------- contain

struct ContainResult {
  uint64_t index = 0;
  std::string error;
  std::string wrong;
};

void RunContainCold(const Options& opt, Run* run) {
  Harness harness(opt, run);
  auto check = [](const ContainOp& op, const JsonValue& response) {
    ContainResult r;
    r.error = ResponseError(response);
    if (r.error.empty()) r.wrong = CheckContainResponse(op, response);
    return r;
  };

  std::vector<std::pair<ContainOp, ContainResult>> warm_results;
  bool ok = harness.SetUp(ServerArgs(), [&](BlockingClient& client) {
    // Pairs from their own index space, outside the measured stream.
    const uint64_t n = kColdWarmupOps;
    std::vector<ContainOp> ops;
    std::vector<JsonValue> requests;
    for (uint64_t i = 0; i < n; ++i) {
      ops.push_back(ColdWarmupOp(opt.seed, i));
      requests.push_back(ContainRequest(ops.back(), i));
    }
    auto responses = Pipelined(client, requests);
    if (!responses.has_value()) return false;
    for (uint64_t i = 0; i < n; ++i) {
      warm_results.emplace_back(ops[i], check(ops[i], (*responses)[i]));
    }
    return true;
  });
  if (!ok) return;

  std::vector<LoopLog<ContainResult>> logs;
  harness.Measure([&] {
    Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(opt.seconds);
    // Connection c sends stream indices c, c + 2, c + 4, ...
    auto index_of = [](int c, uint64_t n) { return n * kConnections + c; };
    logs = ClosedLoops<ContainResult>(
        harness, deadline,
        [&](int c, uint64_t n) {
          return ContainRequest(ColdOp(opt.seed, index_of(c, n)),
                                index_of(c, n));
        },
        [&](int c, uint64_t n, const JsonValue& response) {
          ContainResult r = check(ColdOp(opt.seed, index_of(c, n)), response);
          r.index = index_of(c, n);
          return r;
        });
  });
  harness.Finish();
  for (const auto& [op, r] : warm_results) {
    run->Record("warmup/" + op.Tag(), r.error, r.wrong);
  }
  for (const auto& log : logs) {
    if (!log.transport_error.empty()) {
      run->Record("transport", log.transport_error, "");
    }
    run->query_ms.insert(run->query_ms.end(), log.latency_ms.begin(),
                         log.latency_ms.end());
    for (const ContainResult& r : log.results) {
      run->Record(ColdOp(opt.seed, r.index).Tag(), r.error, r.wrong);
    }
  }
  run->queries = run->query_ms.size();
  run->requests = run->queries;
}

// --------------------------------------------------------------- eval-scan

struct EvalResult {
  uint64_t index = 0;
  std::string error;
  EvalAnswer answer;
};

// Reference answer rows of a path query over the whole graph.
std::vector<std::vector<uint32_t>> ReferenceRows(const RefGraph& graph,
                                                 const std::string& query) {
  std::vector<std::vector<uint32_t>> rows(graph.num_nodes());
  std::optional<RefRegex> r = ParseRefRegex(query);
  if (!r.has_value()) return rows;
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) rows[v] = graph.Reach(*r, v);
  return rows;
}

RefGraph BuildRefGraph(const GraphSpec& spec, size_t edges) {
  RefGraph graph(spec.num_nodes, spec.labels);
  for (size_t i = 0; i < edges && i < spec.edges.size(); ++i) {
    const Edge& e = spec.edges[i];
    graph.AddEdge(e.src, spec.labels[e.label], e.dst);
  }
  return graph;
}

void RunEvalScan(const Options& opt, Run* run) {
  Harness harness(opt, run);
  const GraphSpec spec = ScanGraph(opt.seed);
  const std::string graph_file = opt.work_dir + "/scan.graph";
  if (!WriteFile(graph_file, GraphText(spec))) {
    harness.Fail("cannot write " + graph_file);
    return;
  }
  constexpr uint64_t kWarmup = 2;
  auto keep = [](uint64_t index, const JsonValue& response) {
    EvalResult r;
    r.index = index;
    r.error = ResponseError(response);
    if (r.error.empty()) r.answer = ReadEvalAnswer(response);
    return r;
  };
  std::vector<std::pair<std::string, EvalResult>> warm_results;
  std::vector<std::string> args = ServerArgs();
  args.insert(args.end(), {"--graph", graph_file, "--read-only"});
  bool ok = harness.SetUp(args, [&](BlockingClient& client) {
    std::vector<JsonValue> requests;
    for (uint64_t i = 0; i < kWarmup; ++i) {
      requests.push_back(
          EvalRequest(ScanWarmupQuery(opt.seed, i), kScanMaxTuples, i));
    }
    auto responses = Pipelined(client, requests);
    if (!responses.has_value()) return false;
    for (uint64_t i = 0; i < kWarmup; ++i) {
      warm_results.emplace_back(ScanWarmupQuery(opt.seed, i),
                                keep(i, (*responses)[i]));
    }
    return true;
  });

  std::vector<LoopLog<EvalResult>> logs;
  if (ok) {
    harness.Measure([&] {
      Clock::time_point deadline =
          Clock::now() + std::chrono::seconds(opt.seconds);
      logs = ClosedLoops<EvalResult>(
          harness, deadline,
          [&](int c, uint64_t n) {
            uint64_t index = n * kConnections + c;
            return EvalRequest(ScanQuery(opt.seed, index), kScanMaxTuples,
                               index);
          },
          [&](int c, uint64_t n, const JsonValue& response) {
            return keep(n * kConnections + c, response);
          });
    });
  }
  harness.Finish();

  // Check every answer against relation composition over the generator's
  // own edge list (after the server has stopped, so it costs no latency).
  const RefGraph graph = BuildRefGraph(spec, spec.edges.size());
  auto verify = [&](const std::string& tag, const std::string& query,
                    const EvalResult& r) {
    if (!r.error.empty()) return run->Record(tag, r.error, "");
    run->Record(tag, "",
                CheckEvalAnswer(r.answer, ReferenceRows(graph, query),
                                kScanMaxTuples));
  };
  for (const auto& [query, r] : warm_results) verify("warmup/eval", query, r);
  for (const auto& log : logs) {
    if (!log.transport_error.empty()) {
      run->Record("transport", log.transport_error, "");
    }
    run->query_ms.insert(run->query_ms.end(), log.latency_ms.begin(),
                         log.latency_ms.end());
    for (const EvalResult& r : log.results) {
      verify("path/eval", ScanQuery(opt.seed, r.index), r);
    }
  }
  run->queries = run->query_ms.size();
  run->requests = run->queries;
}

// ------------------------------------------------------------ mutate-mixed

struct ClosureRead {
  uint32_t label = 0;
  std::string error;
  EvalAnswer answer;
};

void RunMutateMixed(const Options& opt, Run* run) {
  Harness harness(opt, run);
  const GraphSpec spec = MutateGraph(opt.seed);
  const std::string graph_file = opt.work_dir + "/mutate.graph";
  if (!WriteFile(graph_file, GraphText(spec))) {
    harness.Fail("cannot write " + graph_file);
    return;
  }
  const int batches = std::max(
      1, static_cast<int>(std::lround(kMutateBatchesPerSecond * opt.seconds)));
  auto closure_query = [&](uint32_t label) { return spec.labels[label] + "+"; };
  auto read = [&](BlockingClient& client, uint32_t label, uint64_t id,
                  const std::string& tag, std::vector<ClosureRead>* out) {
    auto response =
        CallChecked(client, EvalRequest(closure_query(label), kMutateMaxTuples,
                                        id),
                    run, tag);
    if (!response.has_value()) return false;
    ClosureRead r;
    r.label = label;
    r.error = ResponseError(*response);
    if (r.error.empty()) r.answer = ReadEvalAnswer(*response);
    out->push_back(std::move(r));
    return true;
  };

  // Warm-up: the first closure-shaped eval of each label seeds its
  // incrementally maintained closure.
  std::vector<ClosureRead> warm_reads;
  std::vector<std::string> args = ServerArgs();
  args.insert(args.end(), {"--graph", graph_file});
  bool ok = harness.SetUp(args, [&](BlockingClient& client) {
    warm_reads.clear();
    std::vector<JsonValue> requests;
    for (uint32_t label : MutateClosureLabels()) {
      requests.push_back(
          EvalRequest(closure_query(label), kMutateMaxTuples, label));
    }
    auto responses = Pipelined(client, requests);
    if (!responses.has_value()) return false;
    for (size_t i = 0; i < responses->size(); ++i) {
      ClosureRead r;
      r.label = MutateClosureLabels()[i];
      r.error = ResponseError((*responses)[i]);
      if (r.error.empty()) r.answer = ReadEvalAnswer((*responses)[i]);
      warm_reads.push_back(std::move(r));
    }
    return true;
  });

  std::vector<ClosureRead> reader_reads, probe_reads, final_reads;
  std::vector<uint64_t> ack_epochs;
  std::vector<std::string> write_errors;
  std::string reader_error;
  if (ok) {
    std::optional<BlockingClient> writer = harness.Connect();
    std::optional<BlockingClient> reader = harness.Connect();
    if (!writer || !reader) {
      harness.Fail("connect failed");
      ok = false;
    }
    if (ok) {
      harness.Measure([&] {
        Clock::time_point t0 = Clock::now();
        // Batch period k starts at t0 + k / rate.
        auto period_start = [&](int k) {
          return t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              k / kMutateBatchesPerSecond));
        };
        std::thread writer_thread([&] {
          // Open loop: batch k is due at its period's start and timed from
          // then.
          for (int k = 0; k < batches; ++k) {
            Clock::time_point due = period_start(k);
            std::this_thread::sleep_until(due);
            run->lateness_ms.push_back(Ms(Clock::now() - due));
            auto ack = writer->Call(UpdateRequest(
                MutateBatch(opt.seed, k), spec.labels, 1000000 + k));
            if (!ack.ok()) {
              write_errors.push_back(ack.status().ToString());
              return;
            }
            run->write_ms.push_back(Ms(Clock::now() - due));
            std::string error = ResponseError(*ack);
            const JsonValue* epoch = ack->Find("epoch");
            write_errors.push_back(error);
            ack_epochs.push_back(epoch != nullptr ? epoch->uint_value() : 0);
            // Read-your-writes probe on the same connection.
            if (!read(*writer, MutateClosureLabels()[k % 2], 2000000 + k,
                      "probe/closure", &probe_reads)) {
              return;
            }
          }
        });
        // The reader sends kMutateReadsPerBatch reads back to back in each
        // batch period, so every run makes the same requests.
        for (uint64_t n = 0; n < static_cast<uint64_t>(batches) *
                                     kMutateReadsPerBatch && reader_error.empty();
             ++n) {
          if (n % kMutateReadsPerBatch == 0) {
            std::this_thread::sleep_until(
                period_start(static_cast<int>(n / kMutateReadsPerBatch)));
          }
          uint32_t label = MutateReadLabel(opt.seed, n);
          Clock::time_point q0 = Clock::now();
          auto response = reader->Call(
              EvalRequest(closure_query(label), kMutateMaxTuples, n));
          if (!response.ok()) {
            reader_error = response.status().ToString();
            break;
          }
          run->query_ms.push_back(Ms(Clock::now() - q0));
          ClosureRead r;
          r.label = label;
          r.error = ResponseError(*response);
          if (r.error.empty()) r.answer = ReadEvalAnswer(*response);
          reader_reads.push_back(std::move(r));
        }
        writer_thread.join();
      });
      // After the last batch: one read per closure label on the reader.
      for (uint32_t label : MutateClosureLabels()) {
        read(*reader, label, 3000000 + label, "final/closure", &final_reads);
      }
    }
  }
  harness.Finish();

  run->queries = run->query_ms.size();
  // Each batch is an update plus its read-your-writes probe.
  run->requests = run->queries + 2 * ack_epochs.size();
  if (!reader_error.empty()) run->Record("transport", reader_error, "");

  // Epoch E0 is the loaded graph; batch k publishes E0 + k + 1.
  const uint64_t e0 =
      warm_reads.empty() ? 1 : std::max<uint64_t>(1, warm_reads[0].answer.epoch);
  for (size_t k = 0; k < write_errors.size(); ++k) {
    std::string wrong;
    if (write_errors[k].empty() && k < ack_epochs.size() &&
        ack_epochs[k] != e0 + k + 1) {
      wrong = "batch " + std::to_string(k) + " published epoch " +
              std::to_string(ack_epochs[k]) + ", want " +
              std::to_string(e0 + k + 1);
    }
    run->Record("update", write_errors[k], wrong);
  }
  if (static_cast<int>(ack_epochs.size()) < batches && ok) {
    run->Record("update", "writer stopped after " +
                              std::to_string(ack_epochs.size()) + " batches",
                "");
  }

  // Reference closures per epoch, from the generator's own edge lists.
  std::map<uint64_t, std::map<uint32_t, std::vector<std::vector<uint32_t>>>>
      reference;
  auto need = [&](uint64_t epoch, uint32_t label) { reference[epoch][label]; };
  for (const auto* reads : {&warm_reads, &reader_reads, &probe_reads,
                            &final_reads}) {
    for (const ClosureRead& r : *reads) {
      if (r.error.empty()) need(r.answer.epoch, r.label);
    }
  }
  {
    GraphSpec grown = spec;
    uint64_t applied = 0;
    RefGraph graph = BuildRefGraph(grown, grown.edges.size());
    for (auto& [epoch, rows_by_label] : reference) {
      if (epoch < e0 || epoch > e0 + static_cast<uint64_t>(batches)) continue;
      for (; applied < epoch - e0; ++applied) {
        for (const Edge& e : MutateBatch(opt.seed, applied)) {
          graph.AddEdge(e.src, spec.labels[e.label], e.dst);
        }
      }
      for (auto& [label, rows] : rows_by_label) {
        rows = graph.ClosureRows(spec.labels[label]);
      }
    }
  }
  auto verify = [&](const std::string& tag, const ClosureRead& r) {
    if (!r.error.empty()) return run->Record(tag, r.error, "");
    uint64_t epoch = r.answer.epoch;
    if (epoch < e0 || epoch > e0 + static_cast<uint64_t>(batches)) {
      return run->Record(tag, "",
                         "epoch " + std::to_string(epoch) + " out of range");
    }
    run->Record(tag, "",
                CheckEvalAnswer(r.answer, reference[epoch][r.label],
                                kMutateMaxTuples));
  };
  for (const ClosureRead& r : warm_reads) verify("warmup/closure", r);
  uint64_t last_epoch = 0;
  for (const ClosureRead& r : reader_reads) {
    verify("closure/eval", r);
    if (r.error.empty()) {
      // Epochs never go backwards on one connection.
      if (r.answer.epoch < last_epoch) {
        run->Record("closure/monotonic", "", "reader epoch went backwards");
      }
      last_epoch = std::max(last_epoch, r.answer.epoch);
    }
  }
  for (size_t k = 0; k < probe_reads.size(); ++k) {
    verify("probe/closure", probe_reads[k]);
    // Read-your-writes: the probe after batch k sees at least its epoch.
    if (k < ack_epochs.size() && probe_reads[k].error.empty() &&
        probe_reads[k].answer.epoch < ack_epochs[k]) {
      run->Record("probe/read-your-writes", "",
                  "probe after batch " + std::to_string(k) + " saw epoch " +
                      std::to_string(probe_reads[k].answer.epoch));
    }
  }
  for (const ClosureRead& r : final_reads) {
    verify("final/closure", r);
    if (r.error.empty() && r.answer.epoch != e0 + batches) {
      run->Record("final/closure", "", "final read not at the last epoch");
    }
  }
}

// ------------------------------------------------------------------ output

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(const Run& run, bool correct,
                 const std::vector<std::tuple<std::string, double, std::string>>&
                     metrics) {
  uint64_t attempted = 0, failed = 0;
  for (const auto& [tag, c] : run.ops) {
    attempted += c.attempted;
    failed += c.failed;
  }
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
           unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintSummary(const Run& run) {
  std::string ops;
  for (const auto& [tag, c] : run.ops) {
    ops += " " + tag + "=" + std::to_string(c.attempted) + "/" +
           std::to_string(c.failed);
  }
  std::printf("ops (attempted/failed):%s\n", ops.c_str());
  std::printf("queries=%llu requests=%llu measured_s=%.3f\n",
              static_cast<unsigned long long>(run.queries),
              static_cast<unsigned long long>(run.requests), run.measured_s);
  for (const auto* samples : {&run.setup_s, &run.setup_wall_s}) {
    std::printf("%s=[", samples == &run.setup_s ? "setup_cpu_s" : "setup_wall_s");
    for (size_t i = 0; i < samples->size(); ++i) {
      std::printf("%s%.4f", i ? " " : "", (*samples)[i]);
    }
    std::printf("]\n");
  }
  if (run.query_ms.size() >= 1000) {
    std::printf("latency_p99_ms=%.4f (n=%zu)\n", Quantile(run.query_ms, 0.99),
                run.query_ms.size());
  }
  if (!run.write_ms.empty()) {
    std::printf(
        "writes=%zu write_p50_ms=%.3f write_p90_ms=%.3f lateness_mean_ms=%.3f "
        "lateness_max_ms=%.3f\n",
        run.write_ms.size(), Quantile(run.write_ms, 0.5),
        Quantile(run.write_ms, 0.9), Mean(run.lateness_ms),
        run.lateness_ms.empty()
            ? 0.0
            : *std::max_element(run.lateness_ms.begin(),
                                run.lateness_ms.end()));
  }
  for (const std::string& p : run.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
}

double Delta(const Run& run, const std::string& name) {
  auto after = run.metrics_after.find(name);
  auto before = run.metrics_before.find(name);
  return (after == run.metrics_after.end() ? 0 : after->second) -
         (before == run.metrics_before.end() ? 0 : before->second);
}

// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"server.throughput_rps", "req/s"},
      {"server.latency_p50_ms", "ms"},
      {"server.latency_p90_ms", "ms"},
      {"server.parse_us", "us"},
      {"server.execute_us", "us"},
      {"server.render_us", "us"},
      {"server.outside_us", "us"},
      {"server.store_load_ms", "ms"},
      {"server.store_apply_ms", "ms"},
      {"server.write_p50_ms", "ms"},
      {"server.write_p90_ms", "ms"},
      {"containment.batch_overhead_us", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.bytes_mb", "MiB"},
      {"regex.parse_us", "us"},
      {"regex.to_nfa_us", "us"},
      {"automata.eps_removal_us", "us"},
      {"automata.containment_us", "us"},
      {"automata.states_explored", "count/req"},
      {"twoway.fold_us", "us"},
      {"pathquery.twoway_containment_ms", "ms"},
      {"pathquery.eval_ms", "ms"},
      {"pathquery.eval_serial_ms", "ms"},
      {"pathquery.product_states", "count/req"},
      {"pathquery.ns_per_state", "ns"},
      {"crpq.containment_us", "us"},
      {"rq.containment_us", "us"},
      {"relational.ucq_containment_us", "us"},
      {"relational.answer_build_ms", "ms"},
      {"relational.sort_ms", "ms"},
      {"relational.closure_add_us", "us"},
      {"relational.closure_pairs", "count"},
      {"relational.closure_fallbacks", "count"},
      {"relational.graph_to_db_ms", "ms"},
      {"graph.from_text_ms", "ms"},
      {"graph.copy_ms", "ms"},
      {"graph.snapshot_ms", "ms"},
  };
  return metrics;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = std::atoi(value().c_str());
    } else if (arg == "--bin-dir") {
      opt.bin_dir = value();
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--selftest") {
      opt.selftest = true;
    } else {
      std::fprintf(stderr, "rqload: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  std::vector<std::string> selftest_failures = RunReferenceSelfTests();
  for (const std::string& f : selftest_failures) {
    std::fprintf(stderr, "rqload: reference self-test failed: %s\n", f.c_str());
  }
  if (opt.selftest) {
    std::printf("reference self-tests: %s\n",
                selftest_failures.empty() ? "all passed" : "FAILED");
    return selftest_failures.empty() ? 0 : 1;
  }
  if (!selftest_failures.empty()) return 1;
  if (opt.seconds < 1 || opt.bin_dir.empty() || opt.work_dir.empty()) {
    std::fprintf(stderr, "rqload: need --seconds >= 1, --bin-dir, --work-dir\n");
    return 2;
  }
  mkdir(opt.work_dir.c_str(), 0755);

  Run run;
  if (opt.workload == "contain-cold") {
    RunContainCold(opt, &run);
  } else if (opt.workload == "eval-scan") {
    RunEvalScan(opt, &run);
  } else if (opt.workload == "mutate-mixed") {
    RunMutateMixed(opt, &run);
  } else {
    std::fprintf(stderr, "rqload: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  PrintSummary(run);
  if (run.queries == 0 || run.ops.contains("harness")) {
    std::fprintf(stderr, "rqload: the run did not complete\n");
    return 1;
  }

  bool correct = !run.wrong_answer;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  const double throughput_rps = run.queries / run.measured_s;
  const double p50_ms = Quantile(run.query_ms, 0.5);
  const double p90_ms = Quantile(run.query_ms, 0.9);
  std::printf("throughput_rps=%.2f latency_p50_ms=%.4f latency_p90_ms=%.4f\n",
              throughput_rps, p50_ms, p90_ms);
  if (!opt.trace) {
    metrics = {
        {"setup_s", Quantile(run.setup_s, 0.5), "s"},
        {"server_cpu_ms_per_req", run.server_cpu_s * 1000.0 / run.requests,
         "ms"},
        {"server_peak_rss_mb", run.peak_rss_mb, "MiB"},
    };
    PrintResult(run, correct, metrics);
    return 0;
  }

  TraceReport trace = RunTrace(opt.workload, opt.seed, opt.seconds,
                               opt.work_dir + "/spans-" + opt.workload +
                                   ".jsonl");
  for (const std::string& p : trace.problems) {
    std::printf("trace problem: %s\n", p.c_str());
  }
  correct = correct && trace.problems.empty();
  std::map<std::string, double> layer = trace.metrics;
  // The server as clients see it, from this run's untraced server phase.
  layer["server.throughput_rps"] = throughput_rps;
  layer["server.latency_p50_ms"] = p50_ms;
  layer["server.latency_p90_ms"] = p90_ms;
  // Counts: deltas of the server's own /metrics over the measured phase.
  double hits = Delta(run, "rq_cache_hits");
  double misses = Delta(run, "rq_cache_misses");
  layer["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  layer["cache.bytes_mb"] =
      run.metrics_after["rq_cache_bytes_in_use"] / (1024.0 * 1024.0);
  layer["automata.states_explored"] =
      Delta(run, "rq_containment_states_explored") / run.queries;
  layer["pathquery.product_states"] =
      Delta(run, "rq_graph_product_states") / run.queries;
  layer["relational.closure_pairs"] = Delta(run, "rq_incr_pairs_added");
  layer["relational.closure_fallbacks"] = Delta(run, "rq_incr_fallbacks");
  layer["server.outside_us"] =
      Mean(run.query_ms) * 1000.0 - trace.mean_handler_us;
  if (!run.write_ms.empty()) {
    layer["server.write_p50_ms"] = Quantile(run.write_ms, 0.5);
    layer["server.write_p90_ms"] = Quantile(run.write_ms, 0.9);
  }
  std::printf(
      "trace: replayed=%llu spans=%llu handler_mean_us=%.2f "
      "server_mean_us=%.2f execute_coverage=%.3f\n",
      static_cast<unsigned long long>(trace.replayed_requests),
      static_cast<unsigned long long>(trace.spans), trace.mean_handler_us,
      Mean(run.query_ms) * 1000.0, trace.execute_coverage);
  for (const auto& [name, unit] : LayerMetrics()) {
    // A layer this workload does not exercise reports 0 (no calls).
    metrics.emplace_back(name, layer.contains(name) ? layer[name] : 0.0, unit);
  }
  PrintResult(run, correct, metrics);
  return 0;
}

}  // namespace
}  // namespace rqbench

int main(int argc, char** argv) { return rqbench::Main(argc, argv); }
