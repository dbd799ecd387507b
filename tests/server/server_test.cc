// End-to-end tests of the in-process query service (docs/SERVING.md):
// request dispatch across every class, admission control (bounded queue
// shedding), graceful drain with in-flight completion, and the HTTP
// /metrics surface on the same listener. All networking is loopback TCP on
// ephemeral ports, so the binary is hermetic.
#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_db.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "relational/relation.h"
#include "server/client.h"
#include "server/handlers.h"
#include "server/protocol.h"

namespace rq {
namespace server {
namespace {

constexpr char kHost[] = "127.0.0.1";

obs::JsonValue Req(const char* type, int64_t id) {
  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("type", obs::JsonValue::String(type));
  request.Set("id", obs::JsonValue::Number(id));
  return request;
}

std::string ErrorCode(const obs::JsonValue& response) {
  const obs::JsonValue* error = response.Find("error");
  return error == nullptr ? "" : error->string_value();
}

// Polls the server until `predicate` holds (or ~2s elapse).
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

GraphDb TriangleGraph() {
  auto graph = GraphDb::FromText("a knows b\nb knows c\nc knows a\n");
  return std::move(graph).value();
}

TEST(QueryServerTest, ServesEveryRequestClass) {
  GraphDb graph = TriangleGraph();
  ServerOptions options;
  options.graph = &graph;
  options.workers = 2;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  // health: answered inline by the reader thread.
  auto health = client->Call(Req("health", 1));
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->Find("ok")->bool_value());
  EXPECT_EQ(health->Find("state")->string_value(), "serving");
  EXPECT_EQ(health->Find("id")->number_value(), 1);

  // containment, both verdicts.
  obs::JsonValue contained = Req("containment", 2);
  contained.Set("class", obs::JsonValue::String("rpq"));
  contained.Set("q1", obs::JsonValue::String("a a* b"));
  contained.Set("q2", obs::JsonValue::String("a* b"));
  auto verdict = client->Call(contained);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->Find("ok")->bool_value());
  EXPECT_EQ(verdict->Find("verdict")->string_value(), "proved");

  obs::JsonValue refuted = Req("containment", 3);
  refuted.Set("class", obs::JsonValue::String("rpq"));
  refuted.Set("q1", obs::JsonValue::String("a*"));
  refuted.Set("q2", obs::JsonValue::String("a"));
  verdict = client->Call(refuted);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->Find("verdict")->string_value(), "refuted");
  EXPECT_NE(verdict->Find("counterexample_word"), nullptr);

  // equivalence via the two-direction batch.
  obs::JsonValue equiv = Req("equivalence", 4);
  equiv.Set("class", obs::JsonValue::String("rpq"));
  equiv.Set("q1", obs::JsonValue::String("a|b"));
  equiv.Set("q2", obs::JsonValue::String("b|a"));
  verdict = client->Call(equiv);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->Find("verdict")->string_value(), "equivalent");

  // eval against the preloaded graph.
  obs::JsonValue eval = Req("eval", 5);
  eval.Set("class", obs::JsonValue::String("path"));
  eval.Set("query", obs::JsonValue::String("knows knows"));
  auto answers = client->Call(eval);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->Find("ok")->bool_value());
  EXPECT_EQ(answers->Find("count")->number_value(), 3);

  // eval with an inline graph overriding the preloaded one.
  obs::JsonValue inline_eval = Req("eval", 6);
  inline_eval.Set("class", obs::JsonValue::String("path"));
  inline_eval.Set("query", obs::JsonValue::String("e"));
  inline_eval.Set("graph", obs::JsonValue::String("x e y\n"));
  answers = client->Call(inline_eval);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->Find("count")->number_value(), 1);

  // stats: the rq-obs/2 snapshot rides along.
  auto stats = client->Call(Req("stats", 7));
  ASSERT_TRUE(stats.ok());
  ASSERT_NE(stats->Find("stats"), nullptr);
  EXPECT_EQ(stats->Find("stats")->Find("schema")->string_value(), "rq-obs/2");

  server.DrainAndWait();
}

TEST(QueryServerTest, AnswerSetsAreCappedAtMaxTuples) {
  ServerOptions options;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue eval = Req("eval", 1);
  eval.Set("class", obs::JsonValue::String("path"));
  eval.Set("query", obs::JsonValue::String("e*"));
  eval.Set("graph",
           obs::JsonValue::String("a e b\nb e c\nc e d\nd e f\n"));
  eval.Set("max_tuples", obs::JsonValue::Number(int64_t{3}));
  auto answers = client->Call(eval);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->Find("tuples")->items().size(), 3u);
  EXPECT_TRUE(answers->Find("truncated")->bool_value());
  EXPECT_GT(answers->Find("count")->number_value(), 3);

  server.DrainAndWait();
}

TEST(RenderRelationTest, TruncatedAnswerIsTheSortedPrefix) {
  auto graph = GraphDb::FromText("n0 e n1\nn2 e n3\nn4 e n5\n");
  ASSERT_TRUE(graph.ok());
  // Inserted in descending order, so the relation's own order is the
  // reverse of the rendered one.
  Relation relation(2);
  for (Value x = 6; x-- > 0;) {
    for (Value y = 6; y-- > 0;) relation.Insert({x, y});
  }
  std::vector<Tuple> sorted = relation.SortedTuples();
  for (int64_t max_tuples : {int64_t{5}, int64_t{36}, int64_t{100}}) {
    obs::JsonValue response = obs::JsonValue::Object();
    RenderRelation(*graph, relation, max_tuples, &response);
    const auto& rows = response.Find("tuples")->items();
    ASSERT_EQ(rows.size(), std::min<size_t>(36, max_tuples));
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].items()[0].string_value(),
                graph->NodeName(static_cast<NodeId>(sorted[i][0])));
      EXPECT_EQ(rows[i].items()[1].string_value(),
                graph->NodeName(static_cast<NodeId>(sorted[i][1])));
    }
    EXPECT_EQ(response.Find("count")->number_value(), 36);
    EXPECT_EQ(response.Find("truncated")->bool_value(), max_tuples < 36);
  }
}

TEST(QueryServerTest, MalformedFramesGetInvalidRequestResponses) {
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue bogus = obs::JsonValue::Object();
  bogus.Set("type", obs::JsonValue::String("no-such-type"));
  auto response = client->Call(bogus);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->Find("ok")->bool_value());
  EXPECT_EQ(ErrorCode(*response), "invalid_request");

  // A parse error inside a query text also maps to invalid_request.
  obs::JsonValue bad_regex = Req("containment", 2);
  bad_regex.Set("class", obs::JsonValue::String("rpq"));
  bad_regex.Set("q1", obs::JsonValue::String("(("));
  bad_regex.Set("q2", obs::JsonValue::String("a"));
  response = client->Call(bad_regex);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "invalid_request");

  server.DrainAndWait();
}

// A frame of 10^4 nested '[' used to overflow the reader thread's stack
// in the JSON parser and take the whole server down.
TEST(QueryServerTest, DeeplyNestedFrameIsRejectedAndOthersAreServed) {
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto bystander = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(bystander.ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, kHost, &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(WriteFrame(fd, std::string(10000, '[')).ok());
  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(fd, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  auto response = obs::JsonValue::Parse(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "invalid_request");
  ::close(fd);

  auto health = bystander->Call(Req("health", 7));
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->Find("ok")->bool_value());
  server.DrainAndWait();
}

TEST(QueryServerTest, PerRequestTimeoutTripsDeadline) {
  ServerOptions options;
  options.enable_sleep = true;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue sleep = Req("sleep", 1);
  sleep.Set("sleep_ms", obs::JsonValue::Number(int64_t{5000}));
  sleep.Set("timeout_ms", obs::JsonValue::Number(int64_t{30}));
  auto response = client->Call(sleep);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "deadline_exceeded");

  server.DrainAndWait();
}

TEST(QueryServerTest, ServerCapClipsRequestedTimeout) {
  ServerOptions options;
  options.enable_sleep = true;
  options.max_timeout_ms = 30;  // requests may not exceed this
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue sleep = Req("sleep", 1);
  sleep.Set("sleep_ms", obs::JsonValue::Number(int64_t{60000}));
  sleep.Set("timeout_ms", obs::JsonValue::Number(int64_t{600000}));
  auto response = client->Call(sleep);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "deadline_exceeded");

  server.DrainAndWait();
}

TEST(QueryServerTest, SleepRequestsAreRejectedUnlessEnabled) {
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  obs::JsonValue sleep = Req("sleep", 1);
  sleep.Set("sleep_ms", obs::JsonValue::Number(int64_t{1}));
  auto response = client->Call(sleep);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "invalid_request");

  server.DrainAndWait();
}

TEST(QueryServerTest, BoundedQueueShedsInsteadOfBuffering) {
  obs::CounterDelta delta;
  ServerOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.enable_sleep = true;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto busy = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(busy.ok());
  obs::JsonValue sleep = Req("sleep", 1);
  sleep.Set("sleep_ms", obs::JsonValue::Number(int64_t{2000}));
  ASSERT_TRUE(busy->Send(sleep).ok());
  // One request occupies the single worker, one more fills the queue.
  ASSERT_TRUE(WaitFor([&] { return server.inflight_requests() == 1; }));
  obs::JsonValue queued = Req("sleep", 2);
  queued.Set("sleep_ms", obs::JsonValue::Number(int64_t{1}));
  ASSERT_TRUE(busy->Send(queued).ok());
  ASSERT_TRUE(WaitFor([&] { return server.queue_depth() == 1; }));

  // The next request must be shed with `overloaded`, not buffered.
  auto extra = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(extra.ok());
  obs::JsonValue shed_me = Req("sleep", 3);
  shed_me.Set("sleep_ms", obs::JsonValue::Number(int64_t{1}));
  auto response = extra->Call(shed_me);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "overloaded");
  EXPECT_GE(delta.Delta("server.shed"), 1u);

  server.Stop();  // cancels the in-flight sleep
}

TEST(QueryServerTest, DrainCompletesInflightAndRefusesLateWork) {
  obs::CounterDelta delta;
  ServerOptions options;
  options.workers = 1;
  options.enable_sleep = true;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  auto client = BlockingClient::Connect(kHost, port);
  ASSERT_TRUE(client.ok());
  obs::JsonValue inflight = Req("sleep", 1);
  inflight.Set("sleep_ms", obs::JsonValue::Number(int64_t{200}));
  ASSERT_TRUE(client->Send(inflight).ok());
  ASSERT_TRUE(WaitFor([&] { return server.inflight_requests() == 1; }));

  server.BeginDrain();
  EXPECT_TRUE(server.draining());

  // A late frame on the existing connection is answered with `draining`.
  ASSERT_TRUE(client->Send(Req("containment", 2)).ok());
  auto late = client->Receive();
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->Find("id")->number_value(), 2);
  EXPECT_EQ(ErrorCode(*late), "draining");

  // Health still answers, reporting the drain.
  ASSERT_TRUE(client->Send(Req("health", 3)).ok());
  auto health = client->Receive();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Find("state")->string_value(), "draining");

  server.Wait();
  // The in-flight sleep completed during the drain and its response was
  // written before the connection tore down.
  auto response = client->Receive();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Find("id")->number_value(), 1);
  EXPECT_TRUE(response->Find("ok")->bool_value());
  EXPECT_EQ(response->Find("slept_ms")->number_value(), 200);
  EXPECT_GE(delta.Delta("server.drained"), 1u);

  // Fresh connections are refused once the drain began: the connect or
  // the first exchange fails, it never hangs.
  auto refused = BlockingClient::Connect(kHost, port);
  if (refused.ok()) {
    auto answer = refused->Call(Req("health", 4));
    EXPECT_FALSE(answer.ok());
  }
}

TEST(QueryServerTest, MetricsAndHealthzOverHttpOnTheSameListener) {
  obs::CounterDelta delta;
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Generate some framed traffic first so server.* families are non-zero.
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Call(Req("health", 1)).ok());

  auto body = HttpGet(kHost, server.port(), "/metrics");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("# TYPE rq_server_requests counter"),
            std::string::npos);
  EXPECT_NE(body->find("rq_server_active_connections"), std::string::npos);
  EXPECT_NE(body->find("rq_server_request_latency_ns_dist_count"),
            std::string::npos);
  EXPECT_GE(delta.Delta("server.metrics_scrapes"), 1u);

  auto healthz = HttpGet(kHost, server.port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(*healthz, "ok\n");

  EXPECT_FALSE(HttpGet(kHost, server.port(), "/nope").ok());

  server.DrainAndWait();
}

TEST(QueryServerTest, RequestCountersBalance) {
  obs::CounterDelta delta;
  QueryServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = BlockingClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Call(Req("health", i)).ok());
  }
  client->Close();
  server.DrainAndWait();

  EXPECT_EQ(delta.Delta("server.requests"), 5u);
  EXPECT_EQ(delta.Delta("server.responses"), 5u);
  EXPECT_EQ(delta.Delta("server.connections"), 1u);
  EXPECT_EQ(delta.Delta("server.shed"), 0u);
}

}  // namespace
}  // namespace server
}  // namespace rq
