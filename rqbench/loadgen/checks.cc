#include "checks.h"

#include <algorithm>
#include <optional>
#include <set>

#include "reference.h"

namespace rqbench {

using rq::obs::JsonValue;

namespace {

const JsonValue* FindString(const JsonValue& object, const char* key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->kind() == JsonValue::Kind::kString ? v : nullptr;
}

// Checks a refuted path pair's counterexample word: it must be in L(q1),
// and outside L(q2) for one-way queries. For 2RPQs the word must leave
// fold(L(q2)), which holds when it uses a label q2 never mentions (the
// refutation template guarantees one exists).
std::string CheckCounterexample(const ContainOp& op, const JsonValue& verdict) {
  const JsonValue* word_text = FindString(verdict, "counterexample_word");
  if (word_text == nullptr) return "refuted without counterexample_word";
  std::optional<RefRegex> q1 = ParseRefRegex(op.q1);
  std::optional<RefRegex> q2 = ParseRefRegex(op.q2);
  if (!q1 || !q2) return "reference parser rejected the query pair";
  std::vector<std::string> word = SplitWord(word_text->string_value());
  if (!WordMatches(*q1, word)) {
    return "counterexample '" + word_text->string_value() + "' not in L(q1)";
  }
  if (op.cls == "rpq") {
    if (WordMatches(*q2, word)) {
      return "counterexample '" + word_text->string_value() + "' in L(q2)";
    }
    return "";
  }
  std::set<std::string> q2_labels = LabelsOf(*q2);
  for (std::string symbol : word) {
    if (symbol.back() == '-') symbol.pop_back();
    if (!q2_labels.contains(symbol)) return "";
  }
  return "2rpq counterexample '" + word_text->string_value() +
         "' uses only labels of q2";
}

}  // namespace

JsonValue ContainRequest(const ContainOp& op, uint64_t id) {
  JsonValue request = JsonValue::Object();
  request.Set("type", JsonValue::String(op.type));
  request.Set("id", JsonValue::Number(id));
  request.Set("class", JsonValue::String(op.cls));
  request.Set("q1", JsonValue::String(op.q1));
  request.Set("q2", JsonValue::String(op.q2));
  return request;
}

JsonValue EvalRequest(const std::string& query, int64_t max_tuples,
                      uint64_t id) {
  JsonValue request = JsonValue::Object();
  request.Set("type", JsonValue::String("eval"));
  request.Set("id", JsonValue::Number(id));
  request.Set("class", JsonValue::String("path"));
  request.Set("query", JsonValue::String(query));
  request.Set("max_tuples", JsonValue::Number(max_tuples));
  return request;
}

JsonValue UpdateRequest(const std::vector<Edge>& batch,
                        const std::vector<std::string>& labels, uint64_t id) {
  JsonValue ops = JsonValue::Array();
  for (const Edge& e : batch) {
    JsonValue op = JsonValue::Object();
    op.Set("op", JsonValue::String("add_edge"));
    op.Set("src", JsonValue::String(NodeName(e.src)));
    op.Set("label", JsonValue::String(labels[e.label]));
    op.Set("dst", JsonValue::String(NodeName(e.dst)));
    ops.Append(std::move(op));
  }
  JsonValue request = JsonValue::Object();
  request.Set("type", JsonValue::String("update"));
  request.Set("id", JsonValue::Number(id));
  request.Set("ops", std::move(ops));
  return request;
}

std::string ResponseError(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  if (ok != nullptr && ok->kind() == JsonValue::Kind::kBool &&
      ok->bool_value()) {
    return "";
  }
  const JsonValue* error = FindString(response, "error");
  const JsonValue* message = FindString(response, "message");
  return (error != nullptr ? error->string_value() : std::string("no-ok")) +
         (message != nullptr ? ": " + message->string_value() : "");
}

std::string CheckContainResponse(const ContainOp& op,
                                 const JsonValue& response) {
  const JsonValue* verdict = FindString(response, "verdict");
  if (verdict == nullptr) return "response without verdict";
  const std::string want = op.type == "equivalence"
                               ? std::string("equivalent")
                               : std::string(ExpectName(op.expect));
  if (verdict->string_value() != want) {
    return op.Tag() + " verdict '" + verdict->string_value() + "', want '" +
           want + "'";
  }
  if (op.expect == Expect::kRefuted && (op.cls == "rpq" || op.cls == "2rpq")) {
    return CheckCounterexample(op, response);
  }
  return "";
}

EvalAnswer ReadEvalAnswer(const JsonValue& response) {
  EvalAnswer answer;
  const JsonValue* count = response.Find("count");
  const JsonValue* truncated = response.Find("truncated");
  const JsonValue* tuples = response.Find("tuples");
  if (count == nullptr || truncated == nullptr || tuples == nullptr ||
      !tuples->is_array()) {
    answer.malformed = "eval response without count/truncated/tuples";
    return answer;
  }
  answer.count = count->uint_value();
  answer.truncated = truncated->bool_value();
  if (const JsonValue* epoch = response.Find("epoch")) {
    answer.epoch = epoch->uint_value();
  }
  answer.tuples.reserve(tuples->items().size());
  for (const JsonValue& row : tuples->items()) {
    uint32_t x = 0, y = 0;
    if (!row.is_array() || row.items().size() != 2 ||
        !ParseNodeName(row.items()[0].string_value(), &x) ||
        !ParseNodeName(row.items()[1].string_value(), &y)) {
      answer.malformed = "eval tuple is not a pair of node names";
      return answer;
    }
    answer.tuples.emplace_back(x, y);
  }
  return answer;
}

std::string CheckEvalAnswer(const EvalAnswer& answer,
                            const std::vector<std::vector<uint32_t>>& rows,
                            int64_t max_tuples) {
  if (!answer.malformed.empty()) return answer.malformed;
  uint64_t want_count = 0;
  for (const auto& row : rows) want_count += row.size();
  if (answer.count != want_count) {
    return "count " + std::to_string(answer.count) + ", reference " +
           std::to_string(want_count);
  }
  const bool want_truncated = static_cast<int64_t>(want_count) > max_tuples;
  if (answer.truncated != want_truncated) return "truncated flag wrong";
  const uint64_t want_rows =
      std::min<uint64_t>(want_count, static_cast<uint64_t>(max_tuples));
  if (answer.tuples.size() != want_rows) {
    return "returned " + std::to_string(answer.tuples.size()) +
           " rows, want " + std::to_string(want_rows);
  }
  std::vector<std::pair<uint32_t, uint32_t>> sorted = answer.tuples;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate tuple";
  }
  for (const auto& [x, y] : sorted) {
    if (x >= rows.size() ||
        !std::binary_search(rows[x].begin(), rows[x].end(), y)) {
      return "tuple (" + NodeName(x) + ", " + NodeName(y) +
             ") not in the reference answer";
    }
  }
  return "";
}

}  // namespace rqbench
