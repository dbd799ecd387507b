// Nesting-depth limits of the recursive-descent parsers. A client-sized
// text of nested brackets must come back as kInvalidArgument, not exhaust
// the parsing thread's stack; moderately nested input still parses.
#include <string>

#include "automata/alphabet.h"
#include "crpq/crpq.h"
#include "datalog/program.h"
#include "gtest/gtest.h"
#include "obs/json.h"
#include "regex/regex.h"
#include "rq/parser.h"

namespace rq {
namespace {

constexpr int kHostile = 10000;  // ~10 KB of brackets per side
constexpr int kModest = 100;

std::string Nest(const std::string& open, const std::string& inner,
                 const std::string& close, int depth) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += open;
  out += inner;
  for (int i = 0; i < depth; ++i) out += close;
  return out;
}

TEST(ParseDepthTest, RegexRejectsDeepParentheses) {
  Alphabet alphabet;
  auto deep = ParseRegex(Nest("(", "a", ")", kHostile), &alphabet);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  // Unbalanced input is rejected the same way, before reaching the end.
  EXPECT_EQ(ParseRegex(std::string(kHostile, '('), &alphabet).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseRegex(Nest("(", "a b*", ")", kModest), &alphabet).ok());
}

TEST(ParseDepthTest, JsonRejectsDeepArraysAndObjects) {
  auto arrays = obs::JsonValue::Parse(Nest("[", "1", "]", kHostile));
  ASSERT_FALSE(arrays.ok());
  EXPECT_EQ(arrays.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(obs::JsonValue::Parse(std::string(kHostile, '[')).status().code(),
            StatusCode::kInvalidArgument);
  auto objects = obs::JsonValue::Parse(Nest("{\"k\":", "1", "}", kHostile));
  ASSERT_FALSE(objects.ok());
  EXPECT_EQ(objects.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(obs::JsonValue::Parse(Nest("[", "1", "]", kModest)).ok());
  EXPECT_TRUE(obs::JsonValue::Parse(Nest("{\"k\":", "1", "}", kModest)).ok());
}

TEST(ParseDepthTest, RqRejectsDeepNesting) {
  auto parens = ParseRq(Nest("(", "r(x, y)", ")", kHostile));
  ASSERT_FALSE(parens.ok());
  EXPECT_EQ(parens.status().code(), StatusCode::kInvalidArgument);
  auto closures = ParseRq(Nest("tc[x, y](", "r(x, y)", ")", kHostile));
  ASSERT_FALSE(closures.ok());
  EXPECT_EQ(closures.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseRq(Nest("(", "r(x, y)", ")", kModest)).ok());
  EXPECT_TRUE(ParseRq(Nest("tc[x, y](", "r(x, y)", ")", kModest)).ok());
}

TEST(ParseDepthTest, C2rpqRejectsDeepAtomRegex) {
  Alphabet alphabet;
  auto deep = ParseCrpq(
      "q(x, y) :- (" + Nest("(", "r", ")", kHostile) + ")(x, y)", &alphabet);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseCrpq("q(x, y) :- (" + Nest("(", "r", ")", kModest) +
                            ")(x, y)",
                        &alphabet)
                  .ok());
}

// The Datalog parser does not recurse on nesting; deep parentheses are a
// plain syntax error.
TEST(ParseDepthTest, DatalogRejectsDeepParenthesesWithoutRecursing) {
  auto deep = ParseDatalog("q(x) :- " + std::string(kHostile, '(') +
                           "r(x)" + std::string(kHostile, ')') + ".\n?- q.");
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
}

// A postfix chain is parsed without recursion, and the regex factories
// fold it into one node, so 10^4 operators build a two-node expression and
// a constant-size automaton instead of a chain the pipeline would walk
// quadratically.
TEST(ParseDepthTest, RegexPostfixChainIsOneNode) {
  Alphabet alphabet;
  std::string mixed = "a";
  for (int i = 0; i < kHostile / 2; ++i) mixed += "+?";
  auto chain = ParseRegex(mixed, &alphabet);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ((*chain)->Size(), 2u);
  EXPECT_EQ((*chain)->kind(), RegexKind::kStar);  // a+? = a*
  EXPECT_LE((*chain)->ToNfa(2).num_states(), 4u);

  for (char op : {'*', '+', '?'}) {
    auto same = ParseRegex("a" + std::string(kHostile, op), &alphabet);
    ASSERT_TRUE(same.ok());
    EXPECT_EQ((*same)->Size(), 2u) << op;
    EXPECT_LE((*same)->ToNfa(2).num_states(), 4u) << op;
  }
}

}  // namespace
}  // namespace rq
