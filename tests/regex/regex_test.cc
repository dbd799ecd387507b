#include "regex/regex.h"

#include <gtest/gtest.h>

#include "automata/words.h"
#include "common/rng.h"
#include "pathquery/containment.h"

namespace rq {
namespace {

class RegexTest : public ::testing::Test {
 protected:
  Nfa Compile(const std::string& text) {
    auto re = ParseRegex(text, &alphabet_);
    RQ_CHECK(re.ok());
    return re.value()->ToNfa(
        static_cast<uint32_t>(alphabet_.num_symbols()));
  }

  std::vector<Symbol> Word(const std::string& spaced) {
    std::vector<Symbol> out;
    std::string token;
    for (char c : spaced + " ") {
      if (c == ' ') {
        if (!token.empty()) {
          out.push_back(alphabet_.ParseSymbol(token).value());
          token.clear();
        }
      } else {
        token.push_back(c);
      }
    }
    return out;
  }

  Alphabet alphabet_;
};

TEST_F(RegexTest, ParsesAtom) {
  Nfa nfa = Compile("knows");
  EXPECT_TRUE(nfa.Accepts(Word("knows")));
  EXPECT_FALSE(nfa.Accepts({}));
}

TEST_F(RegexTest, ParsesInverseAtom) {
  Nfa nfa = Compile("knows-");
  EXPECT_TRUE(nfa.Accepts(Word("knows-")));
  EXPECT_FALSE(nfa.Accepts(Word("knows")));
}

TEST_F(RegexTest, ParsesConcatByJuxtaposition) {
  Nfa nfa = Compile("a b c");
  EXPECT_TRUE(nfa.Accepts(Word("a b c")));
  EXPECT_FALSE(nfa.Accepts(Word("a b")));
  EXPECT_FALSE(nfa.Accepts(Word("a c b")));
}

TEST_F(RegexTest, ParsesUnion) {
  Nfa nfa = Compile("a | b c");
  EXPECT_TRUE(nfa.Accepts(Word("a")));
  EXPECT_TRUE(nfa.Accepts(Word("b c")));
  EXPECT_FALSE(nfa.Accepts(Word("b")));
}

TEST_F(RegexTest, ParsesStarPlusOptional) {
  Nfa star = Compile("a*");
  EXPECT_TRUE(star.Accepts({}));
  EXPECT_TRUE(star.Accepts(Word("a a a")));

  Nfa plus = Compile("a+");
  EXPECT_FALSE(plus.Accepts({}));
  EXPECT_TRUE(plus.Accepts(Word("a")));
  EXPECT_TRUE(plus.Accepts(Word("a a")));

  Nfa opt = Compile("a?");
  EXPECT_TRUE(opt.Accepts({}));
  EXPECT_TRUE(opt.Accepts(Word("a")));
  EXPECT_FALSE(opt.Accepts(Word("a a")));
}

TEST_F(RegexTest, ParsesEpsilonAsEmptyParens) {
  Nfa nfa = Compile("() | a");
  EXPECT_TRUE(nfa.Accepts({}));
  EXPECT_TRUE(nfa.Accepts(Word("a")));
}

TEST_F(RegexTest, PostfixBindsTighterThanConcat) {
  Nfa nfa = Compile("a b*");
  EXPECT_TRUE(nfa.Accepts(Word("a")));
  EXPECT_TRUE(nfa.Accepts(Word("a b b")));
  EXPECT_FALSE(nfa.Accepts(Word("a b a b")));
}

TEST_F(RegexTest, ConcatBindsTighterThanUnion) {
  Nfa nfa = Compile("a b | c");
  EXPECT_TRUE(nfa.Accepts(Word("a b")));
  EXPECT_TRUE(nfa.Accepts(Word("c")));
  EXPECT_FALSE(nfa.Accepts(Word("a c")));
}

TEST_F(RegexTest, ParseErrors) {
  Alphabet a;
  EXPECT_FALSE(ParseRegex("", &a).ok());
  EXPECT_FALSE(ParseRegex("a |", &a).ok());
  EXPECT_FALSE(ParseRegex("(a", &a).ok());
  EXPECT_FALSE(ParseRegex("a)", &a).ok());
  EXPECT_FALSE(ParseRegex("*", &a).ok());
  EXPECT_FALSE(ParseRegex("a ; b", &a).ok());
}

TEST_F(RegexTest, ToStringRoundTrips) {
  Rng rng(20260705);
  alphabet_.InternLabel("a");
  alphabet_.InternLabel("b");
  alphabet_.InternLabel("c");
  for (int i = 0; i < 60; ++i) {
    RegexPtr re = RandomRegex(alphabet_, 4, /*allow_inverse=*/true, rng);
    std::string text = re->ToString(alphabet_);
    auto reparsed = ParseRegex(text, &alphabet_);
    ASSERT_TRUE(reparsed.ok()) << text;
    // Same language: compare on enumerated words of both.
    Nfa n1 = re->ToNfa(static_cast<uint32_t>(alphabet_.num_symbols()));
    Nfa n2 = reparsed.value()->ToNfa(
        static_cast<uint32_t>(alphabet_.num_symbols()));
    for (const auto& w : EnumerateAcceptedWords(n1, 4, 50)) {
      EXPECT_TRUE(n2.Accepts(w)) << text;
    }
    for (const auto& w : EnumerateAcceptedWords(n2, 4, 50)) {
      EXPECT_TRUE(n1.Accepts(w)) << text;
    }
  }
}

TEST_F(RegexTest, InverseExpressionInvertsWords) {
  Rng rng(42);
  alphabet_.InternLabel("a");
  alphabet_.InternLabel("b");
  for (int i = 0; i < 40; ++i) {
    RegexPtr re = RandomRegex(alphabet_, 3, /*allow_inverse=*/true, rng);
    RegexPtr inv = re->InverseExpression();
    uint32_t k = static_cast<uint32_t>(alphabet_.num_symbols());
    Nfa fwd = re->ToNfa(k);
    Nfa bwd = inv->ToNfa(k);
    for (const auto& w : EnumerateAcceptedWords(fwd, 4, 40)) {
      EXPECT_TRUE(bwd.Accepts(InverseWord(w)))
          << re->ToString(alphabet_);
    }
    // Double inversion is the identity language.
    Nfa twice = inv->InverseExpression()->ToNfa(k);
    for (const auto& w : EnumerateAcceptedWords(fwd, 3, 20)) {
      EXPECT_TRUE(twice.Accepts(w));
    }
  }
}

TEST_F(RegexTest, UsesInverseDetection) {
  auto plain = ParseRegex("a (b | c)*", &alphabet_);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value()->UsesInverse());
  auto twoway = ParseRegex("a (b- | c)*", &alphabet_);
  ASSERT_TRUE(twoway.ok());
  EXPECT_TRUE(twoway.value()->UsesInverse());
}

TEST_F(RegexTest, EmptyRegexHasEmptyLanguage) {
  Nfa nfa = Regex::Empty()->ToNfa(2);
  EXPECT_TRUE(nfa.IsEmptyLanguage());
}

TEST_F(RegexTest, MinNumSymbolsCoversAtoms) {
  auto re = ParseRegex("a b-", &alphabet_);
  ASSERT_TRUE(re.ok());
  // b is label 1 -> inverse symbol 3 -> need 4 symbols.
  EXPECT_EQ(re.value()->MinNumSymbols(), 4u);
}

// Every pair of stacked postfix operators folds to one node with the same
// language. `(r o1 ()) o2` keeps the stack apart (the concatenation with
// the empty word is not a postfix node), so it is the unfolded reference;
// the containment checker compares the two in both directions.
TEST_F(RegexTest, StackedPostfixOperatorsFoldWithoutChangingTheLanguage) {
  const std::string ops = "*+?";
  for (char o1 : ops) {
    for (char o2 : ops) {
      std::string stacked = std::string("(a b | c)") + o1 + o2;
      std::string apart = std::string("((a b | c)") + o1 + " ())" + o2;
      RegexPtr folded = ParseRegex(stacked, &alphabet_).value();
      RegexPtr reference = ParseRegex(apart, &alphabet_).value();
      EXPECT_EQ(folded->children().size(), 1u) << stacked;
      EXPECT_NE(folded->children()[0]->kind(), RegexKind::kStar) << stacked;
      EXPECT_NE(folded->children()[0]->kind(), RegexKind::kPlus) << stacked;
      EXPECT_NE(folded->children()[0]->kind(), RegexKind::kOptional)
          << stacked;
      EXPECT_TRUE(
          CheckPathQueryContainment(*folded, *reference, alphabet_).contained)
          << stacked << " vs " << apart;
      EXPECT_TRUE(
          CheckPathQueryContainment(*reference, *folded, alphabet_).contained)
          << apart << " vs " << stacked;
    }
  }
  // The folded forms print as one operator.
  EXPECT_EQ(ParseRegex("a**", &alphabet_).value()->ToString(alphabet_), "a*");
  EXPECT_EQ(ParseRegex("a+?", &alphabet_).value()->ToString(alphabet_), "a*");
  EXPECT_EQ(ParseRegex("a++", &alphabet_).value()->ToString(alphabet_), "a+");
  EXPECT_EQ(ParseRegex("a??", &alphabet_).value()->ToString(alphabet_), "a?");
}

}  // namespace
}  // namespace rq
