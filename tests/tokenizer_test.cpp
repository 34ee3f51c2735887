#include "text/tokenizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/strings.h"

namespace pkb::text {
namespace {

TEST(Tokenizer, LowercasesProse) {
  const auto toks = tokens_of("How Do I Solve");
  EXPECT_EQ(toks, (std::vector<std::string>{"how", "do", "i", "solve"}));
}

TEST(Tokenizer, KeepsApiSymbolsAsSingleTokens) {
  const auto tt = tokenize("Call KSPSetType before KSPSolve.");
  EXPECT_EQ(tt.symbols, (std::vector<std::string>{"KSPSetType", "KSPSolve"}));
  EXPECT_NE(std::find(tt.tokens.begin(), tt.tokens.end(), "kspsettype"),
            tt.tokens.end());
}

TEST(Tokenizer, KeepsRuntimeOptions) {
  const auto tt = tokenize("run with -ksp_monitor and -pc_type jacobi");
  EXPECT_NE(std::find(tt.symbols.begin(), tt.symbols.end(), "-ksp_monitor"),
            tt.symbols.end());
  EXPECT_NE(std::find(tt.symbols.begin(), tt.symbols.end(), "-pc_type"),
            tt.symbols.end());
  // plain words are not symbols
  EXPECT_EQ(std::find(tt.symbols.begin(), tt.symbols.end(), "jacobi"),
            tt.symbols.end());
}

TEST(Tokenizer, SymbolsDeduplicatedInFirstAppearanceOrder) {
  const auto tt = tokenize("KSPSolve then KSPGMRES then KSPSolve again");
  EXPECT_EQ(tt.symbols, (std::vector<std::string>{"KSPSolve", "KSPGMRES"}));
}

// Golden output, captured before the tokenizer lost its options: prose is
// lowercased, stopwords and one-character tokens stay in the stream, and
// symbols keep their case in first-appearance order.
TEST(Tokenizer, GoldenOutputOnFixedInput) {
  const auto tt = tokenize(
      "How do I call KSPSetType -- with -ksp_type gmres, a PC and the "
      "MatSetValues() routine? See src/ksp/ksp.c, e.g. KSPSetType again.");
  EXPECT_EQ(tt.tokens,
            (std::vector<std::string>{
                "how", "do", "i", "call", "kspsettype", "with", "-ksp_type",
                "gmres", "a", "pc", "and", "the", "matsetvalues", "routine",
                "see", "src", "ksp", "ksp", "c", "e", "g", "kspsettype",
                "again"}));
  EXPECT_EQ(tt.symbols, (std::vector<std::string>{"KSPSetType", "-ksp_type",
                                                  "MatSetValues"}));
}

TEST(Tokenizer, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(tokens_of("").empty());
  EXPECT_TRUE(tokens_of("... !!! ???").empty());
}

TEST(Tokenizer, DoubleDashProseSeparatorNotAnOption) {
  const auto tt = tokenize("yes -- and no");
  EXPECT_TRUE(tt.symbols.empty());
}

// The analysis spans reproduce tokenize() exactly, including stripped
// leading dashes ("---ksp_view" -> "-ksp_view") and symbols.
TEST(Tokenizer, AnalysisSpansReproduceTheTokenStream) {
  Document doc;
  doc.text =
      "How do I call KSPSetType -- with -ksp_type gmres, a PC and the "
      "MatSetValues() routine? Try ---ksp_view; KSPSetType again, ksp.";
  doc.metadata["title"] = "KSPSetType";
  const TextAnalysis a = analyze(doc);
  EXPECT_EQ(a.lower, pkb::util::to_lower(doc.text));
  EXPECT_EQ(a.title, "kspsettype");
  std::vector<std::string> tokens;
  for (const TextAnalysis::Span s : a.tokens) tokens.emplace_back(a.view(s));
  EXPECT_EQ(tokens, tokens_of(doc.text));
  std::vector<std::string> terms;
  for (const TextAnalysis::Span s : a.terms) terms.emplace_back(a.view(s));
  std::vector<std::string> want = tokens;
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  EXPECT_EQ(terms, want);
  EXPECT_TRUE(a.has_term("-ksp_view"));
  EXPECT_TRUE(a.has_term("kspsettype"));
  EXPECT_FALSE(a.has_term("KSPSetType"));
  EXPECT_FALSE(a.has_term("ksp_view"));
}

TEST(LooksLikeSymbol, Positive) {
  EXPECT_TRUE(looks_like_symbol("KSPSolve"));
  EXPECT_TRUE(looks_like_symbol("KSPGMRES"));
  EXPECT_TRUE(looks_like_symbol("MatSetValues"));
  EXPECT_TRUE(looks_like_symbol("-ksp_type"));
  EXPECT_TRUE(looks_like_symbol("-info"));
  EXPECT_TRUE(looks_like_symbol("PetscCall"));
}

TEST(LooksLikeSymbol, Negative) {
  EXPECT_FALSE(looks_like_symbol("solver"));
  EXPECT_FALSE(looks_like_symbol("Solve"));     // no interior capital
  EXPECT_FALSE(looks_like_symbol("GPU"));       // short ALLCAPS
  EXPECT_FALSE(looks_like_symbol("a"));
  EXPECT_FALSE(looks_like_symbol("-x"));        // too short for an option
  EXPECT_FALSE(looks_like_symbol("matrix"));
}

TEST(SplitSentences, BasicSplit) {
  const auto sents = split_sentences("First one. Second one? Third!");
  ASSERT_EQ(sents.size(), 3u);
  EXPECT_EQ(sents[0], "First one.");
  EXPECT_EQ(sents[1], "Second one?");
  EXPECT_EQ(sents[2], "Third!");
}

TEST(SplitSentences, AbbreviationsDoNotSplit) {
  const auto sents =
      split_sentences("Use a solver, e.g. GMRES, for this. Then stop.");
  ASSERT_EQ(sents.size(), 2u);
  EXPECT_EQ(sents[1], "Then stop.");
}

TEST(SplitSentences, NoTerminalPunctuation) {
  const auto sents = split_sentences("no punctuation here");
  ASSERT_EQ(sents.size(), 1u);
}

TEST(SplitSentences, PeriodInsideIdentifierDoesNotSplit) {
  const auto sents = split_sentences("See src/ksp/ksp.c for details. Done.");
  ASSERT_EQ(sents.size(), 2u);
}

TEST(ApproxLlmTokens, ScalesWithWords) {
  const std::size_t small = approx_llm_tokens("three word phrase");
  const std::size_t big =
      approx_llm_tokens("a considerably longer phrase with many more words");
  EXPECT_GT(big, small);
  EXPECT_GE(small, 3u);
}

TEST(ApproxLlmTokens, EmptyIsCheap) {
  EXPECT_LE(approx_llm_tokens(""), 1u);
}

}  // namespace
}  // namespace pkb::text
