#include <gtest/gtest.h>

#include <string_view>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "lexical/bm25.h"
#include "lexical/keyword_search.h"
#include "text/analysis.h"
#include "text/loader.h"
#include "text/splitter.h"

namespace pkb::lexical {
namespace {

std::vector<text::Document> docs() {
  return {
      {"cg", "conjugate gradient requires symmetric positive definite "
             "matrices", {}},
      {"gmres", "gmres handles nonsymmetric matrices with restarts gmres "
                "gmres", {}},
      {"lsqr", "lsqr solves rectangular least squares problems", {}},
      {"long", "a much longer document about matrices matrices matrices and "
               "other things that mention many words to make the document "
               "long and diluted for length normalization purposes", {}},
  };
}

TEST(Bm25, SearchRanksExactTopicFirst) {
  Bm25Index index;
  index.build(docs());
  const auto hits = index.search("rectangular least squares", 4);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc->id, "lsqr");
}

TEST(Bm25, NoOverlapMeansNoResults) {
  Bm25Index index;
  index.build(docs());
  EXPECT_TRUE(index.search("zzz qqq", 4).empty());
  EXPECT_TRUE(index.search("anything", 0).empty());
}

TEST(Bm25, IdfOrdering) {
  Bm25Index index;
  index.build(docs());
  // "matrices" appears in 3 docs, "rectangular" in 1.
  EXPECT_GT(index.idf("rectangular"), index.idf("matrices"));
  EXPECT_DOUBLE_EQ(index.idf("nonexistent"), 0.0);
}

TEST(Bm25, TermFrequencySaturates) {
  // Two docs of identical length in the SAME index, tf 1 vs tf 4: the
  // contribution must grow sublinearly.
  Bm25Index index;
  index.build({{"once", "gmres aaa bbb ccc ddd eee fff ggg", {}},
               {"many", "gmres gmres gmres gmres eee fff ggg hhh", {}},
               {"other", "unrelated words entirely different content", {}}});
  const auto hits = index.search("gmres", 3);
  ASSERT_EQ(hits.size(), 2u);
  ASSERT_EQ(hits[0].doc->id, "many");
  const double many = hits[0].score;
  const double once = hits[1].score;
  EXPECT_GT(once, 0.0);
  EXPECT_GT(many, once);
  EXPECT_LT(many / once, 4.0);  // saturation: 4x tf gives < 4x score
}

TEST(Bm25, LengthNormalizationPenalizesLongDocs) {
  // Same tf (1) in a short and a very long doc: the short doc must win.
  std::string filler;
  for (int i = 0; i < 60; ++i) filler += " filler" + std::to_string(i);
  Bm25Index index;
  index.build({{"short", "matrices in a compact statement", {}},
               {"long", "matrices appear here" + filler, {}}});
  const auto hits = index.search("matrices", 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc->id, "short");
}

// Golden scores, captured with k1 = 1.2 and b = 0.75 before they became
// constants: every document with query overlap is returned with exactly
// these scores, and no other document is.
TEST(Bm25, SearchScoresMatchGoldenValues) {
  Bm25Index index;
  index.build(docs());
  struct Golden {
    const char* query;
    std::vector<std::pair<std::size_t, double>> hits;
  };
  const Golden goldens[] = {
      {"gmres matrices with restarts",
       {{1, 5.2106197462853912},
        {3, 0.44487562368232725},
        {0, 0.42734865820700968}}},
      {"rectangular least squares", {{2, 4.5159898899867645}}},
      {"conjugate gradient", {{0, 2.8850704048042135}}},
  };
  for (const Golden& g : goldens) {
    const auto hits = index.search(g.query, 4);
    ASSERT_EQ(hits.size(), g.hits.size()) << g.query;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].index, g.hits[i].first) << g.query;
      EXPECT_EQ(hits[i].score, g.hits[i].second) << g.query;
    }
  }
}

class SymbolIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto tree = pkb::corpus::generate_corpus();
    const text::MarkdownLoader loader(text::MarkdownMode::Single, true);
    const text::RecursiveCharacterTextSplitter splitter;
    chunks_ = new std::vector<text::Document>(
        splitter.split_documents(loader.load(tree)));
    index_ = new SymbolIndex(*chunks_);
  }
  /// Resolve the API symbols of `query`'s analysis.
  static std::vector<KeywordHit> lookup(std::string_view query) {
    return index_->lookup(text::analyze(query).symbols);
  }
  static std::vector<text::Document>* chunks_;
  static SymbolIndex* index_;
};

std::vector<text::Document>* SymbolIndexTest::chunks_ = nullptr;
SymbolIndex* SymbolIndexTest::index_ = nullptr;

TEST_F(SymbolIndexTest, CoversTheSpecTable) {
  EXPECT_GE(index_->symbol_count(), 90u);
  for (const char* symbol : {"KSPGMRES", "-info"}) {
    const auto hits = index_->lookup(std::vector<std::string>{symbol});
    ASSERT_EQ(hits.size(), 1u) << symbol;
    EXPECT_EQ(hits[0].resolved, symbol);
    EXPECT_FALSE(hits[0].chunks.empty()) << symbol;
  }
  const auto unknown = index_->lookup(std::vector<std::string>{"KSPBurb"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_TRUE(unknown[0].chunks.empty());
}

TEST_F(SymbolIndexTest, LookupResolvesExactSymbols) {
  const auto hits = lookup("How do I call KSPSolve with a guess?");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].symbol, "KSPSolve");
  EXPECT_EQ(hits[0].resolved, "KSPSolve");
  EXPECT_EQ(hits[0].page, "manualpages/KSP/KSPSolve.md");
  EXPECT_FALSE(hits[0].chunks.empty());
  for (std::size_t chunk : hits[0].chunks) {
    EXPECT_EQ((*chunks_)[chunk].meta("source"), "manualpages/KSP/KSPSolve.md");
  }
}

TEST_F(SymbolIndexTest, LookupResolvesTyposWhenFuzzy) {
  const auto hits = lookup("what does KSPSovle do");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].resolved, "KSPSolve");
}

TEST_F(SymbolIndexTest, UnknownSymbolsReportedWithoutPage) {
  const auto hits = lookup("What does KSPBurb do?");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].symbol, "KSPBurb");
  EXPECT_TRUE(hits[0].resolved.empty());
  EXPECT_TRUE(hits[0].chunks.empty());
}

TEST_F(SymbolIndexTest, MultipleSymbolsAllReported) {
  const auto hits =
      lookup("difference between -ksp_monitor and KSPMonitorSet");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].resolved, "-ksp_monitor");
  EXPECT_EQ(hits[1].resolved, "KSPMonitorSet");
}

TEST_F(SymbolIndexTest, ProseWordsAreNotSymbols) {
  EXPECT_TRUE(lookup("how do I solve a linear system fast").empty());
}

}  // namespace
}  // namespace pkb::lexical
