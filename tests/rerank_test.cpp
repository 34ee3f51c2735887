#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string_view>

#include "rerank/cross_score.h"
#include "rerank/flashranker.h"
#include "rerank/reranker.h"
#include "util/rng.h"

namespace pkb::rerank {
namespace {

std::vector<text::Document> corpus() {
  std::vector<text::Document> docs = {
      {"lsqr", "KSPLSQR solves least squares problems with rectangular "
               "matrices using bidiagonalization.", {{"title", "KSPLSQR"}}},
      {"cg", "KSPCG implements conjugate gradient for symmetric positive "
             "definite matrices.", {{"title", "KSPCG"}}},
      {"gmres", "KSPGMRES restarts every 30 iterations and handles "
                "nonsymmetric square matrices.", {{"title", "KSPGMRES"}}},
      {"monitor", "The -ksp_monitor option prints the residual norm at "
                  "every iteration.", {{"title", "-ksp_monitor"}}},
      {"info", "The -info option prints diagnostics including matrix "
               "preallocation success and malloc counts.",
       {{"title", "-info"}}},
      {"filler1", "Vectors support axpy operations and norms.", {}},
      {"filler2", "Preconditioners reduce the iteration count.", {}},
  };
  return docs;
}

std::vector<RerankCandidate> candidates(const std::vector<text::Document>& d) {
  std::vector<RerankCandidate> out;
  for (std::size_t i = 0; i < d.size(); ++i) out.push_back({&d[i], i, 0.5f});
  return out;
}

/// The candidate for the document with `id`.
RerankCandidate candidate(const std::vector<text::Document>& docs,
                          std::string_view id) {
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (docs[i].id == id) return {&docs[i], i, 0.0f};
  }
  throw std::invalid_argument("no such doc");
}

/// One (query, candidate) score.
double score_pair(const Reranker& ranker, std::string_view query,
                  const lexical::CorpusAnalysis& analysis,
                  const RerankCandidate& c) {
  return ranker.score(text::analyze(query), analysis, {c}).front();
}

class RerankerParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RerankerParamTest, PutsTheDecisiveDocFirst) {
  auto ranker = make_reranker(GetParam());
  const auto docs = corpus();
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  const auto ranked =
      ranker->rerank(text::analyze("Can I solve a rectangular least squares "
                                   "system?"),
                     *analysis, candidates(docs), 4);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].doc->id, "lsqr") << GetParam();
}

TEST_P(RerankerParamTest, TruncatesToTopL) {
  auto ranker = make_reranker(GetParam());
  const auto docs = corpus();
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  EXPECT_EQ(ranker
                ->rerank(text::analyze("query about matrices"), *analysis,
                         candidates(docs), 2)
                .size(),
            2u);
  EXPECT_EQ(ranker
                ->rerank(text::analyze("query"), *analysis, candidates(docs),
                         100)
                .size(),
            docs.size());
  EXPECT_TRUE(ranker->rerank(text::analyze("query"), *analysis, {}, 4).empty());
}

TEST_P(RerankerParamTest, ScoresDescendAndTiesKeepOriginalOrder) {
  auto ranker = make_reranker(GetParam());
  const auto docs = corpus();
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  const auto ranked =
      ranker->rerank(text::analyze("preallocation malloc diagnostics"),
                     *analysis, candidates(docs), docs.size());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    if (ranked[i - 1].score == ranked[i].score) {
      EXPECT_LT(ranked[i - 1].original_rank, ranked[i].original_rank);
    } else {
      EXPECT_GT(ranked[i - 1].score, ranked[i].score);
    }
  }
  EXPECT_EQ(ranked[0].doc->id, "info");
}

TEST_P(RerankerParamTest, PermutationInvariantScores) {
  // Candidate order must not change per-document scores (tied documents may
  // legitimately swap positions — ties break by arrival order).
  auto ranker = make_reranker(GetParam());
  const auto docs = corpus();
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  auto cands = candidates(docs);
  const text::QueryAnalysis query = text::analyze("rectangular least squares");
  const auto a = ranker->rerank(query, *analysis, cands, docs.size());
  std::reverse(cands.begin(), cands.end());
  const auto b = ranker->rerank(query, *analysis, cands, docs.size());
  ASSERT_EQ(a.size(), b.size());
  std::map<std::string, double> score_a;
  std::map<std::string, double> score_b;
  for (const auto& r : a) score_a[r.doc->id] = r.score;
  for (const auto& r : b) score_b[r.doc->id] = r.score;
  EXPECT_EQ(score_a, score_b);
  // The top document (a strict winner) is order-independent.
  EXPECT_EQ(a[0].doc->id, b[0].doc->id);
}

TEST_P(RerankerParamTest, Deterministic) {
  auto r1 = make_reranker(GetParam());
  auto r2 = make_reranker(GetParam());
  const auto docs = corpus();
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  const text::QueryAnalysis query = text::analyze("monitor residual");
  const auto a = r1->rerank(query, *analysis, candidates(docs), 3);
  const auto b = r2->rerank(query, *analysis, candidates(docs), 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc->id, b[i].doc->id);
  }
}

INSTANTIATE_TEST_SUITE_P(BothRerankers, RerankerParamTest,
                         ::testing::Values("sim-flashrank", "sim-nv-cross"),
                         [](const auto& info) {
                           return info.param == "sim-flashrank" ? "flashrank"
                                                                : "nvcross";
                         });

TEST(FlashRanker, SymbolMatchOutweighsProse) {
  FlashRanker ranker;
  const auto docs = corpus();
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  // Query names the API symbol: the exact match must dominate.
  const auto ranked =
      ranker.rerank(text::analyze("what does KSPGMRES do"), *analysis,
                    candidates(docs), 1);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].doc->id, "gmres");
}

TEST(FlashRanker, ScorePairIsNonNegativeAndZeroForNoOverlap) {
  FlashRanker ranker;
  const auto docs = corpus();
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  EXPECT_DOUBLE_EQ(score_pair(ranker, "zzz qqq", *analysis, {&docs[5], 5}),
                   0.0);
  EXPECT_GT(score_pair(ranker, "least squares", *analysis, {&docs[0], 0}), 0.0);
}

// One (query, document id, score) golden triple for score_pair.
struct GoldenPair {
  const char* query;
  const char* doc_id;
  double score;
};

constexpr const char* kLsqrQuery =
    "Can I solve a rectangular least squares system with KSPLSQR?";
constexpr const char* kGmresQuery =
    "How often does KSPGMRES restart for nonsymmetric matrices?";
constexpr const char* kMonitorQuery =
    "What does -ksp_monitor print at every iteration?";
constexpr const char* kMorphologyQuery =
    "restarting conjugate gradients on positive definite matrices";

// Golden scores, captured before the blend weights became constants
// (coverage 1.0, bm25 0.35, symbol 1.5, bigram 0.3, title 0.22, title
// symbol 2.0). The pairs exercise every term of the blend.
TEST(FlashRanker, ScorePairMatchesGoldenValues) {
  FlashRanker ranker;
  const auto docs = corpus();
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  const GoldenPair goldens[] = {
      {kLsqrQuery, "lsqr", 6.4431826249765285},
      {kLsqrQuery, "cg", 0.0},
      {kGmresQuery, "lsqr", 0.2179047718402696},
      {kGmresQuery, "cg", 0.27649394701527813},
      {kGmresQuery, "gmres", 6.2796334290435194},
      {kMonitorQuery, "gmres", 0.32438635950621425},
      {kMonitorQuery, "monitor", 6.6754207235495997},
      {kMorphologyQuery, "cg", 1.7716358158692096},
      {kMorphologyQuery, "gmres", 0.16560628536527261},
  };
  for (const GoldenPair& g : goldens) {
    EXPECT_EQ(score_pair(ranker, g.query, *analysis, candidate(docs, g.doc_id)),
              g.score)
        << g.query << " | " << g.doc_id;
  }
}

// Golden scores, captured before the weights became constants (proximity
// sigma 12, alignment 1.0, coverage 0.8, soft-match threshold 0.55).
TEST(CrossScore, ScorePairMatchesGoldenValues) {
  CrossScoreReranker ranker;
  const auto docs = corpus();
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  const GoldenPair goldens[] = {
      {kLsqrQuery, "lsqr", 1.7229411435045958},
      {kLsqrQuery, "gmres", 0.12083521748457744},
      {kGmresQuery, "cg", 0.72460825540780771},
      {kGmresQuery, "gmres", 1.6077317176934005},
      {kGmresQuery, "info", 0.063494263317681252},
      {kMonitorQuery, "monitor", 1.653823661861102},
      {kMonitorQuery, "filler2", 0.22694086493041232},
      {kMorphologyQuery, "cg", 1.7147742822004264},
      {kMorphologyQuery, "gmres", 0.23200911874080582},
      {kMorphologyQuery, "monitor", 0.0},
  };
  for (const GoldenPair& g : goldens) {
    EXPECT_EQ(score_pair(ranker, g.query, *analysis, candidate(docs, g.doc_id)),
              g.score)
        << g.query << " | " << g.doc_id;
  }
}

TEST(CrossScore, ProximityRewardsClusteredMatches) {
  CrossScoreReranker ranker;
  text::Document clustered{
      "c", "the rectangular least squares solver converges quickly", {}};
  text::Document scattered{
      "s", "rectangular grids are common; unrelated text follows here and "
           "goes on and on for a very long while about meshes and output "
           "and diagnostics; eventually least squares appears far away; "
           "and after yet more filler text the word solver shows up",
      {}};
  const auto analysis = lexical::CorpusAnalysis::build({clustered, scattered});
  const double c = score_pair(ranker, "rectangular least squares solver",
                              *analysis, {&clustered, 0});
  const double s = score_pair(ranker, "rectangular least squares solver",
                              *analysis, {&scattered, 1});
  EXPECT_GT(c, s);
}

TEST(CrossScore, SoftMatchingHandlesMorphology) {
  CrossScoreReranker ranker;
  text::Document doc{"d", "restarting the iteration bounds memory usage", {}};
  const auto analysis = lexical::CorpusAnalysis::build({doc});
  // "restart" ~ "restarting" via trigram soft match.
  EXPECT_GT(score_pair(ranker, "restart memory", *analysis, {&doc, 0}), 0.3);
}

TEST(Registry, NamesConstructAndUnknownThrows) {
  for (const std::string& name : reranker_registry()) {
    EXPECT_NO_THROW((void)make_reranker(name));
  }
  EXPECT_THROW((void)make_reranker("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace pkb::rerank
