// Parity of the rerankers with their per-pair reference: the scoring code as
// it was before chunk analyses and term statistics existed (it tokenized and
// lowercased both texts on every pair and read IDF from a Bm25Index fitted
// on the chunk list). For every Krylov benchmark question and every chunk of
// the docs knowledge base, the scores must be the same doubles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>
#include <vector>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "count_occurrences.h"
#include "lexical/bm25.h"
#include "rag/knowledge_base.h"
#include "rerank/cross_score.h"
#include "rerank/flashranker.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace pkb::rerank {
namespace {

namespace reference {

double flash_score_pair(const lexical::Bm25Index& index_,
                        std::string_view query, const text::Document& doc) {
  constexpr double kCoverageWeight = 1.0;
  constexpr double kBm25Weight = 0.35;
  constexpr double kSymbolBonus = 1.5;
  constexpr double kBigramBonus = 0.3;
  constexpr double kTitleWeight = 0.22;
  constexpr double kTitleSymbolBonus = 2.0;

  const text::TokenizedText q = text::tokenize(query);
  const std::string doc_lower = pkb::util::to_lower(doc.text);

  std::unordered_set<std::string> doc_terms;
  for (std::string& tok : text::tokens_of(doc.text)) {
    doc_terms.insert(std::move(tok));
  }
  double coverage = 0.0;
  double total_idf = 0.0;
  std::unordered_set<std::string> seen;
  for (const std::string& term : q.tokens) {
    if (!seen.insert(term).second) continue;
    if (text::stopwords().contains(term)) continue;
    const double w = std::max(0.1, index_.idf(term));
    total_idf += w;
    if (doc_terms.contains(term)) coverage += w;
  }
  double score = total_idf > 0.0
                     ? kCoverageWeight * coverage / total_idf
                     : 0.0;

  for (const std::string& symbol : q.symbols) {
    if (doc.text.find(symbol) != std::string::npos) {
      score += kSymbolBonus *
               std::max(0.2, index_.idf(pkb::util::to_lower(symbol)));
    }
  }

  for (std::size_t i = 0; i + 1 < q.tokens.size(); ++i) {
    if (text::stopwords().contains(q.tokens[i]) &&
        text::stopwords().contains(q.tokens[i + 1])) {
      continue;
    }
    const std::string bigram = q.tokens[i] + " " + q.tokens[i + 1];
    if (doc_lower.find(bigram) != std::string::npos) {
      score += kBigramBonus;
    }
  }

  const std::string title = pkb::util::to_lower(doc.meta("title"));
  if (!title.empty()) {
    for (const std::string& term : seen) {
      if (text::stopwords().contains(term)) continue;
      if (title.find(term) != std::string::npos) {
        score += kTitleWeight * std::max(0.2, index_.idf(term));
      }
    }
    for (const std::string& symbol : q.symbols) {
      if (pkb::util::to_lower(symbol) == title) {
        score += kTitleSymbolBonus;
      }
    }
  }

  double bm25 = 0.0;
  for (const std::string& term : seen) {
    if (!doc_terms.contains(term)) continue;
    const double tf = static_cast<double>(
        oracle::count_occurrences(doc_lower, term));
    bm25 += index_.idf(term) * (tf * 2.2) / (tf + 1.2);
  }
  score += kBm25Weight * bm25 / 10.0;

  return score;
}

double trigram_similarity(const std::string& a, const std::string& b) {
  if (a == b) return 1.0;
  if (a.size() < 3 || b.size() < 3) return 0.0;
  std::unordered_set<std::string> ta;
  for (std::size_t i = 0; i + 3 <= a.size(); ++i) ta.insert(a.substr(i, 3));
  std::size_t common = 0;
  std::size_t nb = 0;
  std::unordered_set<std::string> counted;
  for (std::size_t i = 0; i + 3 <= b.size(); ++i) {
    const std::string g = b.substr(i, 3);
    ++nb;
    if (ta.contains(g) && counted.insert(g).second) ++common;
  }
  const double denom = static_cast<double>(ta.size() + nb);
  return denom == 0.0 ? 0.0 : 2.0 * static_cast<double>(common) / denom;
}

double cross_score_pair(const lexical::Bm25Index& index_,
                        std::string_view query, const text::Document& doc) {
  constexpr double kProximitySigma = 12.0;
  constexpr double kAlignmentWeight = 1.0;
  constexpr double kCoverageWeight = 0.8;
  constexpr double kSoftMatchThreshold = 0.55;

  const std::vector<std::string> q = text::tokens_of(query);
  const std::vector<std::string> d = text::tokens_of(doc.text);
  if (q.empty() || d.empty()) return 0.0;

  struct Match {
    double strength = 0.0;
    std::size_t pos = 0;
    double idf = 0.0;
  };
  std::vector<Match> best;
  double total_idf = 0.0;

  for (std::size_t qi = 0; qi < q.size(); ++qi) {
    const std::string& term = q[qi];
    if (text::stopwords().contains(term) || term.size() < 2) continue;
    const double idf = std::max(0.1, index_.idf(term));
    total_idf += idf;
    Match m;
    m.idf = idf;
    for (std::size_t di = 0; di < d.size(); ++di) {
      double s = 0.0;
      if (d[di] == term) {
        s = 1.0;
      } else {
        const double t = trigram_similarity(term, d[di]);
        s = t >= kSoftMatchThreshold ? 0.7 * t : 0.0;
      }
      if (s > m.strength) {
        m.strength = s;
        m.pos = di;
      }
    }
    if (m.strength > 0.0) best.push_back(m);
  }
  if (best.empty() || total_idf <= 0.0) return 0.0;

  double coverage = 0.0;
  for (const Match& m : best) coverage += m.idf * m.strength;
  coverage /= total_idf;

  double alignment = 0.0;
  double pair_weight = 0.0;
  for (std::size_t i = 0; i < best.size(); ++i) {
    for (std::size_t j = i + 1; j < best.size(); ++j) {
      const double gap = std::fabs(static_cast<double>(best[i].pos) -
                                   static_cast<double>(best[j].pos));
      const double prox =
          std::exp(-(gap * gap) /
                   (2.0 * kProximitySigma * kProximitySigma));
      const double w = best[i].idf * best[j].idf *
                       best[i].strength * best[j].strength;
      alignment += w * prox;
      pair_weight += w;
    }
  }
  if (pair_weight > 0.0) alignment /= pair_weight;

  return kCoverageWeight * coverage +
         kAlignmentWeight * alignment * coverage;
}

}  // namespace reference

class RerankParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new rag::KnowledgeBase(
        rag::KnowledgeBase::build(corpus::generate_corpus()));
    index_ = new lexical::Bm25Index();
    index_->build(kb_->snapshot()->chunks);
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
    delete kb_;
    kb_ = nullptr;
  }

  /// Every chunk as a candidate, as the retriever passes them: the
  /// document is the chunk-list row.
  static std::vector<RerankCandidate> every_chunk(const rag::Snapshot& snap) {
    std::vector<RerankCandidate> out;
    for (std::size_t i = 0; i < snap.chunks.size(); ++i) {
      out.push_back({&snap.chunks[i], i, 0.0f});
    }
    return out;
  }

  template <typename ReferenceScore>
  static void expect_parity(const Reranker& ranker, ReferenceScore reference) {
    const rag::SnapshotPtr snap = kb_->snapshot();
    ASSERT_GT(snap->chunks.size(), 100u);
    const std::vector<RerankCandidate> candidates = every_chunk(*snap);
    std::size_t nonzero = 0;
    for (const corpus::BenchmarkQuestion& q : corpus::krylov_benchmark()) {
      const std::vector<double> scores =
          ranker.score(text::analyze(q.question), *snap->analysis, candidates);
      ASSERT_EQ(scores.size(), snap->chunks.size());
      for (std::size_t i = 0; i < scores.size(); ++i) {
        const double want = reference(*index_, q.question, snap->chunks[i]);
        ASSERT_EQ(scores[i], want)
            << q.question << " | " << snap->chunks[i].id;
        if (want != 0.0) ++nonzero;
      }
    }
    EXPECT_GT(nonzero, 0u);
  }

  static rag::KnowledgeBase* kb_;
  static lexical::Bm25Index* index_;
};

rag::KnowledgeBase* RerankParity::kb_ = nullptr;
lexical::Bm25Index* RerankParity::index_ = nullptr;

TEST_F(RerankParity, FlashRankerIsBitEqualOnEveryKrylovQuestionAndChunk) {
  expect_parity(FlashRanker(), reference::flash_score_pair);
}

TEST_F(RerankParity, CrossScoreIsBitEqualOnEveryKrylovQuestionAndChunk) {
  expect_parity(CrossScoreReranker(), reference::cross_score_pair);
}

}  // namespace
}  // namespace pkb::rerank
