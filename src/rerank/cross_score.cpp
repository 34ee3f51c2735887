#include "rerank/cross_score.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace pkb::rerank {

namespace {

// Gaussian width (in token positions) of the proximity kernel: query terms
// matching close together in the document score more.
constexpr double kProximitySigma = 12.0;
// Weight of the proximity-weighted alignment vs plain coverage.
constexpr double kAlignmentWeight = 1.0;
constexpr double kCoverageWeight = 0.8;
// Character-trigram soft matching threshold for near-miss terms (handles
// morphology: "restarting" ~ "restart").
constexpr double kSoftMatchThreshold = 0.55;

/// A character trigram packed into one integer (equal iff the bytes are).
std::uint32_t trigram_at(std::string_view s, std::size_t i) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[i])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[i + 1]))
             << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[i + 2]));
}

/// A content term of the query (a view into the query analysis) with its
/// idf and its distinct trigrams (sorted), built once per score() call.
struct QueryTerm {
  std::string_view term;
  double idf = 0.0;
  std::vector<std::uint32_t> trigrams;
};

struct Query {
  bool empty = true;  ///< the query has no tokens at all
  std::vector<QueryTerm> terms;
  double total_idf = 0.0;
};

Query plan_query(const text::QueryAnalysis& q,
                 const lexical::TermStats& stats) {
  Query out;
  out.empty = q.tokens.empty();
  for (const text::TextAnalysis::Span tok : q.tokens) {
    const std::string_view term = q.view(tok);
    if (text::stopwords().contains(term) || term.size() < 2) continue;
    QueryTerm t;
    t.term = term;
    t.idf = std::max(0.1, stats.idf(term));
    out.total_idf += t.idf;
    for (std::size_t i = 0; i + 3 <= term.size(); ++i) {
      t.trigrams.push_back(trigram_at(term, i));
    }
    std::sort(t.trigrams.begin(), t.trigrams.end());
    t.trigrams.erase(std::unique(t.trigrams.begin(), t.trigrams.end()),
                     t.trigrams.end());
    out.terms.push_back(std::move(t));
  }
  return out;
}

/// Dice coefficient over character trigram multisets — cheap soft term
/// similarity for morphological near-misses. `a` is the query term, `b` a
/// different document token.
double trigram_similarity(const QueryTerm& a, std::string_view b) {
  if (a.term.size() < 3 || b.size() < 3) return 0.0;
  const std::size_t nb = b.size() - 2;
  std::size_t common = 0;
  std::vector<std::uint32_t> counted;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint32_t g = trigram_at(b, i);
    if (std::binary_search(a.trigrams.begin(), a.trigrams.end(), g) &&
        std::find(counted.begin(), counted.end(), g) == counted.end()) {
      counted.push_back(g);
      ++common;
    }
  }
  const double denom = static_cast<double>(a.trigrams.size() + nb);
  return denom == 0.0 ? 0.0 : 2.0 * static_cast<double>(common) / denom;
}

/// Soft match strength of query term `t` at one document token.
double match_strength(const QueryTerm& t, std::string_view token) {
  if (token == t.term) return 1.0;
  // Common trigrams are at most min(|a|, nb); when that cannot reach a
  // Dice of 0.5 it cannot pass the threshold either, so skip the count.
  if (token.size() >= 3) {
    const std::size_t nb = token.size() - 2;
    if (4 * std::min(t.trigrams.size(), nb) < t.trigrams.size() + nb) {
      return 0.0;
    }
  }
  const double s = trigram_similarity(t, token);
  return s >= kSoftMatchThreshold ? 0.7 * s : 0.0;
}

double score_doc(const Query& q, const text::TextAnalysis& d) {
  if (q.empty || d.tokens.empty()) return 0.0;

  // For each content query term, find its best (soft) match position(s) in
  // the document; alignment rewards matches, proximity rewards clusters.
  struct Match {
    double strength = 0.0;  // 0..1 soft match quality
    std::size_t pos = 0;
    double idf = 0.0;
  };
  std::vector<Match> best;
  for (const QueryTerm& t : q.terms) {
    Match m;
    m.idf = t.idf;
    for (std::size_t di = 0; di < d.tokens.size(); ++di) {
      const double s = match_strength(t, d.view(d.tokens[di]));
      if (s > m.strength) {
        m.strength = s;
        m.pos = di;
      }
    }
    if (m.strength > 0.0) best.push_back(m);
  }
  if (best.empty() || q.total_idf <= 0.0) return 0.0;

  // Coverage: IDF-weighted fraction of query terms matched.
  double coverage = 0.0;
  for (const Match& m : best) coverage += m.idf * m.strength;
  coverage /= q.total_idf;

  // Alignment: pairwise proximity of the matched positions — matched terms
  // that sit near each other in the document indicate a passage that
  // actually discusses the query topic rather than scattered mentions.
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

}  // namespace

std::vector<double> CrossScoreReranker::score(
    const text::QueryAnalysis& query, const lexical::CorpusAnalysis& corpus,
    const std::vector<RerankCandidate>& candidates) const {
  // Each (query, document) pair costs O(|query| * |doc|); the request's
  // own thread scores them in candidate order.
  const Query q = plan_query(query, *corpus.stats);
  std::vector<double> out;
  out.reserve(candidates.size());
  for (const RerankCandidate& c : candidates) {
    out.push_back(score_doc(q, *corpus.chunks.at(c.row)));
  }
  return out;
}

}  // namespace pkb::rerank
