#include "rerank/cross_score.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "text/tokenizer.h"

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

/// Dice coefficient over character trigram multisets — cheap soft term
/// similarity for morphological near-misses.
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

}  // namespace

void CrossScoreReranker::fit(const std::vector<text::Document>& corpus) {
  index_.build(corpus);
}

double CrossScoreReranker::score_pair(std::string_view query,
                                      const text::Document& doc) const {
  const std::vector<std::string> q = text::tokens_of(query);
  const std::vector<std::string> d = text::tokens_of(doc.text);
  if (q.empty() || d.empty()) return 0.0;

  // For each content query term, find its best (soft) match position(s) in
  // the document; alignment rewards matches, proximity rewards clusters.
  struct Match {
    double strength = 0.0;  // 0..1 soft match quality
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

  // Coverage: IDF-weighted fraction of query terms matched.
  double coverage = 0.0;
  for (const Match& m : best) coverage += m.idf * m.strength;
  coverage /= total_idf;

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

std::vector<RerankResult> CrossScoreReranker::rerank(
    std::string_view query, const std::vector<RerankCandidate>& candidates,
    std::size_t top_l) const {
  consult_fault_plan();
  // Each (query, document) pair costs O(|query| * |doc|); the request's
  // own thread scores them in candidate order.
  std::vector<RerankResult> out;
  out.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    out.push_back(RerankResult{candidates[i].doc,
                               score_pair(query, *candidates[i].doc), i});
  }
  std::sort(out.begin(), out.end(),
            [](const RerankResult& a, const RerankResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.original_rank < b.original_rank;
            });
  if (out.size() > top_l) out.resize(top_l);
  return out;
}

}  // namespace pkb::rerank
