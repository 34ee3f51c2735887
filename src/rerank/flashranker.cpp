#include "rerank/flashranker.h"

#include <algorithm>
#include <unordered_set>

#include "text/tokenizer.h"
#include "util/strings.h"

namespace pkb::rerank {

namespace {

// Weights of the FlashRanker blend.
constexpr double kCoverageWeight = 1.0;  // IDF-weighted query-term coverage
constexpr double kBm25Weight = 0.35;     // BM25 score contribution
constexpr double kSymbolBonus = 1.5;     // per exact API-symbol match (x IDF)
constexpr double kBigramBonus = 0.3;     // per matched query bigram
// Weight of IDF-weighted query terms found in the document title: a rare
// query term matching the manual-page symbol ("richardson" in
// "KSPRICHARDSON") is close to decisive.
constexpr double kTitleWeight = 0.22;
// Extra bonus when a query API symbol IS the document title.
constexpr double kTitleSymbolBonus = 2.0;

}  // namespace

void FlashRanker::fit(const std::vector<text::Document>& corpus) {
  index_.build(corpus);  // copy: the index owns its documents
}

double FlashRanker::score_pair(std::string_view query,
                               const text::Document& doc) const {
  const text::TokenizedText q = text::tokenize(query);
  const std::string doc_lower = pkb::util::to_lower(doc.text);

  // IDF-weighted coverage of distinct query terms.
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

  // Exact API-symbol matches (case-sensitive surface form in the raw text).
  for (const std::string& symbol : q.symbols) {
    if (doc.text.find(symbol) != std::string::npos) {
      score += kSymbolBonus *
               std::max(0.2, index_.idf(pkb::util::to_lower(symbol)));
    }
  }

  // Query bigrams appearing verbatim (lowercased) in the document.
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

  // Title hits, IDF-weighted: rare query terms matching the page symbol are
  // near-decisive.
  const std::string title = pkb::util::to_lower(doc.meta("title"));
  if (!title.empty()) {
    for (const std::string& term : seen) {
      if (text::stopwords().contains(term)) continue;
      if (title.find(term) != std::string::npos) {
        score += kTitleWeight * std::max(0.2, index_.idf(term));
      }
    }
    for (const std::string& symbol : q.symbols) {
      if (pkb::util::iequals(symbol, doc.meta("title"))) {
        score += kTitleSymbolBonus;
      }
    }
  }

  // BM25 against the fitted corpus statistics: approximate by scoring the
  // candidate text directly (per-term idf * saturated tf).
  double bm25 = 0.0;
  for (const std::string& term : seen) {
    if (!doc_terms.contains(term)) continue;
    const double tf = static_cast<double>(
        pkb::util::count_occurrences(doc_lower, term));
    bm25 += index_.idf(term) * (tf * 2.2) / (tf + 1.2);
  }
  score += kBm25Weight * bm25 / 10.0;

  return score;
}

std::vector<RerankResult> FlashRanker::rerank(
    std::string_view query, const std::vector<RerankCandidate>& candidates,
    std::size_t top_l) const {
  consult_fault_plan();
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
