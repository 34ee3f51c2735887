#include "rerank/flashranker.h"

#include <algorithm>
#include <unordered_map>

#include "util/needles.h"
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

/// A distinct query term (a view into the query analysis) with its idf.
struct QueryTerm {
  std::string_view text;
  double idf = 0.0;
  bool stopword = false;
};

/// A query term, by its index in Query::terms, with the weight it
/// contributes to one part of the blend.
struct WeightedTerm {
  std::size_t term = 0;
  double weight = 0.0;
};

/// An API symbol of the query: its surface form, its lowercase form (for
/// the title test) and its match bonus.
struct QuerySymbol {
  std::string surface;
  std::string lower;
  double bonus = 0.0;
};

/// The query side of the blend, planned once per score() call from the
/// query analysis. Each list is in the order the blend sums it;
/// floating-point sums depend on that order, and the golden and parity
/// tests pin every score to the bit.
struct Query {
  /// Distinct terms in first-appearance order: needles [0, terms.size()).
  std::vector<QueryTerm> terms;
  /// Non-stopword terms in first-appearance order, max(0.1, idf).
  std::vector<WeightedTerm> coverage;
  double total_idf = 0.0;
  std::vector<QuerySymbol> symbols;
  /// The needle of each adjacent token pair that is not two stopwords
  /// ("a b"), in query order, repeats included.
  std::vector<std::size_t> bigrams;
  /// The terms in the iteration order of an unordered_set<string> built by
  /// inserting the tokens in order (an unordered_map<string_view, ...>
  /// iterates the same: same hash, same insertion sequence): non-stopwords
  /// with kTitleWeight * max(0.2, idf) for the title sum, every term with
  /// its idf for the BM25 sum.
  std::vector<WeightedTerm> title_terms;
  std::vector<WeightedTerm> bm25_terms;
  /// Every term and bigram, counted in one pass over a candidate's
  /// lowercased text.
  pkb::util::NeedleCounter needles;
  /// Per candidate: whether terms[i] is one of its tokens.
  std::vector<char> present;
};

Query plan_query(const text::QueryAnalysis& q,
                 const lexical::TermStats& stats) {
  const auto& stop = text::stopwords();
  std::vector<QueryTerm> terms;
  std::vector<WeightedTerm> coverage;
  double total_idf = 0.0;
  std::unordered_map<std::string_view, std::size_t> index;
  std::vector<std::size_t> token_terms;
  token_terms.reserve(q.tokens.size());
  for (const text::TextAnalysis::Span tok : q.tokens) {
    const std::string_view term = q.view(tok);
    const auto [it, fresh] = index.try_emplace(term, terms.size());
    token_terms.push_back(it->second);
    if (!fresh) continue;
    const double idf = stats.idf(term);
    const bool stopword = stop.contains(term);
    terms.push_back({term, idf, stopword});
    if (stopword) continue;
    const double w = std::max(0.1, idf);
    total_idf += w;
    coverage.push_back({it->second, w});
  }

  std::vector<std::string_view> needles;
  needles.reserve(terms.size() + token_terms.size());
  for (const QueryTerm& t : terms) needles.push_back(t.text);
  std::string bigram_text;
  std::vector<std::size_t> bigram_ends;
  for (std::size_t i = 0; i + 1 < token_terms.size(); ++i) {
    const QueryTerm& a = terms[token_terms[i]];
    const QueryTerm& b = terms[token_terms[i + 1]];
    if (a.stopword && b.stopword) continue;
    bigram_text.append(a.text).append(" ").append(b.text);
    bigram_ends.push_back(bigram_text.size());
  }
  std::vector<std::size_t> bigrams;
  std::size_t begin = 0;
  for (const std::size_t end : bigram_ends) {
    bigrams.push_back(needles.size());
    needles.push_back(std::string_view(bigram_text).substr(begin, end - begin));
    begin = end;
  }

  std::vector<QuerySymbol> symbols;
  for (const std::string& symbol : q.symbols) {
    std::string lower = pkb::util::to_lower(symbol);
    const double bonus = kSymbolBonus * std::max(0.2, stats.idf(lower));
    symbols.push_back({symbol, std::move(lower), bonus});
  }
  std::vector<WeightedTerm> title_terms;
  std::vector<WeightedTerm> bm25_terms;
  for (const auto& [term, i] : index) {
    const QueryTerm& t = terms[i];
    if (!t.stopword) {
      title_terms.push_back({i, kTitleWeight * std::max(0.2, t.idf)});
    }
    bm25_terms.push_back({i, t.idf});
  }
  const std::size_t term_count = terms.size();
  return Query{.terms = std::move(terms),
               .coverage = std::move(coverage),
               .total_idf = total_idf,
               .symbols = std::move(symbols),
               .bigrams = std::move(bigrams),
               .title_terms = std::move(title_terms),
               .bm25_terms = std::move(bm25_terms),
               .needles = pkb::util::NeedleCounter(needles),
               .present = std::vector<char>(term_count)};
}

double score_doc(Query& q, const text::Document& doc,
                 const text::TextAnalysis& a) {
  // One pass counts every term and bigram. A token is a span of the
  // lowercased text, so a term counted 0 times is not a token.
  q.needles.scan(a.lower);
  for (std::size_t i = 0; i < q.terms.size(); ++i) {
    q.present[i] = q.needles.count(i) > 0 && a.has_term(q.terms[i].text);
  }

  // IDF-weighted coverage of distinct query terms.
  double coverage = 0.0;
  for (const WeightedTerm& t : q.coverage) {
    if (q.present[t.term]) coverage += t.weight;
  }
  double score = q.total_idf > 0.0
                     ? kCoverageWeight * coverage / q.total_idf
                     : 0.0;

  // Exact API-symbol matches (case-sensitive surface form in the raw text).
  for (const QuerySymbol& symbol : q.symbols) {
    if (doc.text.find(symbol.surface) != std::string::npos) {
      score += symbol.bonus;
    }
  }

  // Query bigrams appearing verbatim (lowercased) in the document.
  for (const std::size_t bigram : q.bigrams) {
    if (q.needles.count(bigram) > 0) score += kBigramBonus;
  }

  // Title hits, IDF-weighted: rare query terms matching the page symbol are
  // near-decisive. Substring matches, as for the bigrams.
  if (!a.title.empty()) {
    for (const WeightedTerm& t : q.title_terms) {
      if (a.title.find(q.terms[t.term].text) != std::string::npos) {
        score += t.weight;
      }
    }
    for (const QuerySymbol& symbol : q.symbols) {
      if (symbol.lower == a.title) score += kTitleSymbolBonus;
    }
  }

  // BM25 against the generation's statistics: approximate by scoring the
  // candidate text directly (per-term idf * saturated tf, tf counted as
  // non-overlapping substring occurrences).
  double bm25 = 0.0;
  for (const WeightedTerm& t : q.bm25_terms) {
    if (!q.present[t.term]) continue;
    const double tf = static_cast<double>(q.needles.count(t.term));
    bm25 += t.weight * (tf * 2.2) / (tf + 1.2);
  }
  score += kBm25Weight * bm25 / 10.0;

  return score;
}

}  // namespace

std::vector<double> FlashRanker::score(
    const text::QueryAnalysis& query, const lexical::CorpusAnalysis& corpus,
    const std::vector<RerankCandidate>& candidates) const {
  Query q = plan_query(query, *corpus.stats);
  std::vector<double> out;
  out.reserve(candidates.size());
  for (const RerankCandidate& c : candidates) {
    out.push_back(score_doc(q, *c.doc, *corpus.chunks.at(c.row)));
  }
  return out;
}

}  // namespace pkb::rerank
