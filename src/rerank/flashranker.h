#pragma once
// The lightweight CPU reranker (Flashrank analogue).
//
// A candidate's score blends IDF-weighted coverage of the query's terms,
// exact API-symbol matches in the raw text, the query bigrams found in the
// lowercased text, title hits and a BM25 sum whose tf is the term's
// non-overlapping substring count. Each score() call plans the query once:
// its terms with their idf, its symbols, and one util::NeedleCounter over
// every distinct term and bigram. Each candidate's lowercased text is then
// scanned once for all of them, and TextAnalysis::has_term is asked only
// for the terms that scan found. The counter is local to the call, so one
// FlashRanker serves any number of threads.

#include "rerank/reranker.h"

namespace pkb::rerank {

class FlashRanker final : public Reranker {
 public:
  [[nodiscard]] std::string name() const override { return "sim-flashrank"; }
  [[nodiscard]] std::vector<double> score(
      const text::QueryAnalysis& query, const lexical::CorpusAnalysis& corpus,
      const std::vector<RerankCandidate>& candidates) const override;
};

}  // namespace pkb::rerank
