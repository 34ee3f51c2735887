#pragma once
// The lightweight CPU reranker (Flashrank analogue).

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
