#pragma once
// The heavy reranker (NVIDIA cross-encoder analogue): an all-pairs soft
// alignment between query and document terms with positional proximity
// weighting — O(|query| * |doc|) per pair, an order of magnitude more work
// than FlashRanker's set operations.

#include "rerank/reranker.h"

namespace pkb::rerank {

class CrossScoreReranker final : public Reranker {
 public:
  [[nodiscard]] std::string name() const override { return "sim-nv-cross"; }
  [[nodiscard]] std::vector<double> score(
      const text::QueryAnalysis& query, const lexical::CorpusAnalysis& corpus,
      const std::vector<RerankCandidate>& candidates) const override;
};

}  // namespace pkb::rerank
