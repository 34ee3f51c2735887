#pragma once
// The heavy reranker (NVIDIA cross-encoder analogue): an all-pairs soft
// alignment between query and document terms with positional proximity
// weighting — O(|query| * |doc|) per pair, an order of magnitude more work
// than FlashRanker's set operations.

#include "lexical/bm25.h"
#include "rerank/reranker.h"

namespace pkb::rerank {

class CrossScoreReranker final : public Reranker {
 public:
  [[nodiscard]] std::string name() const override { return "sim-nv-cross"; }
  void fit(const std::vector<text::Document>& corpus) override;
  [[nodiscard]] std::vector<RerankResult> rerank(
      std::string_view query, const std::vector<RerankCandidate>& candidates,
      std::size_t top_l) const override;

  /// Score one pair; exposed for tests and the comparison bench.
  [[nodiscard]] double score_pair(std::string_view query,
                                  const text::Document& doc) const;

 private:
  lexical::Bm25Index index_;
};

}  // namespace pkb::rerank
