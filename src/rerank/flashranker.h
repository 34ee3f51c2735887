#pragma once
// The lightweight CPU reranker (Flashrank analogue).

#include "lexical/bm25.h"
#include "rerank/reranker.h"

namespace pkb::rerank {

class FlashRanker final : public Reranker {
 public:
  [[nodiscard]] std::string name() const override { return "sim-flashrank"; }
  void fit(const std::vector<text::Document>& corpus) override;
  [[nodiscard]] std::vector<RerankResult> rerank(
      std::string_view query, const std::vector<RerankCandidate>& candidates,
      std::size_t top_l) const override;

  /// Score one (query, document) pair; exposed for tests and ablations.
  [[nodiscard]] double score_pair(std::string_view query,
                                  const text::Document& doc) const;

 private:
  lexical::Bm25Index index_;
};

}  // namespace pkb::rerank
