#pragma once
// Latent Semantic Analysis embedder: dense low-rank embedding obtained from
// a truncated SVD of the corpus TF-IDF matrix, computed with randomized
// subspace iteration (hand-rolled; no LAPACK).
//
// This is the "semantic" model of the registry: it captures topical
// similarity between texts that share no exact terms, at the price of losing
// exact-term precision — exactly the failure mode the paper's reranking
// stage repairs (decisive document at embedding rank 5-8).

#include "embed/tfidf.h"

namespace pkb::embed {

class LsaEmbedder final : public Embedder {
 public:
  /// `rank`: embedding dimension (number of singular vectors kept).
  /// `iterations`: subspace-iteration sweeps (more = closer to exact SVD).
  /// `seed`: RNG seed for the random start basis.
  explicit LsaEmbedder(std::size_t rank = 64, std::size_t iterations = 6,
                       std::uint64_t seed = 0xC0FFEE);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t dimension() const override { return rank_; }
  void fit(std::span<const text::AnalysisPtr> docs) override;
  [[nodiscard]] Vector embed(const text::TextAnalysis& text) const override;

 private:
  std::size_t rank_;
  std::size_t iterations_;
  std::uint64_t seed_;
  Vocabulary vocab_;
  /// Row-major rank_ x vocab-size projection (right singular vectors).
  std::vector<float> basis_;
  std::size_t vocab_size_ = 0;
};

}  // namespace pkb::embed
