#pragma once
// Hashing-trick embedders: fixed-dimension bag-of-words and character
// n-grams. No fit() statistics required (dimension fixed at construction),
// which models embedding APIs that work out of the box.

#include "embed/embedder.h"

namespace pkb::embed {

/// Hashed bag-of-words with signed hashing (each term hashes to a bucket and
/// a +-1 sign, which unbiases collisions).
class HashEmbedder final : public Embedder {
 public:
  explicit HashEmbedder(std::size_t dim = 512);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t dimension() const override { return dim_; }
  void fit(std::span<const text::AnalysisPtr> /*docs*/) override {}
  [[nodiscard]] Vector embed(const text::TextAnalysis& text) const override;

 private:
  std::size_t dim_;
};

/// Hashed character 3- to 5-grams over the lowercased tokens with
/// word-boundary markers. Tolerant of typos and of API-symbol morphology
/// ("KSPGmres" ~ "KSPGMRES").
class CharNgramEmbedder final : public Embedder {
 public:
  explicit CharNgramEmbedder(std::size_t dim = 512);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t dimension() const override { return dim_; }
  void fit(std::span<const text::AnalysisPtr> /*docs*/) override {}
  [[nodiscard]] Vector embed(const text::TextAnalysis& text) const override;

 private:
  std::size_t dim_;
};

}  // namespace pkb::embed
