#pragma once
// Blended embedding: a dense semantic component (LSA) concatenated with a
// scaled lexical component (hashed bag-of-words).
//
// This is the most faithful stand-in for a modern neural text embedding:
// strong topical similarity with a residual of exact-term signal. Cosine of
// the blend decomposes as (1-w)*cos_semantic + w*cos_lexical because both
// parts are unit-normalized before scaling.

#include "embed/hashing.h"
#include "embed/lsa.h"

namespace pkb::embed {

class BlendEmbedder final : public Embedder {
 public:
  /// `lexical_weight` w in [0,1]: 0 = pure LSA, 1 = pure hashed BoW.
  BlendEmbedder(std::size_t lsa_rank = 32, std::size_t hash_dim = 256,
                double lexical_weight = 0.25, std::uint64_t seed = 0xC0FFEE);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t dimension() const override {
    return lsa_.dimension() + hash_.dimension();
  }
  void fit(std::span<const text::AnalysisPtr> docs) override;
  [[nodiscard]] Vector embed(const text::TextAnalysis& text) const override;

 private:
  LsaEmbedder lsa_;
  HashEmbedder hash_;
  double lexical_weight_;
};

}  // namespace pkb::embed
