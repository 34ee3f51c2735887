#pragma once
// TF-IDF embedding and the shared vocabulary/IDF statistics, counted from
// each chunk analysis's distinct terms and weighed over an analysis's tokens.

#include <string>
#include <string_view>
#include <vector>

#include "embed/embedder.h"

namespace pkb::embed {

/// Corpus vocabulary with document frequencies; shared by TfidfEmbedder and
/// LsaEmbedder.
class Vocabulary {
 public:
  /// Every distinct term of the analysed documents, with its idf.
  void fit(std::span<const text::AnalysisPtr> docs);

  /// Number of terms.
  [[nodiscard]] std::size_t size() const { return terms_.size(); }

  /// Term id (its rank in sorted term order), or npos when unknown.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t id_of(std::string_view term) const;

  /// Smoothed inverse document frequency: log((1+N)/(1+df)) + 1.
  [[nodiscard]] float idf(std::size_t term_id) const {
    return idf_.at(term_id);
  }

  /// Sparse TF-IDF: (term_id, weight) pairs, L2-normalized.
  [[nodiscard]] std::vector<std::pair<std::size_t, float>> tfidf(
      const text::TextAnalysis& text) const;

 private:
  std::vector<std::string> terms_;  ///< sorted; a term's id is its index
  std::vector<float> idf_;
};

/// Dense TF-IDF embedding: dimension == vocabulary size.
class TfidfEmbedder final : public Embedder {
 public:
  [[nodiscard]] std::string name() const override { return "sim-tfidf"; }
  [[nodiscard]] std::size_t dimension() const override {
    return vocab_.size();
  }
  void fit(std::span<const text::AnalysisPtr> docs) override;
  [[nodiscard]] Vector embed(const text::TextAnalysis& text) const override;

 private:
  Vocabulary vocab_;
};

}  // namespace pkb::embed
